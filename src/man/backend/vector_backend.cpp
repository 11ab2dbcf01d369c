// The vector backends: blocked, simd and avx512 are one class, whose
// BackendKind is a cap on the vector width. blocked runs the 16-byte
// portable tier, the only vector code off x86-64; simd runs AVX2 where
// CPUID reports it; avx512 runs AVX-512F/VL, else AVX2. Each picks the
// widest tier at or below its cap that the CPU runs (vector_kernels())
// once, and each method is one call into that tier's kernels, so no
// method runs AVX code before the CPUID check. The exact paths run the
// blocked loops below on every tier.
#include "man/backend/backend_impls.h"

namespace man::backend::detail {

namespace {

/// Σ_c weights[c] · value(c) over `cols` columns in four independent
/// accumulators, which the compiler can keep in one vector (integer
/// addition commutes, so the result is bit-identical to the
/// sequential reference).
template <typename Value>
std::int64_t blocked_dot(const std::int32_t* weights, int cols,
                         Value value) {
  constexpr int kBlock = 4;
  std::int64_t lanes[kBlock] = {};
  const int main = cols / kBlock * kBlock;
  for (int c = 0; c < main; c += kBlock) {
    for (int l = 0; l < kBlock; ++l) {
      lanes[l] += static_cast<std::int64_t>(weights[c + l]) * value(c + l);
    }
  }
  std::int64_t acc = 0;
  for (const std::int64_t lane : lanes) acc += lane;
  for (int c = main; c < cols; ++c) {
    acc += static_cast<std::int64_t>(weights[c]) * value(c);
  }
  return acc;
}

class VectorBackend final : public KernelBackend {
 public:
  VectorBackend(BackendKind kind, const char* name, int cap_bytes)
      : kind_(kind), name_(name), kernels_(vector_kernels(cap_bytes)) {}

  [[nodiscard]] BackendKind kind() const noexcept override { return kind_; }
  [[nodiscard]] const char* name() const noexcept override { return name_; }
  [[nodiscard]] const char* description() const noexcept override {
    return kernels_.description;
  }
  [[nodiscard]] bool accelerated() const noexcept override {
    return kernels_.bytes > 16;  // above the portable tier
  }

  void accumulate_dense(const DenseLayerPlan& plan,
                        const std::int64_t* multiples,
                        std::int64_t* out) const override {
    kernels_.dense(plan, multiples, out);
  }

  void accumulate_dense_tile(const DenseLayerPlan& plan,
                             const std::int32_t* tile,
                             std::int64_t* out) const override {
    kernels_.dense_tile(plan, tile, out);
  }

  void exact_dense(const DenseLayerPlan& plan,
                   const std::int64_t* activations,
                   std::int64_t* out) const override {
    for (std::size_t r = 0; r < static_cast<std::size_t>(plan.rows); ++r) {
      out[r] = plan.biases[r] +
               blocked_dot(&plan.weights[r * plan.cols], plan.cols,
                           [&](int c) { return activations[c]; });
    }
  }

  void accumulate_conv(const ConvLayerPlan& plan,
                       const std::int64_t* multiples,
                       std::int64_t* out) const override {
    kernels_.conv(plan, multiples, out);
  }

  void accumulate_conv_int32(const ConvLayerPlan& plan,
                             const std::int32_t* multiples,
                             std::int64_t* out) const override {
    kernels_.conv_int32(plan, multiples, out);
  }

  void exact_conv(const ConvLayerPlan& plan,
                  const std::int64_t* activations,
                  std::int64_t* out) const override {
    const std::size_t positions = plan.positions();
    const std::uint32_t* elems = plan.patch_elems.data();
    for (int oy = 0; oy < plan.oh; ++oy) {
      for (int ox = 0; ox < plan.ow; ++ox) {
        const std::size_t base = static_cast<std::size_t>(oy) * plan.iw + ox;
        const std::size_t p = static_cast<std::size_t>(oy) * plan.ow + ox;
        for (std::size_t r = 0; r < static_cast<std::size_t>(plan.oc); ++r) {
          out[r * positions + p] =
              plan.biases[r] +
              blocked_dot(&plan.weights[r * plan.cols], plan.cols,
                          [&](int c) { return activations[elems[c] + base]; });
        }
      }
    }
  }

 private:
  BackendKind kind_;
  const char* name_;
  const VectorKernels& kernels_;
};

}  // namespace

const KernelBackend& vector_backend(BackendKind cap) {
  static const VectorBackend blocked(BackendKind::kBlocked, "blocked", 16);
  static const VectorBackend simd(BackendKind::kSimd, "simd", 32);
  static const VectorBackend avx512(BackendKind::kAvx512, "avx512", 64);
  switch (cap) {
    case BackendKind::kSimd:
      return simd;
    case BackendKind::kAvx512:
      return avx512;
    default:
      return blocked;
  }
}

}  // namespace man::backend::detail
