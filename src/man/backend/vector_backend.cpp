// The vector backends: blocked, simd and avx512 are one class, whose
// BackendKind is a cap on the vector width. blocked runs the 16-byte
// portable tier, the only vector code off x86-64; simd runs AVX2 where
// CPUID reports it; avx512 runs AVX-512F/VL, else AVX2. Each picks the
// widest tier at or below its cap that the CPU runs (vector_kernels())
// once, and each method is one call into that tier's kernels, so no
// method runs AVX code before the CPUID check.
#include "man/backend/backend_impls.h"

namespace man::backend::detail {

namespace {

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
