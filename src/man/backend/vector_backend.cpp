// The vector backends: blocked, simd and avx512 are one class, whose
// BackendKind is a cap on the vector width. blocked runs the 16-byte
// portable tier, the only vector code off x86-64; simd runs AVX2 where
// CPUID reports it; avx512 runs AVX-512F/VL/BW, else AVX2. Each picks the
// widest tier at or below its cap that the CPU runs (vector_kernels())
// once, and each method is one call into that tier's kernels, or into
// the scalar reference where the tier has no kernel of its own (int64
// conv lanes everywhere, the per-sample dense loop below AVX-512), so
// no method runs AVX code before the CPUID check.
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
    if (kernels_.dense != nullptr) {
      kernels_.dense(plan, multiples, out);
    } else {
      scalar_backend().accumulate_dense(plan, multiples, out);
    }
  }

  void accumulate_dense_tile(const DenseLayerPlan& plan,
                             std::span<const std::uint8_t> alphabets,
                             int chunk, const std::int16_t* tile,
                             std::int64_t* out) const override {
    kernels_.dense_tile(plan, alphabets, chunk, tile, out);
  }

  // Int64 conv lanes serve only plans outside the int32 proof, which no
  // app builds: they run the scalar reference.
  void accumulate_conv(const ConvLayerPlan& plan,
                       const std::int64_t* multiples,
                       std::int64_t* out) const override {
    scalar_backend().accumulate_conv(plan, multiples, out);
  }

  void accumulate_conv_int32(const ConvLayerPlan& plan,
                             const std::int32_t* multiples,
                             std::int64_t* out) const override {
    kernels_.conv_int32(plan, multiples, out);
  }

  bool stage_pixels(std::span<const float> pixels,
                    const man::fixed::QFormat& format,
                    const man::core::PrecomputerCache::View& table,
                    std::int32_t* slots, std::size_t stride) const override {
    return kernels_.stage_pixels != nullptr &&
           kernels_.stage_pixels(pixels, format, table, slots, stride);
  }

  bool lut_pool2_stage(const std::int64_t* in, const Pool2Shape& shape,
                       const man::core::FixedActivationLut::RawPath& lut,
                       const man::core::PrecomputerCache::View& table,
                       std::int32_t* slots,
                       std::size_t stride) const override {
    return kernels_.lut_pool2_stage != nullptr &&
           kernels_.lut_pool2_stage(in, shape, lut, table, slots, stride);
  }

  bool stage_pixels_tile(std::span<const float> pixels,
                         const man::fixed::QFormat& format,
                         const man::core::PrecomputerCache::View& table,
                         std::int16_t* tile) const override {
    return kernels_.stage_pixels_tile != nullptr &&
           kernels_.stage_pixels_tile(pixels, format, table, tile);
  }

  bool lut_stage_tile(const std::int64_t* acc, std::size_t elements,
                      const man::core::FixedActivationLut::RawPath& lut,
                      const man::core::PrecomputerCache::View& table,
                      std::int16_t* tile) const override {
    return kernels_.lut_stage_tile != nullptr &&
           kernels_.lut_stage_tile(acc, elements, lut, table, tile);
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
