// The concrete kernels behind the registry, internal to man::backend
// (callers go through backend_for()/resolve()).
#ifndef MAN_BACKEND_BACKEND_IMPLS_H
#define MAN_BACKEND_BACKEND_IMPLS_H

#include <cstdint>

#include "man/backend/kernel_backend.h"

// The one compile-time ISA switch. On x86-64 under GCC or Clang, the
// 32- and 64-byte vector tiers compile their kernels, and only those
// functions, for AVX2 or AVX-512F/VL/BW through a per-function target
// attribute; every file is built at the default ISA, and runtime CPUID
// decides whether the kernels run. Elsewhere only the 16-byte tier
// exists.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MAN_X86_KERNELS 1
#define MAN_TARGET_AVX2 __attribute__((target("avx2")))
#define MAN_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512vl,avx512bw")))
#else
#define MAN_X86_KERNELS 0
#endif

namespace man::backend::detail {

/// One vector tier's kernels (vector_kernels.cpp): the generic-vector
/// loops of vector_kernels.h instantiated at `bytes`-wide vectors.
struct VectorKernels {
  int bytes;                ///< 16 (portable), 32 (AVX2), 64 (AVX-512)
  const char* description;  ///< KernelBackend::description()
  /// The per-sample dense gather, null where the tier runs the scalar
  /// reference (every tier below AVX-512).
  void (*dense)(const DenseLayerPlan&, const std::int64_t*, std::int64_t*);
  void (*dense_tile)(const DenseLayerPlan&, std::span<const std::uint8_t>,
                     int, const std::int16_t*, std::int64_t*);
  void (*conv_int32)(const ConvLayerPlan&, const std::int32_t*,
                     std::int64_t*);
  /// The epilogue sweeps (KernelBackend's), null where the tier has
  /// none. Each returns false where it does not run exactly, and
  /// FixedNetwork then runs the reference, which throws on a miss.
  bool (*stage_pixels)(std::span<const float>, const man::fixed::QFormat&,
                       const man::core::PrecomputerCache::View&,
                       std::int32_t*, std::size_t);
  bool (*lut_pool2_stage)(const std::int64_t*, const Pool2Shape&,
                          const man::core::FixedActivationLut::RawPath&,
                          const man::core::PrecomputerCache::View&,
                          std::int32_t*, std::size_t);
  bool (*stage_pixels_tile)(std::span<const float>,
                            const man::fixed::QFormat&,
                            const man::core::PrecomputerCache::View&,
                            std::int16_t*);
  bool (*lut_stage_tile)(const std::int64_t*, std::size_t,
                         const man::core::FixedActivationLut::RawPath&,
                         const man::core::PrecomputerCache::View&,
                         std::int16_t*);
};

/// The widest tier at most `cap_bytes` wide that this CPU runs: 64
/// when CPUID reports AVX-512F/VL/BW, 32 with AVX2, 16 otherwise and
/// without MAN_X86_KERNELS.
[[nodiscard]] const VectorKernels& vector_kernels(int cap_bytes);

[[nodiscard]] const KernelBackend& scalar_backend();
/// The vector backend capped by `cap`: kBlocked, kSimd or kAvx512.
[[nodiscard]] const KernelBackend& vector_backend(BackendKind cap);

}  // namespace man::backend::detail

#endif  // MAN_BACKEND_BACKEND_IMPLS_H
