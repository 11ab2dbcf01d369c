// Singleton accessors for the concrete kernels, internal to the
// registry (callers go through backend_for()/resolve()).
#ifndef MAN_BACKEND_BACKEND_IMPLS_H
#define MAN_BACKEND_BACKEND_IMPLS_H

#include "man/backend/kernel_backend.h"

// The one compile-time ISA switch. On x86-64 under GCC or Clang, the
// simd and avx512 backends compile their intrinsic kernels, and only
// those functions, for AVX2 or AVX-512F/VL through a per-function
// target attribute; every file is built at the default ISA, and
// runtime CPUID decides whether the kernels run. Elsewhere both
// backends run their portable plane loops.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MAN_X86_KERNELS 1
#define MAN_TARGET_AVX2 __attribute__((target("avx2")))
#define MAN_TARGET_AVX512 __attribute__((target("avx512f,avx512vl")))
#else
#define MAN_X86_KERNELS 0
#endif

namespace man::backend::detail {

[[nodiscard]] const KernelBackend& scalar_backend();
[[nodiscard]] const KernelBackend& blocked_backend();
[[nodiscard]] const KernelBackend& simd_backend();
[[nodiscard]] const KernelBackend& avx512_backend();

/// Shaped conv entry points for the tile autotuner: one full
/// accumulate_conv_int32 pass with an explicit tile shape on the named
/// ISA's accelerated path. Return false (without touching `out`)
/// when that path is not live on this platform/CPU.
[[nodiscard]] bool conv_run_shaped_avx2(const ConvLayerPlan& plan,
                                        const std::int32_t* multiples,
                                        std::int64_t* out,
                                        const ConvTileShape& shape);
[[nodiscard]] bool conv_run_shaped_avx512(const ConvLayerPlan& plan,
                                          const std::int32_t* multiples,
                                          std::int64_t* out,
                                          const ConvTileShape& shape);

}  // namespace man::backend::detail

#endif  // MAN_BACKEND_BACKEND_IMPLS_H
