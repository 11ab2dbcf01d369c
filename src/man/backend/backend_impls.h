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

}  // namespace man::backend::detail

#endif  // MAN_BACKEND_BACKEND_IMPLS_H
