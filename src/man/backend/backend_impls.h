// The backends behind the registry, internal to man::backend (callers
// go through backend_for()/resolve()).
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

/// The scalar reference's per-sample dense walk (scalar_backend.cpp):
/// the dense loop of every tier below AVX-512 too.
void dense_walk(const DenseLayerPlan& plan, const std::int64_t* multiples,
                std::int64_t* out);

/// The scalar reference: its walks, and no sweeps.
[[nodiscard]] KernelBackend scalar_backend();

/// The widest vector tier this CPU runs: 64 bytes when CPUID reports
/// AVX-512F/VL/BW, 32 with AVX2, 16 otherwise and without
/// MAN_X86_KERNELS.
[[nodiscard]] int cpu_bytes();

/// The vector backend capped by `cap` (kBlocked, kSimd or kAvx512):
/// the loops of the widest tier at or below the cap that cpu_bytes()
/// reports (vector_kernels.cpp).
[[nodiscard]] KernelBackend vector_backend(BackendKind cap);

}  // namespace man::backend::detail

#endif  // MAN_BACKEND_BACKEND_IMPLS_H
