// Singleton accessors for the concrete kernels, internal to the
// registry (callers go through backend_for()/resolve()).
#ifndef MAN_BACKEND_BACKEND_IMPLS_H
#define MAN_BACKEND_BACKEND_IMPLS_H

#include "man/backend/kernel_backend.h"

namespace man::backend::detail {

[[nodiscard]] const KernelBackend& scalar_backend();
[[nodiscard]] const KernelBackend& blocked_backend();
[[nodiscard]] const KernelBackend& simd_backend();
[[nodiscard]] const KernelBackend& avx512_backend();

/// Shaped conv entry points for the tile autotuner: one full
/// accumulate_conv_int32 pass with an explicit tile shape on the named
/// ISA's accelerated path. Return false (without touching `out`)
/// when that path is not live in this build/on this CPU.
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
