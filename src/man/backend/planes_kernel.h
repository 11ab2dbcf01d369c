// Portable kernels over the (shift, sign) groups of both plan kinds:
// the blocked backend's implementation, and the fallback the SIMD and
// AVX-512 backends run off x86-64 or on a CPU that lacks their ISA, so
// "simd without AVX2" and "blocked" are the same (bit-identical) code. Internal to man::backend; the definitions
// live in planes_kernel.cpp, one copy shared by all three backends.
#ifndef MAN_BACKEND_PLANES_KERNEL_H
#define MAN_BACKEND_PLANES_KERNEL_H

#include <cstdint>

#include "man/backend/layer_plan.h"

namespace man::backend::detail {

/// Branch-free dense group walk: for each output row, every (shift,
/// sign) group contributes ((Σ multiples[idx]) << shift ^ sign) - sign.
void accumulate_groups(const DenseLayerPlan& plan,
                       const std::int64_t* multiples, std::int64_t* out);

/// Batch-tiled group walk (accumulate_dense_tile): each term adds
/// kDenseTile contiguous int32 sample lanes at tile + idx·kDenseTile,
/// each group is shifted once and added or subtracted, and each row is
/// widened to int64 for the bias.
void accumulate_groups_tile(const DenseLayerPlan& plan,
                            const std::int32_t* tile, std::int64_t* out);

/// Exact dense with four independent accumulators per row (the
/// blocked shape; integer addition commutes, so the result is
/// bit-identical to the sequential reference).
void exact_dense_blocked(const DenseLayerPlan& plan,
                         const std::int64_t* activations, std::int64_t* out);

/// Conv variant of the group walk, blocked over 2-D tiles of output
/// positions so each term is loaded once per tile and streamed over
/// every tile position (see planes_kernel.cpp). The int32 overload
/// (accumulate_conv_int32) sums in int32 lanes and widens at the bias;
/// its caller holds int32_row_bound() ≤ INT32_MAX.
void accumulate_conv_groups(const ConvLayerPlan& plan,
                            const std::int64_t* multiples, std::int64_t* out);
void accumulate_conv_groups(const ConvLayerPlan& plan,
                            const std::int32_t* multiples, std::int64_t* out);

/// Exact conv with exact_dense_blocked's four accumulators over the
/// patch_elems gather (bit-identical to the sequential reference).
void exact_conv_blocked(const ConvLayerPlan& plan,
                        const std::int64_t* activations, std::int64_t* out);

}  // namespace man::backend::detail

#endif  // MAN_BACKEND_PLANES_KERNEL_H
