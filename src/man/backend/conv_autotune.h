// One-shot register-blocking autotuner for the vectorized int32 conv
// kernels (KernelBackend::accumulate_conv_int32): every ConvTileShape
// is bit-identical to the scalar reference (the kernels only differ in
// how many output positions one plan pass feeds), so the best shape
// for a given conv geometry is purely a speed question — answered once
// per plan, when the FixedNetwork constructor first sees an untuned
// plan that takes int32 lanes, by a microbench over a synthetic int32
// multiples buffer, and recorded on the plan for dispatch to read.
#ifndef MAN_BACKEND_CONV_AUTOTUNE_H
#define MAN_BACKEND_CONV_AUTOTUNE_H

#include <optional>
#include <span>
#include <string>

#include "man/backend/layer_plan.h"

namespace man::backend {

/// Tile shapes the autotuner measures — the same candidate grid for
/// the AVX2 and AVX-512 kernels (each ISA records its own winner).
[[nodiscard]] std::span<const ConvTileShape> conv_tile_candidates();

/// The MAN_CONV_TILE override, if set: "RxC" (row tile 1..8 × column
/// vector groups 1..2, e.g. "4x1", "8x2") forces that shape on every
/// plan, "ws" forces the weight-stationary sweep, "default" pins the
/// kernel defaults (tuning off). Unset, empty, or "auto" yield
/// nullopt (measure). Anything else throws std::invalid_argument.
[[nodiscard]] std::optional<ConvTileShape> env_conv_tile_override();

/// Measures (or force-applies MAN_CONV_TILE to) the tile shapes for
/// one conv plan, recording the per-ISA winners on plan.tile_avx2 /
/// plan.tile_avx512 and setting plan.tiles_tuned. No-op for exact
/// plans, for geometries too small to time reliably (the kernel
/// defaults already serve them), and on platforms/CPUs where no
/// vector kernel is live. FixedNetwork calls it only for plans that take
/// int32 lanes: the int64 accumulate_conv ignores tile shapes.
void autotune_conv_plan(ConvLayerPlan& plan);

/// Diagnostic spelling of a shape ("4x1", "8x2", "ws", "default").
[[nodiscard]] std::string to_string(const ConvTileShape& shape);

}  // namespace man::backend

#endif  // MAN_BACKEND_CONV_AUTOTUNE_H
