// Compatibility header for perfbench's conv_tiles provenance, which
// prints ConvLayerPlan::tile_avx2 / tile_avx512 through to_string().
// Conv tiles are fixed per ISA at compile time; this header and those
// members go in the next benchmark change.
#ifndef MAN_BACKEND_CONV_AUTOTUNE_H
#define MAN_BACKEND_CONV_AUTOTUNE_H

#include <string>

#include "man/backend/layer_plan.h"

namespace man::backend {

/// Diagnostic spelling of a tile ("3x2", "5x2").
[[nodiscard]] std::string to_string(const ConvTileShape& shape);

}  // namespace man::backend

#endif  // MAN_BACKEND_CONV_AUTOTUNE_H
