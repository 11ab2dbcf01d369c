#include "man/backend/conv_autotune.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "man/backend/backend_impls.h"

namespace man::backend {

namespace {

/// The measured grid: every row depth the kernels instantiate at one
/// and two vector column groups, plus the weight-stationary sweep.
/// Shapes near the 8×2 corner spill ymm/zmm registers — they are
/// still bit-identical, the bench simply votes them down where that
/// hurts.
constexpr std::array<ConvTileShape, 11> kCandidates = {{
    {1, 1, false},
    {2, 1, false},
    {3, 1, false},
    {4, 1, false},
    {6, 1, false},
    {8, 1, false},
    {2, 2, false},
    {4, 2, false},
    {6, 2, false},
    {8, 2, false},
    {0, 0, true},
}};

/// Geometries below this many output positions keep the kernel
/// defaults: single-pass times are too small to rank candidates
/// reliably, and the tile choice cannot matter much there anyway.
constexpr std::size_t kMinPositions = 32;

using Clock = std::chrono::steady_clock;

using ShapedRun = bool (*)(const ConvLayerPlan&, const std::int32_t*,
                           std::int64_t*, const ConvTileShape&);

[[nodiscard]] bool valid_shape(const ConvTileShape& shape) {
  if (shape.weight_stationary) return true;
  return shape.row_tile >= 1 && shape.row_tile <= kMaxConvRowTile &&
         shape.col_vecs >= 1 && shape.col_vecs <= kMaxConvColVecs;
}

/// Best-of-3 average time of `iters` kernel passes, in nanoseconds.
double measure(ShapedRun run, const ConvLayerPlan& plan,
               const std::int32_t* multiples, std::int64_t* out,
               const ConvTileShape& shape, int iters) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) (void)run(plan, multiples, out, shape);
    const auto t1 = Clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        iters;
    best = std::min(best, ns);
  }
  return best;
}

ConvTileShape tune_isa(ShapedRun run, const ConvLayerPlan& plan,
                       const std::int32_t* multiples, std::int64_t* out) {
  // Calibrate the repetition count off one warm default-shape pass so
  // small plans average enough runs to beat timer noise while big
  // plans stay cheap (the whole sweep targets low single-digit
  // milliseconds per plan per ISA).
  const ConvTileShape probe{};
  (void)run(plan, multiples, out, probe);  // warm caches + branch state
  const double probe_ns =
      measure(run, plan, multiples, out, probe, /*iters=*/1);
  const int iters = static_cast<int>(
      std::clamp(200000.0 / std::max(probe_ns, 1000.0), 1.0, 64.0));
  ConvTileShape winner = probe;
  double winner_ns = std::numeric_limits<double>::infinity();
  for (const ConvTileShape& shape : kCandidates) {
    const double ns = measure(run, plan, multiples, out, shape, iters);
    if (ns < winner_ns) {
      winner_ns = ns;
      winner = shape;
    }
  }
  return winner;
}

}  // namespace

std::span<const ConvTileShape> conv_tile_candidates() { return kCandidates; }

std::optional<ConvTileShape> env_conv_tile_override() {
  const char* env = std::getenv("MAN_CONV_TILE");
  if (env == nullptr) return std::nullopt;
  const std::string_view value(env);
  if (value.empty() || value == "auto") return std::nullopt;
  if (value == "default") return ConvTileShape{};
  if (value == "ws") {
    ConvTileShape shape;
    shape.weight_stationary = true;
    return shape;
  }
  ConvTileShape shape;
  const std::size_t x = value.find('x');
  bool ok = x != std::string_view::npos && x > 0 && x + 1 < value.size();
  if (ok) {
    const char* begin = value.data();
    auto rows = std::from_chars(begin, begin + x, shape.row_tile);
    auto cols = std::from_chars(begin + x + 1, begin + value.size(),
                                shape.col_vecs);
    ok = rows.ec == std::errc{} && rows.ptr == begin + x &&
         cols.ec == std::errc{} && cols.ptr == begin + value.size();
  }
  if (!ok || !valid_shape(shape)) {
    throw std::invalid_argument(
        "MAN_CONV_TILE: unknown tile \"" + std::string(value) +
        "\" (expected RxC with R 1..8 and C 1..2, ws, default, or auto)");
  }
  return shape;
}

void autotune_conv_plan(ConvLayerPlan& plan) {
  if (plan.exact) return;
  if (const auto forced = env_conv_tile_override()) {
    plan.tile_avx2 = *forced;
    plan.tile_avx512 = *forced;
    plan.tiles_tuned = true;
    return;
  }
  if (plan.positions() < kMinPositions) return;
  const bool avx2 = detail::simd_backend().accelerated();
  const bool avx512 = detail::avx512_backend().accelerated();
  if (!avx2 && !avx512) return;

  // Synthetic int32 staging buffer: kernel time depends on the plan
  // geometry, not the staged values, so any small integers do (the
  // vector kernels wrap, so even a plan outside the int32 proof could
  // not misbehave here). The zero region stays genuinely zero,
  // matching real staging.
  std::vector<std::int32_t> multiples(plan.padded_multiples(), 0);
  for (std::size_t i = 0; i < plan.zero_base; ++i) {
    multiples[i] = static_cast<std::int32_t>(i % 251) - 125;
  }
  std::vector<std::int64_t> out(static_cast<std::size_t>(plan.oc) *
                                plan.positions());

  if (avx2) {
    plan.tile_avx2 = tune_isa(&detail::conv_run_shaped_avx2, plan,
                              multiples.data(), out.data());
  }
  if (avx512) {
    plan.tile_avx512 = tune_isa(&detail::conv_run_shaped_avx512, plan,
                                multiples.data(), out.data());
  }
  plan.tiles_tuned = true;
}

std::string to_string(const ConvTileShape& shape) {
  if (shape.weight_stationary) return "ws";
  if (shape.row_tile <= 0 && shape.col_vecs <= 0) return "default";
  return std::to_string(shape.row_tile) + "x" +
         std::to_string(shape.col_vecs);
}

}  // namespace man::backend
