// Conv register-blocking tiles: every candidate tile shape (forced
// via MAN_CONV_TILE) must reproduce the scalar reference bit for bit
// through the vector backends, the compile-time autotuner must record
// its per-ISA winners on the plan (and skip geometries too small to
// time), and malformed MAN_CONV_TILE values must fail loudly at
// engine construction — the same surface the CI matrix sweeps.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "man/backend/backend_impls.h"
#include "man/backend/conv_autotune.h"
#include "man/backend/kernel_backend.h"
#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/conv2d.h"
#include "man/nn/dense.h"
#include "man/util/rng.h"

namespace man::backend {
namespace {

using man::core::AlphabetSet;
using man::engine::FixedNetwork;
using man::engine::LayerAlphabetPlan;
using man::nn::ActivationLayer;
using man::nn::Conv2D;
using man::nn::Dense;
using man::nn::Network;
using man::nn::ProjectionPlan;
using man::nn::QuantSpec;

/// Restores the previous MAN_CONV_TILE value when the test ends, so
/// tile-forcing tests cannot leak into each other (or into an outer
/// MAN_CONV_TILE=... ctest invocation).
class TileEnvGuard {
 public:
  TileEnvGuard() {
    if (const char* old = std::getenv("MAN_CONV_TILE")) old_ = old;
  }
  ~TileEnvGuard() {
    if (old_.has_value()) {
      setenv("MAN_CONV_TILE", old_->c_str(), 1);
    } else {
      unsetenv("MAN_CONV_TILE");
    }
  }
  void set(const std::string& value) {
    setenv("MAN_CONV_TILE", value.c_str(), 1);
  }
  void unset() { unsetenv("MAN_CONV_TILE"); }

 private:
  std::optional<std::string> old_;
};

// Wide single-conv network: 18 output columns exercise the two-vector
// column tiles at the ymm width (2×8 int32 lanes, then a masked
// 2-lane group) and one full plus one masked zmm group, and 180 output
// positions clear the autotuner's minimum-size threshold.
Network make_wide_cnn(std::uint64_t seed) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Conv2D>(1, 3, 3, 12, 20).init_xavier(rng);  // 3 @ 10×18
  net.add<ActivationLayer>(man::core::ActivationKind::kTanh);
  net.add<Dense>(540, 4).init_xavier(rng);
  return net;
}

FixedNetwork make_engine(Network& net, const QuantSpec& spec,
                         const AlphabetSet& set) {
  const ProjectionPlan projection(spec, set, net.num_weight_layers());
  projection.project_network(net);
  return FixedNetwork(
      net, spec, LayerAlphabetPlan::uniform_asm(net.num_weight_layers(), set));
}

/// One sample through every backend equals the scalar reference.
void expect_backends_match_scalar(const FixedNetwork& engine,
                                  const std::vector<float>& pixels,
                                  const std::string& label) {
  auto scratch = engine.make_scratch();
  auto stats = engine.make_stats();
  std::vector<std::int64_t> reference(engine.output_size());
  engine.infer_into(pixels, reference, stats, scratch,
                    backend_for(BackendKind::kScalar));
  for (const auto* backend : all_backends()) {
    std::vector<std::int64_t> raw(engine.output_size());
    engine.infer_into(pixels, raw, stats, scratch, *backend);
    EXPECT_EQ(raw, reference) << label << " backend=" << backend->name();
  }
}

// The forced-tile twin of ConvBackendBitIdentity: every candidate
// shape, forced onto the plan via MAN_CONV_TILE, must leave every
// backend bit-identical to the scalar reference — tile shapes may
// only change how many positions one pass feeds, never the bits.
TEST(ConvTileShapes, EveryCandidateShapeMatchesScalarReference) {
  TileEnvGuard guard;
  const QuantSpec spec = QuantSpec::bits8();
  const AlphabetSet set = AlphabetSet::four();

  man::util::Rng rng(41);
  std::vector<float> pixels(12 * 20);
  for (float& p : pixels) {
    p = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  }

  for (const ConvTileShape& shape : conv_tile_candidates()) {
    guard.set(to_string(shape));
    Network net = make_wide_cnn(71);
    FixedNetwork engine = make_engine(net, spec, set);
    expect_backends_match_scalar(engine, pixels, "tile=" + to_string(shape));
  }
}

// Ragged widths: the int32 conv kernels lane-mask the last column
// group of every row (8 int32 lanes per ymm, 16 per zmm), so every
// output width must stay bit-identical — ow = 1..34 covers every
// residue mod 8 and mod 16, one and two column groups, and one past
// kMaxConvColVecs × 16 — for every candidate shape, forced, on every
// backend. Nine output rows leave a partial row tile for every
// candidate row depth.
TEST(ConvTileShapes, RaggedWidthsMatchScalarReference) {
  TileEnvGuard guard;
  const QuantSpec spec = QuantSpec::bits8();
  const AlphabetSet set = AlphabetSet::four();
  constexpr int kMaxWidth = kMaxConvColVecs * 16 + 2;
  man::util::Rng rng(43);
  for (const ConvTileShape& shape : conv_tile_candidates()) {
    guard.set(to_string(shape));
    for (int ow = 1; ow <= kMaxWidth; ++ow) {
      Network net;
      net.add<Conv2D>(2, 3, 3, 11, ow + 2).init_xavier(rng);  // 3 @ 9×ow
      FixedNetwork engine = make_engine(net, spec, set);
      ASSERT_TRUE(engine.conv_int32_lanes(0)) << "ow=" << ow;
      std::vector<float> pixels(engine.input_size());
      for (float& p : pixels) {
        p = static_cast<float>(rng.next_double() * 2.0 - 1.0);
      }
      expect_backends_match_scalar(
          engine, pixels,
          "tile=" + to_string(shape) + " ow=" + std::to_string(ow));
    }
  }
}

TEST(ConvTileShapes, ForcedShapeIsRecordedOnEveryPlan) {
  TileEnvGuard guard;
  guard.set("8x2");
  Network net = make_wide_cnn(72);
  FixedNetwork engine = make_engine(net, QuantSpec::bits8(),
                                    AlphabetSet::four());
  ASSERT_EQ(engine.conv_plans().size(), 1u);
  const ConvLayerPlan& plan = engine.conv_plans()[0];
  EXPECT_TRUE(plan.tiles_tuned);
  for (const ConvTileShape* tile : {&plan.tile_avx2, &plan.tile_avx512}) {
    EXPECT_EQ(tile->row_tile, 8);
    EXPECT_EQ(tile->col_vecs, 2);
    EXPECT_FALSE(tile->weight_stationary);
  }

  guard.set("ws");
  Network ws_net = make_wide_cnn(72);
  FixedNetwork ws_engine = make_engine(ws_net, QuantSpec::bits8(),
                                       AlphabetSet::four());
  EXPECT_TRUE(ws_engine.conv_plans()[0].tile_avx2.weight_stationary);
  EXPECT_TRUE(ws_engine.conv_plans()[0].tile_avx512.weight_stationary);
}

// With no override, building the engine runs the microbench: plans
// above the size threshold come out tuned on hosts where a vector
// kernel is live, and whatever won must be a shape the kernels can
// dispatch.
TEST(ConvTileShapes, AutotunerRecordsValidWinnersPerIsa) {
  TileEnvGuard guard;
  guard.unset();
  Network net = make_wide_cnn(73);
  FixedNetwork engine = make_engine(net, QuantSpec::bits8(),
                                    AlphabetSet::four());
  ASSERT_EQ(engine.conv_plans().size(), 1u);
  const ConvLayerPlan& plan = engine.conv_plans()[0];
  ASSERT_GE(plan.positions(), 32u);

  const bool avx2 = detail::simd_backend().accelerated();
  const bool avx512 = detail::avx512_backend().accelerated();
  if (!avx2 && !avx512) {
    EXPECT_FALSE(plan.tiles_tuned);
    GTEST_SKIP() << "no vector kernel live on this platform/CPU";
  }
  EXPECT_TRUE(plan.tiles_tuned);
  const auto check = [](const ConvTileShape& tile) {
    if (tile.weight_stationary) return;
    EXPECT_GE(tile.row_tile, 1);
    EXPECT_LE(tile.row_tile, kMaxConvRowTile);
    EXPECT_GE(tile.col_vecs, 1);
    EXPECT_LE(tile.col_vecs, kMaxConvColVecs);
  };
  if (avx2) check(plan.tile_avx2);
  if (avx512) check(plan.tile_avx512);
}

// Geometries under the threshold keep the kernel defaults — the
// microbench cannot rank them reliably and must not slow construction
// of the many tiny engines the unit tests build.
TEST(ConvTileShapes, TinyGeometryKeepsKernelDefaults) {
  TileEnvGuard guard;
  guard.unset();
  man::util::Rng rng(5);
  Network net;
  net.add<Conv2D>(1, 2, 2, 4, 4).init_xavier(rng);  // 2 @ 3×3: 9 positions
  net.add<Dense>(18, 2).init_xavier(rng);
  FixedNetwork engine = make_engine(net, QuantSpec::bits8(),
                                    AlphabetSet::four());
  const ConvLayerPlan& plan = engine.conv_plans()[0];
  EXPECT_FALSE(plan.tiles_tuned);
  EXPECT_EQ(plan.tile_avx2.row_tile, 0);
  EXPECT_EQ(plan.tile_avx512.row_tile, 0);
}

TEST(ConvTileShapes, MalformedOverrideThrowsAtConstruction) {
  TileEnvGuard guard;
  for (const char* bad : {"9x1", "0x1", "4x3", "8", "x2", "4x", "wsx",
                          "fast", "8X2"}) {
    guard.set(bad);
    EXPECT_THROW((void)env_conv_tile_override(), std::invalid_argument)
        << "value=" << bad;
    Network net = make_wide_cnn(74);
    const ProjectionPlan projection(QuantSpec::bits8(), AlphabetSet::four(),
                                    net.num_weight_layers());
    projection.project_network(net);
    EXPECT_THROW(FixedNetwork(net, QuantSpec::bits8(),
                              LayerAlphabetPlan::uniform_asm(
                                  net.num_weight_layers(),
                                  AlphabetSet::four())),
                 std::invalid_argument)
        << "value=" << bad;
  }
}

// Every candidate's diagnostic spelling parses back to itself, so the
// CI sweep can drive MAN_CONV_TILE straight from to_string().
TEST(ConvTileShapes, CandidateSpellingsRoundTrip) {
  TileEnvGuard guard;
  EXPECT_FALSE(conv_tile_candidates().empty());
  for (const ConvTileShape& shape : conv_tile_candidates()) {
    guard.set(to_string(shape));
    const auto parsed = env_conv_tile_override();
    ASSERT_TRUE(parsed.has_value()) << to_string(shape);
    EXPECT_EQ(parsed->row_tile, shape.row_tile);
    EXPECT_EQ(parsed->col_vecs, shape.col_vecs);
    EXPECT_EQ(parsed->weight_stationary, shape.weight_stationary);
  }
  guard.set("auto");
  EXPECT_FALSE(env_conv_tile_override().has_value());
  guard.set("default");
  const auto pinned = env_conv_tile_override();
  ASSERT_TRUE(pinned.has_value());
  EXPECT_EQ(to_string(*pinned), "default");
}

}  // namespace
}  // namespace man::backend
