// Conv register tiles: each vector ISA runs one compile-time tile
// (3 rows × 2 ymm groups on AVX2, 5 rows × 2 zmm groups on AVX-512),
// so every row remainder of those tiles and every ragged output width
// must reproduce the scalar reference bit for bit through every
// backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

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

// Wide single-conv network with a LUT and a dense tail: 10 output rows
// leave a partial row tile at both ISAs' depths, and 18 output columns
// run one two-group tile at the ymm width (2×8 int32 lanes) plus a
// masked 2-lane group, and one full plus one masked zmm group.
TEST(ConvTileShapes, WideCnnMatchesScalarReference) {
  man::util::Rng rng(71);
  Network net;
  net.add<Conv2D>(1, 3, 3, 12, 20).init_xavier(rng);  // 3 @ 10×18
  net.add<ActivationLayer>(man::core::ActivationKind::kTanh);
  net.add<Dense>(540, 4).init_xavier(rng);
  const FixedNetwork engine =
      make_engine(net, QuantSpec::bits8(), AlphabetSet::four());
  ASSERT_TRUE(engine.conv_int32_lanes(0));

  man::util::Rng pixel_rng(41);
  std::vector<float> pixels(engine.input_size());
  for (float& p : pixels) {
    p = static_cast<float>(pixel_rng.next_double() * 2.0 - 1.0);
  }
  expect_backends_match_scalar(engine, pixels, "wide cnn");
}

// Ragged geometry: oh = 1..6 covers every row remainder of the 3-row
// and 5-row tiles (and one past the deeper tile), and ow = 1..34 every
// residue mod 8 and mod 16, one and two column groups, and one past
// two full zmm groups — the last column group of every row is
// lane-masked, so every width must stay bit-identical on every
// backend.
TEST(ConvTileShapes, RaggedWidthsMatchScalarReference) {
  const QuantSpec spec = QuantSpec::bits8();
  const AlphabetSet set = AlphabetSet::four();
  man::util::Rng rng(43);
  for (int oh = 1; oh <= 6; ++oh) {
    for (int ow = 1; ow <= 34; ++ow) {
      Network net;
      net.add<Conv2D>(2, 3, 3, oh + 2, ow + 2).init_xavier(rng);  // 3 @ oh×ow
      const FixedNetwork engine = make_engine(net, spec, set);
      const std::string label =
          "oh=" + std::to_string(oh) + " ow=" + std::to_string(ow);
      ASSERT_TRUE(engine.conv_int32_lanes(0)) << label;
      std::vector<float> pixels(engine.input_size());
      for (float& p : pixels) {
        p = static_cast<float>(rng.next_double() * 2.0 - 1.0);
      }
      expect_backends_match_scalar(engine, pixels, label);
    }
  }
}

}  // namespace
}  // namespace man::backend
