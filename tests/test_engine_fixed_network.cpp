// The fixed-point processing engine: bit-exactness of the ASM datapath
// against the test-side int64 oracle (engine_oracle.h) — conventional
// layers included, which run as full-alphabet ASM layers — plan
// handling, and activity statistics.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "man/apps/app_registry.h"
#include "man/engine/batch_runner.h"
#include "man/backend/kernel_backend.h"
#include "man/core/activation.h"
#include "man/core/precomputer_bank.h"
#include "man/core/quartet.h"
#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/conv2d.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/dense.h"
#include "man/nn/pool.h"
#include "man/util/rng.h"

#include "engine_oracle.h"

namespace man::engine {
namespace {

using man::core::AlphabetSet;
using man::core::MultiplierKind;
using man::data::Example;
using man::nn::ActivationLayer;
using man::nn::AvgPool2D;
using man::nn::Conv2D;
using man::nn::Dense;
using man::nn::Network;
using man::nn::ProjectionPlan;
using man::nn::QuantSpec;

Network make_mlp(std::uint64_t seed, int in = 16, int hidden = 8,
                 int out = 4) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Dense>(in, hidden).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<Dense>(hidden, out).init_xavier(rng);
  return net;
}

Network make_cnn(std::uint64_t seed) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Conv2D>(1, 3, 3, 8, 8).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<AvgPool2D>(3, 6, 6, 2);
  net.add<Dense>(27, 5).init_xavier(rng);
  return net;
}

std::vector<float> random_pixels(std::size_t n, man::util::Rng& rng) {
  std::vector<float> pixels(n);
  for (float& p : pixels) p = static_cast<float>(rng.next_double());
  return pixels;
}

/// One sample through `engine` on an explicit kernel backend.
std::vector<std::int64_t> infer_raw(const FixedNetwork& engine,
                                    const std::vector<float>& pixels,
                                    const man::backend::KernelBackend& kernel) {
  auto scratch = engine.make_scratch();
  auto stats = engine.make_stats();
  std::vector<std::int64_t> raw(engine.output_size());
  engine.infer_into(pixels, raw, stats, scratch, kernel);
  return raw;
}

// THE core engine property: with weights projected to an alphabet set,
// the ASM engine computes the conventional multiply BIT FOR BIT — all
// approximation lives in the projection, none in the datapath. Both
// engines must equal the oracle's exact Σ q(w)·x on every kernel
// backend, the scalar reference included.
class DatapathEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DatapathEquivalence, AsmMatchesExactOnProjectedWeights) {
  const auto [bits, n_alphabets] = GetParam();
  const QuantSpec spec = QuantSpec::for_bits(bits);
  const AlphabetSet set =
      AlphabetSet::first_n(static_cast<std::size_t>(n_alphabets));

  Network net = make_mlp(100 + static_cast<std::uint64_t>(bits));
  const ProjectionPlan plan(spec, set, net.num_weight_layers());
  plan.project_network(net);

  const auto conventional =
      LayerAlphabetPlan::conventional(net.num_weight_layers());
  FixedNetwork exact(net, spec, conventional);
  FixedNetwork asm_engine(
      net, spec,
      LayerAlphabetPlan::uniform_asm(net.num_weight_layers(), set));

  man::util::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pixels = random_pixels(16, rng);
    const auto expected = oracle::forward(net, spec, conventional, pixels);
    for (const auto* backend : man::backend::all_backends()) {
      for (const FixedNetwork* engine : {&asm_engine, &exact}) {
        EXPECT_EQ(infer_raw(*engine, pixels, *backend), expected)
            << "bits=" << bits << " n=" << n_alphabets
            << " backend=" << backend->name()
            << (engine == &exact ? " conventional" : " asm");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitsTimesLadder, DatapathEquivalence,
    ::testing::Combine(::testing::Values(8, 12),
                       ::testing::Values(1, 2, 4, 8)));

TEST(FixedNetwork, FullSetNeedsNoProjection) {
  // The full alphabet set supports every weight: the full-set ASM
  // engine and the conventional engine both multiply exactly on
  // *unprojected* nets.
  Network net = make_mlp(55);
  const QuantSpec spec = QuantSpec::bits8();
  const auto conventional = LayerAlphabetPlan::conventional(2);
  FixedNetwork exact(net, spec, conventional);
  FixedNetwork full(net, spec,
                    LayerAlphabetPlan::uniform_asm(2, AlphabetSet::full()));
  man::util::Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    const auto pixels = random_pixels(16, rng);
    const auto expected = oracle::forward(net, spec, conventional, pixels);
    EXPECT_EQ(exact.forward_raw(pixels), expected);
    EXPECT_EQ(full.forward_raw(pixels), expected);
  }
}

TEST(FixedNetwork, CnnPathsAgreeToo) {
  Network net = make_cnn(77);
  const QuantSpec spec = QuantSpec::bits12();
  const ProjectionPlan plan(spec, AlphabetSet::two(), 2);
  plan.project_network(net);

  const auto conventional = LayerAlphabetPlan::conventional(2);
  FixedNetwork exact(net, spec, conventional);
  FixedNetwork asm_engine(
      net, spec, LayerAlphabetPlan::uniform_asm(2, AlphabetSet::two()));
  man::util::Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    const auto pixels = random_pixels(64, rng);
    const auto expected = oracle::forward(net, spec, conventional, pixels);
    for (const auto* backend : man::backend::all_backends()) {
      EXPECT_EQ(infer_raw(asm_engine, pixels, *backend), expected)
          << "backend=" << backend->name();
      EXPECT_EQ(infer_raw(exact, pixels, *backend), expected)
          << "conventional backend=" << backend->name();
    }
  }
}

TEST(FixedNetwork, MixedPlanAppliesPerLayer) {
  Network net = make_mlp(60);
  const QuantSpec spec = QuantSpec::bits8();
  // Project layer 0 with {1}, layer 1 with {1,3,5,7} (Fig 11 style).
  const ProjectionPlan plan(spec, {AlphabetSet::man(), AlphabetSet::four()});
  plan.project_network(net);

  const LayerAlphabetPlan mixed = LayerAlphabetPlan::mixed_tail(
      2, AlphabetSet::man(), AlphabetSet::four());
  EXPECT_EQ(mixed.scheme(0).multiplier, MultiplierKind::kMan);
  EXPECT_EQ(mixed.scheme(1).multiplier, MultiplierKind::kAsm);

  FixedNetwork mixed_engine(net, spec, mixed);
  man::util::Rng rng(10);
  const auto pixels = random_pixels(16, rng);
  EXPECT_EQ(mixed_engine.forward_raw(pixels),
            oracle::forward(net, spec, LayerAlphabetPlan::conventional(2),
                            pixels));
}

TEST(FixedNetwork, PlanSizeMustMatchNetwork) {
  Network net = make_mlp(61);
  EXPECT_THROW(FixedNetwork(net, QuantSpec::bits8(),
                            LayerAlphabetPlan::conventional(3)),
               std::invalid_argument);
}

// Staging checks every input against the activation format's raw
// range, so a format wider than the engine's cap of 2^20 raw values is
// rejected at construction (the ASM and the exact plan alike: every
// engine carries the window).
TEST(FixedNetwork, RejectsActivationFormatWiderThanTheStagingTable) {
  QuantSpec spec = QuantSpec::bits8();
  spec.activation_format = man::fixed::QFormat(24, 8);  // 2^24 - 1 values
  Network net = make_mlp(61);
  EXPECT_THROW(FixedNetwork(net, spec,
                            LayerAlphabetPlan::uniform_asm(
                                2, AlphabetSet::full())),
               std::invalid_argument);
  EXPECT_THROW(FixedNetwork(net, spec, LayerAlphabetPlan::conventional(2)),
               std::invalid_argument);
}

TEST(FixedNetwork, StatsCountMacsAndBankActivations) {
  Network net = make_mlp(62);  // 16->8->4
  const QuantSpec spec = QuantSpec::bits8();
  const ProjectionPlan plan(spec, AlphabetSet::two(), 2);
  plan.project_network(net);
  FixedNetwork engine(net, spec,
                      LayerAlphabetPlan::uniform_asm(2, AlphabetSet::two()),
                      /*lanes=*/4);
  man::util::Rng rng(11);
  (void)engine.predict(random_pixels(16, rng));

  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.inferences, 1u);
  ASSERT_EQ(stats.layers.size(), 2u);
  EXPECT_EQ(stats.layers[0].macs, 16u * 8);
  EXPECT_EQ(stats.layers[1].macs, 8u * 4);
  EXPECT_EQ(stats.total_macs(), 16u * 8 + 8 * 4);
  // Layer 0: 8 neurons / 4 lanes = 2 groups × 16 inputs = 32 firings.
  EXPECT_EQ(stats.layers[0].bank_activations, 32u);
  // Layer 1: 4 neurons / 4 lanes = 1 group × 8 inputs.
  EXPECT_EQ(stats.layers[1].bank_activations, 8u);
  // {1,3} bank has 1 adder per firing.
  EXPECT_EQ(stats.layers[0].ops.precomputer_adds, 32u);
  EXPECT_GT(stats.layers[0].ops.selects, 0u);

  engine.reset_stats();
  EXPECT_EQ(engine.stats().inferences, 0u);
  EXPECT_EQ(engine.stats().total_macs(), 0u);
}

TEST(FixedNetwork, ConventionalEngineHasNoBankActivity) {
  Network net = make_mlp(63);
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::conventional(2));
  man::util::Rng rng(12);
  (void)engine.predict(random_pixels(16, rng));
  EXPECT_EQ(engine.stats().layers[0].bank_activations, 0u);
  EXPECT_EQ(engine.stats().layers[0].ops.selects, 0u);
  EXPECT_GT(engine.stats().layers[0].ops.adds, 0u);  // accumulator adds
}

// Conv stages must price select/shift/add activity exactly like the
// dense path: per-inference counts derived from the compiled schedule
// (each weight fires once per output position), so Fig 8/9 energy
// replays account CNN stages correctly. Recomputed here from the
// oracle's quantized weights of the same projected network — one step
// per nonzero quartet, one negate per negative weight — and checked
// against the ASM plan's terms and the recorded LayerStats.
TEST(FixedNetwork, ConvLayerStatsPriceTheCompiledSchedule) {
  Network net = make_cnn(81);
  const QuantSpec spec = QuantSpec::bits8();
  const AlphabetSet set = AlphabetSet::four();
  const ProjectionPlan plan(spec, set, net.num_weight_layers());
  plan.project_network(net);
  FixedNetwork engine(net, spec,
                      LayerAlphabetPlan::uniform_asm(2, set));
  auto& conv = dynamic_cast<Conv2D&>(net.layer(0));
  const auto weights =
      oracle::int_layer(conv.weights(), conv.biases(), spec, LayerScheme{})
          .weights;

  man::util::Rng rng(19);
  (void)engine.predict(random_pixels(engine.input_size(), rng));

  const auto& conv_plan = engine.conv_plans().at(0);
  const std::uint64_t positions = conv_plan.positions();
  const std::uint64_t macs =
      static_cast<std::uint64_t>(conv_plan.oc) * positions * conv_plan.cols;
  ASSERT_EQ(weights.size(), macs / positions);
  const man::core::QuartetLayout layout(spec.weight_format.total_bits());
  man::core::OpCounts expected;
  std::uint64_t terms = 0;
  for (const std::int64_t w : weights) {
    const auto sm =
        man::core::to_sign_magnitude(static_cast<std::int32_t>(w), layout);
    std::uint64_t steps = 0;
    for (int q = 0; q < layout.num_quartets(); ++q) {
      const int mask = (1 << layout.quartet_width(q)) - 1;
      if ((sm.magnitude >> layout.quartet_shift(q)) & mask) ++steps;
    }
    terms += steps;
    expected.selects += steps * positions;
    expected.shifts += steps * positions;
    if (steps > 1) expected.adds += (steps - 1) * positions;
    if (sm.negative) expected.negates += positions;
  }
  EXPECT_EQ(conv_plan.idx.size(), terms);
  expected.adds += macs;  // accumulator adds
  const std::uint64_t groups =
      (static_cast<std::uint64_t>(conv_plan.oc) + engine.lanes() - 1) /
      engine.lanes();
  const std::uint64_t bank_activations =
      groups * (macs / static_cast<std::uint64_t>(conv_plan.oc));
  expected.precomputer_adds =
      bank_activations * static_cast<std::uint64_t>(
                             man::core::PrecomputerBank(set).adder_count());

  const LayerStats& conv_stats = engine.stats().layers.at(0);
  EXPECT_EQ(conv_stats.macs, macs);
  EXPECT_EQ(conv_stats.bank_activations, bank_activations);
  EXPECT_EQ(conv_stats.ops.selects, expected.selects);
  EXPECT_EQ(conv_stats.ops.shifts, expected.shifts);
  EXPECT_EQ(conv_stats.ops.adds, expected.adds);
  EXPECT_EQ(conv_stats.ops.negates, expected.negates);
  EXPECT_EQ(conv_stats.ops.precomputer_adds, expected.precomputer_adds);
  EXPECT_GT(conv_stats.ops.selects, 0u);
}

TEST(FixedNetwork, MacsPerInferenceStatic) {
  Network net = make_cnn(78);
  FixedNetwork engine(net, QuantSpec::bits12(),
                      LayerAlphabetPlan::conventional(2));
  const auto macs = engine.macs_per_inference();
  ASSERT_EQ(macs.size(), 2u);
  EXPECT_EQ(macs[0], 3ull * 6 * 6 * 1 * 3 * 3);  // conv
  EXPECT_EQ(macs[1], 27ull * 5);                 // dense
}

TEST(FixedNetwork, EvaluateComputesAccuracy) {
  Network net = make_mlp(64, 4, 6, 2);
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::conventional(2));
  // Build a tiny labelled set from the engine's own predictions: the
  // accuracy against itself must be 1.0.
  man::util::Rng rng(13);
  std::vector<Example> examples;
  for (int i = 0; i < 10; ++i) {
    Example ex;
    ex.pixels = random_pixels(4, rng);
    ex.label = engine.predict(ex.pixels);
    examples.push_back(ex);
  }
  EXPECT_EQ(engine.evaluate(examples), 1.0);
}

TEST(FixedNetwork, RejectsWrongInputSize) {
  Network net = make_mlp(65);
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::conventional(2));
  const std::vector<float> too_small(7, 0.5f);
  EXPECT_THROW((void)engine.predict(too_small), std::invalid_argument);
}

// ---------------------------------------------- int32 tile proof boundary

constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();

/// A hand-built MAN ({1}) schedule of two rows over activations
/// |x| ≤ X = 1 (boundary_spec): row 0 has one single-step weight per
/// shift 0..30, negative at odd shifts, so its bound Σ X·2^shift is
/// exactly INT32_MAX. With `over`, one more single-step weight at
/// shift 0 puts the plan one unit past the proof. Row 1 is small.
struct BoundarySchedule {
  int cols = 0;
  std::vector<man::backend::AsmWeight> weights;  ///< 2 rows × cols
  std::vector<man::backend::AsmStep> steps;
  std::vector<bool> negative;  ///< row 0's weight signs, per column
};

/// The boundary plans' format: 2-bit activations, so the staging
/// window is [-1, 1] and X = 1 — the only X that divides INT32_MAX =
/// 2^31 − 1, a prime.
QuantSpec boundary_spec() {
  QuantSpec spec = QuantSpec::bits8();
  spec.activation_format = man::fixed::QFormat(2, 1);
  return spec;
}

BoundarySchedule boundary_schedule(bool over) {
  using man::backend::AsmStep;
  using man::backend::AsmWeight;
  BoundarySchedule out;
  out.cols = over ? 32 : 31;
  const auto add_weight = [&](bool negative, int step_count,
                              std::uint8_t shift) {
    AsmWeight w;
    w.step_begin = static_cast<std::uint32_t>(out.steps.size());
    w.step_count = static_cast<std::uint8_t>(step_count);
    w.negative = negative;
    out.weights.push_back(w);
    if (step_count > 0) out.steps.push_back(AsmStep{0, shift});
  };
  for (std::uint8_t shift = 0; shift <= 30; ++shift) {
    add_weight(shift % 2 == 1, 1, shift);
  }
  if (over) add_weight(false, 1, 0);
  for (const AsmWeight& w : out.weights) out.negative.push_back(w.negative);
  for (int c = 0; c < out.cols; ++c) add_weight(c % 3 == 0, c % 2, 1);  // row 1
  return out;
}

/// The boundary schedule as a dense plan over the spec's window.
struct BoundaryPlan {
  man::backend::DenseLayerPlan plan;
  std::vector<bool> negative;  ///< row 0's weight signs, per column
};

BoundaryPlan boundary_plan(bool over) {
  const QuantSpec spec = boundary_spec();
  BoundarySchedule schedule = boundary_schedule(over);
  BoundaryPlan out;
  out.negative = schedule.negative;
  out.plan = man::backend::DenseLayerPlan::build_asm(
      2, schedule.cols, 1, std::move(schedule.weights),
      std::move(schedule.steps), {5, -3});
  out.plan.in_min_raw = spec.activation_format.min_raw();
  out.plan.in_max_raw = spec.activation_format.max_raw();
  return out;
}

CompiledSynapse man_synapse(const std::string& name) {
  CompiledSynapse synapse;
  synapse.scheme.multiplier = MultiplierKind::kMan;
  synapse.name = name;
  return synapse;
}

/// The boundary plan alone, or followed by a sigmoid LUT and a small
/// MAN dense stage (2 → 3) that always fits.
FixedNetwork boundary_engine(const BoundaryPlan& boundary, bool tail) {
  const QuantSpec spec = boundary_spec();
  CompiledModel model;
  model.spec = spec;
  const auto& head = boundary.plan;
  model.stages.emplace_back(
      CompiledDenseStage{head.cols, head.rows, man_synapse("boundary")});
  std::vector<man::backend::DenseLayerPlan> plans{head};
  if (tail) {
    model.stages.emplace_back(
        CompiledLutStage{man::core::ActivationKind::kSigmoid});
    model.stages.emplace_back(CompiledDenseStage{2, 3, man_synapse("tail")});
    std::vector<man::backend::AsmWeight> weights(6);
    std::vector<man::backend::AsmStep> steps;
    for (std::uint8_t w = 0; w < 6; ++w) {
      weights[w].step_begin = w;
      weights[w].step_count = 1;
      weights[w].negative = w % 2 == 1;
      steps.push_back(man::backend::AsmStep{0, w});
    }
    plans.push_back(man::backend::DenseLayerPlan::build_asm(
        3, 2, 1, std::move(weights), std::move(steps), {1, 2, 3}));
    plans.back().in_min_raw = head.in_min_raw;
    plans.back().in_max_raw = head.in_max_raw;
  }
  return FixedNetwork(model, std::move(plans), {}, nullptr);
}

/// 2·kDenseTile + 3 samples: sample 0 drives row 0's kernel sum to
/// −INT32_MAX (x = −X under positive weights, +X under negative ones),
/// sample 1 to the mirror image, the rest random over the window.
std::vector<float> boundary_pixels(const BoundaryPlan& boundary) {
  const std::size_t cols = boundary.negative.size();
  man::util::Rng rng(808);
  std::vector<float> pixels;
  for (int s = 0; s < 2 * man::backend::kDenseTile + 3; ++s) {
    for (std::size_t c = 0; c < cols; ++c) {
      const float edge = boundary.negative[c] ? 2.0f : -2.0f;  // saturates
      float pixel = static_cast<float>(rng.next_double() * 2 - 1);
      if (s == 0) pixel = edge;
      if (s == 1) pixel = -edge;
      pixels.push_back(pixel);
    }
  }
  return pixels;
}

/// infer_batch on every backend equals per-sample scalar infer_into.
std::vector<std::int64_t> expect_batch_matches_scalar(
    const FixedNetwork& engine, const std::vector<float>& pixels) {
  const std::size_t in = engine.input_size();
  const std::size_t out = engine.output_size();
  const std::size_t count = pixels.size() / in;
  const auto& scalar =
      man::backend::backend_for(man::backend::BackendKind::kScalar);
  std::vector<std::int64_t> expected(count * out);
  const std::span<const float> all(pixels);
  const std::span<std::int64_t> rows(expected);
  auto scratch = engine.make_scratch();
  auto stats = engine.make_stats();
  for (std::size_t s = 0; s < count; ++s) {
    engine.infer_into(all.subspan(s * in, in), rows.subspan(s * out, out),
                      stats, scratch, scalar);
  }
  for (const auto* backend : man::backend::all_backends()) {
    std::vector<std::int64_t> batch(expected.size());
    engine.infer_batch(pixels, batch, stats, scratch, *backend);
    EXPECT_EQ(batch, expected) << "backend=" << backend->name();
  }
  return expected;
}

// A plan whose worst row reaches exactly INT32_MAX fits: it tiles, and
// with activations on the window's edges the int32 lanes reach
// −INT32_MAX bit-identically to the int64 scalar reference.
TEST(Int32TileProof, PlanAtInt32MaxTiles) {
  const BoundaryPlan boundary = boundary_plan(false);
  const auto alphabets = AlphabetSet::man().alphabets();
  ASSERT_EQ(man::backend::int32_row_bound(boundary.plan, alphabets),
            kInt32Max);
  const auto pixels = boundary_pixels(boundary);
  const FixedNetwork alone = boundary_engine(boundary, false);
  EXPECT_EQ(alone.tile_begin(), 0u);
  const auto raw = expect_batch_matches_scalar(alone, pixels);
  // Row 0 of samples 0 and 1: bias 5 plus a kernel sum of ∓INT32_MAX.
  EXPECT_EQ(raw[0], 5 - kInt32Max);
  EXPECT_EQ(raw[2], 5 + kInt32Max);
  const FixedNetwork tailed = boundary_engine(boundary, true);
  EXPECT_EQ(tailed.tile_begin(), 0u);
  expect_batch_matches_scalar(tailed, pixels);
}

// One unit over: the plan stays on the per-sample int64 kernels, the
// tile starts past it (at the tail stage that fits), and outputs still
// match the scalar reference.
TEST(Int32TileProof, PlanOneUnitOverRunsPerSample) {
  const BoundaryPlan boundary = boundary_plan(true);
  const auto alphabets = AlphabetSet::man().alphabets();
  ASSERT_EQ(man::backend::int32_row_bound(boundary.plan, alphabets),
            man::backend::kInt32RowOverflow);
  const auto pixels = boundary_pixels(boundary);
  const FixedNetwork alone = boundary_engine(boundary, false);
  EXPECT_EQ(alone.tile_begin(), 1u);  // no tile
  expect_batch_matches_scalar(alone, pixels);
  const FixedNetwork tailed = boundary_engine(boundary, true);
  EXPECT_EQ(tailed.tile_begin(), 2u);
  expect_batch_matches_scalar(tailed, pixels);
}

// The proof bounds a stage's inputs by the staging window, which raw
// accumulators are not in: a dense stage fed straight from another
// dense stage never tiles, and the batch still matches the scalar
// reference with large 12-bit weights whose second-stage multiples
// leave int32.
TEST(Int32TileProof, DenseFedRawAccumulatorsRunsPerSample) {
  man::util::Rng rng(77);
  Network net;
  for (auto* dense : {&net.add<Dense>(16, 8), &net.add<Dense>(8, 4)}) {
    for (float& w : dense->weights()) {
      w = rng.next_double() < 0.5 ? -1.5f : 1.5f;
    }
  }
  const QuantSpec spec = QuantSpec::bits12();
  const AlphabetSet& set = AlphabetSet::full();
  const FixedNetwork engine(net, spec, LayerAlphabetPlan::uniform_asm(2, set));
  EXPECT_EQ(engine.tile_begin(), 2u);
  std::vector<float> pixels(35 * engine.input_size());
  for (float& p : pixels) p = rng.next_double() < 0.5 ? -2.0f : 2.0f;
  expect_batch_matches_scalar(engine, pixels);
}

// ------------------------------------------------ int16 tile proof edge

/// A MAN engine of one 5 → 2 dense stage over `bits`-bit activations
/// (window ±(2^(bits−1) − 1)): single-step weights at shifts 0–2 with
/// mixed signs, so a row's int32 bound is small, and row 0's five
/// terms are one group — five int16 chunks when C = 1.
FixedNetwork int16_edge_engine(int bits) {
  QuantSpec spec = QuantSpec::bits8();
  spec.activation_format = man::fixed::QFormat(bits, bits - 1);
  CompiledModel model;
  model.spec = spec;
  model.stages.emplace_back(CompiledDenseStage{5, 2, man_synapse("edge")});
  std::vector<man::backend::AsmWeight> weights(10);
  std::vector<man::backend::AsmStep> steps;
  for (std::uint8_t w = 0; w < 10; ++w) {
    weights[w].step_begin = w;
    weights[w].step_count = 1;
    weights[w].negative = w >= 5 && w % 2 == 1;
    steps.push_back(man::backend::AsmStep{
        0, static_cast<std::uint8_t>(w < 5 ? 0 : w % 3)});
  }
  std::vector<man::backend::DenseLayerPlan> plans{
      man::backend::DenseLayerPlan::build_asm(2, 5, 1, std::move(weights),
                                              std::move(steps), {7, -9})};
  plans[0].in_min_raw = spec.activation_format.min_raw();
  plans[0].in_max_raw = spec.activation_format.max_raw();
  return FixedNetwork(model, std::move(plans), {}, nullptr);
}

/// 2·kDenseTile + 3 samples of 5 pixels: sample 0 at the window's low
/// edge, sample 1 at its high edge (both past the clamp), the rest
/// random over it with every fourth pixel saturated.
std::vector<float> int16_edge_pixels() {
  man::util::Rng rng(1616);
  std::vector<float> pixels;
  for (int s = 0; s < 2 * man::backend::kDenseTile + 3; ++s) {
    for (int c = 0; c < 5; ++c) {
      float pixel = static_cast<float>(rng.next_double() * 2 - 1);
      if (s == 0 || (s > 1 && c % 4 == 0 && pixel < 0)) pixel = -2.0f;
      if (s == 1 || (s > 1 && c % 4 == 0 && pixel >= 0)) pixel = 2.0f;
      pixels.push_back(pixel);
    }
  }
  return pixels;
}

// The int16 slot proof at its edge. The tile stages each input itself,
// and over 16-bit activations (window ±32767) every input is at most
// X = 32767, exactly INT16_MAX: C = 1, the stage tiles, and the
// saturated samples' rows match the int64 scalar reference on every
// backend.
TEST(Int16TileProof, SlotAtInt16MaxTiles) {
  const FixedNetwork engine = int16_edge_engine(16);
  ASSERT_EQ(engine.plans()[0].in_max_raw, 32767);
  EXPECT_EQ(man::backend::int16_tile_chunk(engine.plans()[0]), 1);
  EXPECT_EQ(engine.tile_begin(), 0u);
  const auto raw = expect_batch_matches_scalar(engine, int16_edge_pixels());
  // Row 0 of samples 0 and 1: bias 7 plus five terms of ∓32767.
  EXPECT_EQ(raw[0], 7 - 5 * 32767);
  EXPECT_EQ(raw[2], 7 + 5 * 32767);
}

// One unit over: a window whose X is INT16_MAX + 1 leaves int16 (the
// proof returns 0), whatever the alphabets, and each X up to it gives
// C = ⌊INT16_MAX / X⌋. The nearest engine window one unit over is
// 17-bit activations (X = 65535), whose stage runs per sample and
// still matches the scalar reference.
TEST(Int16TileProof, SlotOneUnitOverRunsPerSample) {
  man::backend::DenseLayerPlan plan = int16_edge_engine(16).plans()[0];
  plan.in_max_raw = 32768;
  EXPECT_EQ(man::backend::int16_tile_chunk(plan), 0);
  plan.in_max_raw = 32767;
  plan.in_min_raw = -32768;
  EXPECT_EQ(man::backend::int16_tile_chunk(plan), 0);
  for (const std::int64_t x : {std::int64_t{1}, std::int64_t{255},
                               std::int64_t{4681}, std::int64_t{32766},
                               std::int64_t{32767}}) {
    plan.in_min_raw = -x;
    plan.in_max_raw = x;
    EXPECT_EQ(man::backend::int16_tile_chunk(plan), 32767 / x) << "X=" << x;
  }
  const FixedNetwork engine = int16_edge_engine(17);
  EXPECT_EQ(man::backend::int16_tile_chunk(engine.plans()[0]), 0);
  EXPECT_EQ(engine.tile_begin(), 1u);  // no tile
  expect_batch_matches_scalar(engine, int16_edge_pixels());
}

// Wide activation formats tile: since the tile stages x and applies
// the alphabet to each group's sum, only X ≤ INT16_MAX must hold, not
// X · max a. An ASM-4 MLP over 14-bit activations (X = 8191, where
// 8191 · 7 left int16) and a conventional one over 13-bit activations
// (X = 4095, where 4095 · 15 did) pass the int32 row bound, form the
// tile at their first stage, and match the scalar reference on every
// backend and the test-side oracle.
TEST(Int16TileProof, WideActivationFormatsTile) {
  for (const bool conventional : {false, true}) {
    const int bits = conventional ? 13 : 14;
    SCOPED_TRACE(std::to_string(bits) + "-bit activations, " +
                 (conventional ? "conventional" : "ASM 4"));
    QuantSpec spec = QuantSpec::bits8();
    spec.activation_format = man::fixed::QFormat(bits, bits - 1);
    man::util::Rng rng(1400 + static_cast<std::uint64_t>(bits));
    Network net;
    net.add<Dense>(24, 12).init_xavier(rng);
    net.add<ActivationLayer>(man::core::ActivationKind::kTanh);
    net.add<Dense>(12, 5).init_xavier(rng);
    const AlphabetSet& set =
        conventional ? AlphabetSet::full() : AlphabetSet::four();
    if (!conventional) ProjectionPlan(spec, set, 2).project_network(net);
    const LayerAlphabetPlan schemes =
        conventional ? LayerAlphabetPlan::conventional(2)
                     : LayerAlphabetPlan::uniform_asm(2, set);
    const FixedNetwork engine(net, spec, schemes);
    const std::int64_t x = (std::int64_t{1} << (bits - 1)) - 1;
    for (const auto& plan : engine.plans()) {
      EXPECT_LT(man::backend::int32_row_bound(plan, set.alphabets()),
                man::backend::kInt32RowOverflow);
      EXPECT_EQ(man::backend::int16_tile_chunk(plan), 32767 / x);
    }
    EXPECT_EQ(engine.tile_begin(), 0u);
    // Samples 0 and 1 saturate every pixel; the rest are random, some
    // past the clamp.
    std::vector<float> pixels((2 * man::backend::kDenseTile + 3) *
                              engine.input_size());
    for (std::size_t i = 0; i < pixels.size(); ++i) {
      pixels[i] = i < engine.input_size()       ? 2.0f
                  : i < 2 * engine.input_size() ? -2.0f
                                                : static_cast<float>(
                                                      rng.next_double_in(
                                                          -1.25, 1.25));
    }
    const auto raw = expect_batch_matches_scalar(engine, pixels);
    EXPECT_EQ(raw, oracle::forward_batch(net, spec, schemes, pixels,
                                         engine.input_size()));
  }
}

// ------------------------------------------- int32 conv proof boundary

/// The boundary schedule as a 1×1 MAN conv over `cols` channels of a
/// 3 × 19 image: filter 0's column c reads channel c at every output
/// position, so every position of filter 0 has the dense row's bound.
/// 19 columns leave a ragged last column group at both vector widths.
constexpr int kBoundaryIh = 3;
constexpr int kBoundaryIw = 19;

struct BoundaryConv {
  man::backend::ConvLayerPlan plan;
  std::vector<bool> negative;  ///< filter 0's weight signs, per channel
};

BoundaryConv boundary_conv(bool over) {
  const QuantSpec spec = boundary_spec();
  BoundarySchedule schedule = boundary_schedule(over);
  BoundaryConv out;
  out.negative = schedule.negative;
  out.plan = man::backend::ConvLayerPlan::build_asm(
      2, schedule.cols, 1, kBoundaryIh, kBoundaryIw, 1,
      std::move(schedule.weights), std::move(schedule.steps), {5, -3});
  out.plan.in_min_raw = spec.activation_format.min_raw();
  out.plan.in_max_raw = spec.activation_format.max_raw();
  return out;
}

FixedNetwork boundary_conv_engine(const BoundaryConv& boundary) {
  CompiledModel model;
  model.spec = boundary_spec();
  const auto& plan = boundary.plan;
  model.stages.emplace_back(CompiledConvStage{
      plan.ic, plan.oc, plan.kernel, plan.ih, plan.iw, plan.oh, plan.ow,
      man_synapse("boundary")});
  return FixedNetwork(model, {}, {plan}, nullptr);
}

/// 5 samples: sample 0 drives every position of filter 0 to a kernel
/// sum of −INT32_MAX (each channel on the window edge that makes its
/// product −X·2^shift), sample 1 to the mirror image, the rest random
/// over the window.
std::vector<float> boundary_conv_pixels(const BoundaryConv& boundary) {
  constexpr int kPositions = kBoundaryIh * kBoundaryIw;
  man::util::Rng rng(809);
  std::vector<float> pixels;
  for (int s = 0; s < 5; ++s) {
    for (const bool negative : boundary.negative) {
      const float edge = negative ? 2.0f : -2.0f;  // saturates
      for (int p = 0; p < kPositions; ++p) {
        float pixel = static_cast<float>(rng.next_double() * 2 - 1);
        if (s == 0) pixel = edge;
        if (s == 1) pixel = -edge;
        pixels.push_back(pixel);
      }
    }
  }
  return pixels;
}

// A conv plan whose worst row reaches exactly INT32_MAX fits: it runs
// int32 lanes, and with window-edge inputs every position of filter 0
// reaches −INT32_MAX bit-identically to the scalar reference on every
// backend.
TEST(Int32ConvProof, PlanAtInt32MaxTakesInt32Lanes) {
  const BoundaryConv boundary = boundary_conv(false);
  const auto alphabets = AlphabetSet::man().alphabets();
  ASSERT_EQ(man::backend::int32_row_bound(boundary.plan, alphabets),
            kInt32Max);
  const FixedNetwork engine = boundary_conv_engine(boundary);
  EXPECT_TRUE(engine.conv_int32_lanes(0));
  const auto raw =
      expect_batch_matches_scalar(engine, boundary_conv_pixels(boundary));
  // Filter 0 of samples 0 and 1: bias 5 plus a kernel sum of
  // ∓INT32_MAX.
  const std::size_t positions = boundary.plan.positions();
  for (std::size_t p = 0; p < positions; ++p) {
    EXPECT_EQ(raw[p], 5 - kInt32Max) << "position " << p;
    EXPECT_EQ(raw[engine.output_size() + p], 5 + kInt32Max)
        << "position " << p;
  }
}

// One unit over: the plan runs int64 lanes, and outputs still match
// the scalar reference.
TEST(Int32ConvProof, PlanOneUnitOverRunsInt64) {
  const BoundaryConv boundary = boundary_conv(true);
  const auto alphabets = AlphabetSet::man().alphabets();
  ASSERT_EQ(man::backend::int32_row_bound(boundary.plan, alphabets),
            man::backend::kInt32RowOverflow);
  const FixedNetwork engine = boundary_conv_engine(boundary);
  EXPECT_FALSE(engine.conv_int32_lanes(0));
  expect_batch_matches_scalar(engine, boundary_conv_pixels(boundary));
}

// The proof bounds a stage's inputs by the staging window: a conv fed
// straight from another conv runs int64 lanes, and the batch still
// matches the scalar reference with large 12-bit weights whose
// second-stage multiples leave int32. The first conv, fed pixels,
// takes int32 lanes.
TEST(Int32ConvProof, ConvFedRawAccumulatorsRunsInt64) {
  man::util::Rng rng(78);
  Network net;
  for (auto* conv : {&net.add<Conv2D>(1, 2, 3, 8, 9),
                     &net.add<Conv2D>(2, 2, 3, 6, 7)}) {
    for (float& w : conv->weights()) {
      w = rng.next_double() < 0.5 ? -1.5f : 1.5f;
    }
  }
  const FixedNetwork engine(net, QuantSpec::bits12(),
                            LayerAlphabetPlan::uniform_asm(
                                2, AlphabetSet::full()));
  EXPECT_TRUE(engine.conv_int32_lanes(0));
  EXPECT_FALSE(engine.conv_int32_lanes(1));
  std::vector<float> pixels(9 * engine.input_size());
  for (float& p : pixels) p = rng.next_double() < 0.5 ? -2.0f : 2.0f;
  expect_batch_matches_scalar(engine, pixels);
}

// Bit identity cannot see a conv stage silently falling back to int64
// lanes, only its speed can: both LeNet conv stages must run int32
// lanes at every ASM alphabet count.
TEST(Int32ConvProof, LeNetConvStagesTakeInt32Lanes) {
  const auto& app = man::apps::get_app(man::apps::AppId::kDigitCnn12);
  for (const std::size_t alphabets : {1u, 2u, 4u, 8u}) {
    Network net = app.build_network(/*seed=*/21);
    const AlphabetSet set = AlphabetSet::first_n(alphabets);
    const ProjectionPlan projection(app.quant(), set,
                                    net.num_weight_layers());
    projection.project_network(net);
    const FixedNetwork engine(
        net, app.quant(),
        LayerAlphabetPlan::uniform_asm(net.num_weight_layers(), set));
    ASSERT_EQ(engine.conv_plans().size(), 2u);
    EXPECT_TRUE(engine.conv_int32_lanes(0)) << "ASM-" << alphabets;
    EXPECT_TRUE(engine.conv_int32_lanes(1)) << "ASM-" << alphabets;
  }
}

// ------------------------------------------------ every route vs oracle

/// conv → tanh → pool → conv → tanh → pool → dense → sigmoid → dense,
/// both pools `window` wide. `wide`: a 16-bit activation format and
/// ±1.5 second-conv weights over 6 channels, whose int32 row bound
/// (54 terms × 1536 × 32767) forces that conv onto int64 lanes.
struct PooledCnn {
  Network net;
  QuantSpec spec;
};

PooledCnn make_pooled_cnn(int window, bool wide, std::uint64_t seed) {
  man::util::Rng rng(seed);
  const int h2 = 2 * window;            // second conv's output rows
  const int w2 = 3 * window;            // and columns
  const int h1 = window * (h2 + 2);     // first conv's output rows
  const int w1 = window * (w2 + 2);     // and columns
  const int c1 = wide ? 6 : 2;
  const int c2 = 3;
  PooledCnn out;
  out.spec = QuantSpec::bits12();
  if (wide) out.spec.activation_format = man::fixed::QFormat(16, 8);
  Network& net = out.net;
  net.add<Conv2D>(1, c1, 3, h1 + 2, w1 + 2).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kTanh);
  net.add<AvgPool2D>(c1, h1, w1, window);
  auto& conv2 = net.add<Conv2D>(c1, c2, 3, h2 + 2, w2 + 2);
  conv2.init_xavier(rng);
  if (wide) {
    for (float& w : conv2.weights()) {
      w = rng.next_double() < 0.5 ? -1.5f : 1.5f;
    }
  }
  net.add<ActivationLayer>(man::core::ActivationKind::kTanh);
  net.add<AvgPool2D>(c2, h2, w2, window);
  net.add<Dense>(c2 * 2 * 3, 6).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<Dense>(6, 4).init_xavier(rng);
  return out;
}

/// 2·kDenseTile + 3 random samples over [-1, 1) through the oracle,
/// then through every route into `engine` (compiled from `net` under
/// `schemes`) on every backend: infer_into per sample, infer_batch
/// over full tiles plus the remainder, and a two-worker BatchRunner.
/// Returns the oracle's count of negative half-way pool sums.
std::size_t expect_every_route_matches_oracle(const FixedNetwork& engine,
                                              Network& net,
                                              const LayerAlphabetPlan& schemes,
                                              std::uint64_t seed,
                                              const std::string& label) {
  const std::size_t in = engine.input_size();
  const std::size_t out = engine.output_size();
  const std::size_t count = 2 * man::backend::kDenseTile + 3;
  man::util::Rng rng(seed);
  std::vector<float> pixels(count * in);
  for (float& p : pixels) p = static_cast<float>(rng.next_double() * 2 - 1);
  const std::span<const float> all(pixels);

  std::size_t halves = 0;
  const std::vector<std::int64_t> expected = oracle::forward_batch(
      net, engine.quant_spec(), schemes, pixels, in, &halves);
  EXPECT_EQ(expected.size(), count * out) << label;
  for (const auto* backend : man::backend::all_backends()) {
    const std::string where = label + " backend=" + backend->name();
    auto scratch = engine.make_scratch();
    auto stats = engine.make_stats();
    std::vector<std::int64_t> per_sample(expected.size());
    const std::span<std::int64_t> rows(per_sample);
    for (std::size_t s = 0; s < count; ++s) {
      engine.infer_into(all.subspan(s * in, in), rows.subspan(s * out, out),
                        stats, scratch, *backend);
    }
    EXPECT_EQ(per_sample, expected) << where << " infer_into";

    std::vector<std::int64_t> batch(expected.size());
    engine.infer_batch(pixels, batch, stats, scratch, *backend);
    EXPECT_EQ(batch, expected) << where << " infer_batch";

    BatchRunner runner(engine,
                       BatchOptions{.workers = 2, .backend = backend->kind()});
    std::vector<std::int64_t> run(expected.size());
    runner.run(pixels, run);
    EXPECT_EQ(run, expected) << where << " BatchRunner";
  }
  return halves;
}

// The engine fuses each boundary's LUT, pool and staging into one
// sweep; the oracle runs them as the separate passes they stand for.
// Every route into the engine — infer_into per sample, infer_batch
// over full tiles plus a remainder, and a two-worker BatchRunner —
// must match it on every backend, at pool windows 1 to 4 (shifted and
// divided rounding), under ASM and conventional schemes, on int32 and
// int64 conv lanes, and over pool sums that are negative exact halves.
class FusedEpilogue
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(FusedEpilogue, MatchesTheOracle) {
  const auto [window, asm_scheme, wide] = GetParam();
  PooledCnn cnn = make_pooled_cnn(
      window, wide, 500 + static_cast<std::uint64_t>(window));
  const LayerAlphabetPlan schemes =
      asm_scheme ? LayerAlphabetPlan::uniform_asm(4, AlphabetSet::four())
                 : LayerAlphabetPlan::conventional(4);
  const FixedNetwork engine(cnn.net, cnn.spec, schemes);
  EXPECT_TRUE(engine.conv_int32_lanes(0));
  EXPECT_EQ(engine.conv_int32_lanes(1), !wide);
  // The first dense stage, under 16-bit activations too: the tile
  // stages each input itself, and ±32767 fits its int16 slots (C = 1).
  EXPECT_EQ(engine.tile_begin(), 6u);

  const std::size_t halves = expect_every_route_matches_oracle(
      engine, cnn.net, schemes, 600 + static_cast<std::uint64_t>(window),
      "window " + std::to_string(window));
  if (window % 2 == 0) EXPECT_GT(halves, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    WindowsSchemesLanes, FusedEpilogue,
    ::testing::Combine(::testing::Values(1, 2, 3, 4), ::testing::Bool(),
                       ::testing::Bool()));

// Boundaries the apps never build still run as fused sweeps: a pool
// and a LUT on the input pixels, two pools and three LUTs between two
// synapse stages (several segments handed on through int64 hops), a
// dense stage fed raw accumulators (staged from its bank), a LUT or a
// pool in front of a batch tile that starts at the first stage (the
// LUT through the whole-tile pixel sweep, the pool sample by sample),
// two LUTs inside the batch tile, and a LUT after the last stage.
TEST(FusedEpilogue, UnusualChainsMatchTheOracle) {
  using man::core::ActivationKind;
  man::util::Rng rng(700);
  Network pooled;
  pooled.add<AvgPool2D>(1, 12, 12, 2);
  pooled.add<ActivationLayer>(ActivationKind::kTanh);
  pooled.add<Conv2D>(1, 2, 3, 6, 6).init_xavier(rng);
  pooled.add<AvgPool2D>(2, 4, 4, 2);
  pooled.add<ActivationLayer>(ActivationKind::kTanh);
  pooled.add<AvgPool2D>(2, 2, 2, 2);
  pooled.add<ActivationLayer>(ActivationKind::kSigmoid);
  pooled.add<ActivationLayer>(ActivationKind::kTanh);
  pooled.add<Dense>(2, 5).init_xavier(rng);
  pooled.add<Dense>(5, 3).init_xavier(rng);
  pooled.add<ActivationLayer>(ActivationKind::kSigmoid);
  Network chained;
  chained.add<ActivationLayer>(ActivationKind::kSigmoid);
  chained.add<Dense>(16, 8).init_xavier(rng);
  chained.add<ActivationLayer>(ActivationKind::kTanh);
  chained.add<ActivationLayer>(ActivationKind::kSigmoid);
  chained.add<Dense>(8, 4).init_xavier(rng);
  chained.add<ActivationLayer>(ActivationKind::kTanh);
  Network pool_fed;
  pool_fed.add<AvgPool2D>(1, 8, 8, 2);
  pool_fed.add<Dense>(16, 6).init_xavier(rng);
  pool_fed.add<ActivationLayer>(ActivationKind::kTanh);
  pool_fed.add<Dense>(6, 3).init_xavier(rng);

  struct Case {
    const char* label;
    Network* net;
    int synapses;
  };
  for (const Case& c :
       {Case{"pooled", &pooled, 3}, Case{"chained", &chained, 2},
        Case{"pool-fed", &pool_fed, 2}}) {
    for (const bool asm_scheme : {true, false}) {
      const LayerAlphabetPlan schemes =
          asm_scheme
              ? LayerAlphabetPlan::uniform_asm(c.synapses, AlphabetSet::two())
              : LayerAlphabetPlan::conventional(c.synapses);
      const FixedNetwork engine(*c.net, QuantSpec::bits8(), schemes);
      const std::string where =
          std::string(c.label) + (asm_scheme ? " asm" : " exact");
      if (asm_scheme && c.net != &pooled) {
        EXPECT_EQ(engine.tile_begin(), 1u) << where;
      }
      expect_every_route_matches_oracle(engine, *c.net, schemes, 701, where);
    }
  }
}

// Conventional engines run as full-alphabet grouped plans: 8 bank
// lanes per input, and terms whose alphabets reach 15. On the apps'
// unprojected networks every route on every backend must equal the
// oracle's exact Σ q(w)·x: the MLPs tile, LeNet's convs stage 8 lanes.
TEST(ConventionalEngine, AppsMatchTheOracleOnEveryRoute) {
  using man::apps::AppId;
  for (const AppId id : {AppId::kDigitMlp8, AppId::kFaceMlp12,
                         AppId::kSvhnMlp8, AppId::kDigitCnn12}) {
    const auto& app = man::apps::get_app(id);
    Network net = app.build_network(/*seed=*/21);
    const auto schemes =
        LayerAlphabetPlan::conventional(net.num_weight_layers());
    const FixedNetwork engine(net, app.quant(), schemes);
    for (const auto& plan : engine.plans()) EXPECT_EQ(plan.k, 8) << app.name;
    for (const auto& plan : engine.conv_plans()) {
      EXPECT_EQ(plan.k, 8) << app.name;
    }
    expect_every_route_matches_oracle(engine, net, schemes, 900, app.name);
  }
}

// A conventional stage fed raw accumulators (no LUT in front) stages
// from its bank, not a table, and its multiples leave int32: Dense →
// Dense and Conv → Conv chains with large 12-bit weights.
TEST(ConventionalEngine, RawFedChainsMatchTheOracle) {
  man::util::Rng rng(910);
  Network dense_chain;
  dense_chain.add<Dense>(16, 8);
  dense_chain.add<Dense>(8, 4);
  Network conv_chain;
  conv_chain.add<Conv2D>(1, 2, 3, 8, 9);
  conv_chain.add<Conv2D>(2, 2, 3, 6, 7);
  for (Network* net : {&dense_chain, &conv_chain}) {
    for (std::size_t li = 0; li < 2; ++li) {
      auto& layer = net->layer(li);
      const std::span<float> weights =
          net == &dense_chain ? dynamic_cast<Dense&>(layer).weights()
                              : dynamic_cast<Conv2D&>(layer).weights();
      for (float& w : weights) w = rng.next_double() < 0.5 ? -1.5f : 1.5f;
    }
    const auto schemes = LayerAlphabetPlan::conventional(2);
    const FixedNetwork engine(*net, QuantSpec::bits12(), schemes);
    expect_every_route_matches_oracle(
        engine, *net, schemes, 911,
        net == &dense_chain ? "dense->dense" : "conv->conv");
  }
}

// The profile counts every value staged into a bank-output layout and
// every apply_raw call, whichever sweep performs them, and charges
// each sweep to one phase: LeNet-style conv → LUT → pool → dense
// stages its 64 pixels and 27 pooled values and runs 108 LUT lookups
// per sample; the pooling sweep goes to pool_s, quantize + staging to
// staging_s, and nothing to lut_s or quantize_s. The MLP's tile stages
// 16 + 8 values and looks up 8 per sample, in full tiles and
// remainder alike.
TEST(FusedEpilogue, PhaseProfileCountsStagedAndLutValues) {
  const QuantSpec spec = QuantSpec::bits8();
  Network cnn = make_cnn(95);
  Network mlp = make_mlp(96);
  struct Case {
    Network* net;
    std::uint64_t staged, luts;
    bool pools;
  };
  man::util::Rng rng(97);
  for (const Case& c : {Case{&cnn, 64 + 27, 108, true},
                        Case{&mlp, 16 + 8, 8, false}}) {
    const FixedNetwork engine(
        *c.net, spec, LayerAlphabetPlan::uniform_asm(2, AlphabetSet::four()));
    const std::size_t count = man::backend::kDenseTile + 3;
    const auto pixels = random_pixels(count * engine.input_size(), rng);
    std::vector<std::int64_t> raw(count * engine.output_size());
    auto stats = engine.make_stats();
    auto scratch = engine.make_scratch();
    PhaseProfile profile;
    scratch.profile = &profile;
    engine.infer_batch(pixels, raw, stats, scratch, engine.default_kernel());
    EXPECT_EQ(profile.staged_values, c.staged * count);
    EXPECT_EQ(profile.lut_values, c.luts * count);
    EXPECT_GT(profile.kernel_s, 0.0);
    EXPECT_GT(profile.staging_s, 0.0);
    EXPECT_EQ(profile.quantize_s, 0.0);
    EXPECT_EQ(profile.pool_s > 0.0, c.pools);
    EXPECT_EQ(profile.lut_s > 0.0, !c.pools);
  }
}

// ------------------------------------------- the descriptor constructor

/// Every field of a compiled model, spelled out, so two models compare
/// as strings and a mismatch prints both.
std::string describe(const CompiledModel& model) {
  std::ostringstream out;
  const auto format = [&](const man::fixed::QFormat& f) {
    out << f.total_bits() << '.' << f.frac_bits() << ' ';
  };
  format(model.spec.weight_format);
  format(model.spec.activation_format);
  out << "lanes=" << model.lanes << '\n';
  const auto synapse = [&](const CompiledSynapse& s) {
    const auto& ops = s.ops_per_inference;
    out << ' ' << s.name << ' ' << s.scheme.label() << " macs=" << s.macs
        << " bank=" << s.bank_activations << " ops=" << ops.precomputer_adds
        << ',' << ops.selects << ',' << ops.shifts << ',' << ops.adds << ','
        << ops.negates << '\n';
  };
  for (const CompiledStage& stage : model.stages) {
    if (const auto* d = std::get_if<CompiledDenseStage>(&stage)) {
      out << "dense " << d->in << "->" << d->out;
      synapse(d->synapse);
    } else if (const auto* c = std::get_if<CompiledConvStage>(&stage)) {
      out << "conv " << c->ic << ',' << c->oc << ',' << c->k << ',' << c->ih
          << ',' << c->iw << ',' << c->oh << ',' << c->ow;
      synapse(c->synapse);
    } else if (const auto* p = std::get_if<CompiledPoolStage>(&stage)) {
      out << "pool " << p->c << ',' << p->ih << ',' << p->iw << ','
          << p->window << ',' << p->oh << ',' << p->ow << '\n';
    } else if (const auto* l = std::get_if<CompiledLutStage>(&stage)) {
      out << "lut " << static_cast<int>(l->kind) << '\n';
    }
  }
  return out.str();
}

void expect_stats_eq(const EngineStats& a, const EngineStats& b,
                     const std::string& where) {
  EXPECT_EQ(a.inferences, b.inferences) << where;
  ASSERT_EQ(a.layers.size(), b.layers.size()) << where;
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].name, b.layers[i].name) << where << " layer " << i;
    EXPECT_EQ(a.layers[i].macs, b.layers[i].macs) << where << " layer " << i;
    EXPECT_EQ(a.layers[i].bank_activations, b.layers[i].bank_activations)
        << where << " layer " << i;
    EXPECT_EQ(a.layers[i].ops, b.layers[i].ops) << where << " layer " << i;
  }
}

// An engine rebuilt from its own descriptors and plans is the engine:
// same tile, same descriptors and layer names, and bit-identical
// outputs and stats on every backend — for an MLP, a CNN, and a
// Dense→Dense engine whose second stage is fed raw accumulators (so it
// stages from its bank, with no table).
TEST(FixedNetwork, DescriptorRebuildMatchesCompiledEngine) {
  const QuantSpec spec = QuantSpec::bits8();
  const AlphabetSet set = AlphabetSet::four();
  Network mlp = make_mlp(90);
  Network cnn = make_cnn(91);
  ProjectionPlan(spec, set, 2).project_network(mlp);
  ProjectionPlan(spec, set, 2).project_network(cnn);
  man::util::Rng rng(92);
  Network raw_fed;
  raw_fed.add<Dense>(16, 8).init_xavier(rng);
  raw_fed.add<Dense>(8, 4).init_xavier(rng);
  struct Case {
    const char* label;
    Network* net;
  };
  for (const Case& c : {Case{"mlp", &mlp}, Case{"cnn", &cnn},
                        Case{"dense->dense", &raw_fed}}) {
    const FixedNetwork compiled(*c.net, spec,
                                LayerAlphabetPlan::uniform_asm(2, set));
    const FixedNetwork rebuilt(compiled.compiled_model(), compiled.plans(),
                               compiled.conv_plans(), nullptr);
    EXPECT_EQ(rebuilt.tile_begin(), compiled.tile_begin()) << c.label;
    EXPECT_EQ(describe(rebuilt.compiled_model()),
              describe(compiled.compiled_model()))
        << c.label;

    const auto pixels = random_pixels(
        (2 * man::backend::kDenseTile + 3) * compiled.input_size(), rng);
    for (const auto* backend : man::backend::all_backends()) {
      const std::string where =
          std::string(c.label) + " backend=" + backend->name();
      std::vector<std::int64_t> outputs[2];
      EngineStats stats[2];
      const FixedNetwork* engines[] = {&compiled, &rebuilt};
      for (int e = 0; e < 2; ++e) {
        auto scratch = engines[e]->make_scratch();
        stats[e] = engines[e]->make_stats();
        outputs[e].resize(pixels.size() / compiled.input_size() *
                          compiled.output_size());
        engines[e]->infer_batch(pixels, outputs[e], stats[e], scratch,
                                *backend);
      }
      EXPECT_EQ(outputs[1], outputs[0]) << where;
      expect_stats_eq(stats[1], stats[0], where);
    }
  }
}

/// A rows × cols dense plan over the bits8 staging window whose every
/// weight is 1: one step on lane 0, a bank of `k` alphabets.
man::backend::DenseLayerPlan unit_dense_plan(int rows, int cols, int k) {
  const QuantSpec spec = QuantSpec::bits8();
  std::vector<man::backend::AsmWeight> weights(
      static_cast<std::size_t>(rows) * cols);
  std::vector<man::backend::AsmStep> steps;
  for (auto& w : weights) {
    w.step_begin = static_cast<std::uint32_t>(steps.size());
    w.step_count = 1;
    steps.push_back(man::backend::AsmStep{0, 0});
  }
  auto plan = man::backend::DenseLayerPlan::build_asm(
      rows, cols, k, std::move(weights), std::move(steps),
      std::vector<std::int64_t>(static_cast<std::size_t>(rows), 0));
  plan.in_min_raw = spec.activation_format.min_raw();
  plan.in_max_raw = spec.activation_format.max_raw();
  return plan;
}

// The descriptor constructor checks every pool against the AvgPool2D
// identities and every LUT's activation kind: a 3-wide window over a
// 4 × 4 input would read element 25 of a 16-element buffer.
TEST(FixedNetwork, RejectsPoolWindowPastItsInput) {
  const QuantSpec spec = QuantSpec::bits8();
  // A conventional synapse: the full set's 8 alphabets.
  const auto plan = unit_dense_plan(16, 2, 8);
  const auto engine_with = [&](CompiledStage tail) {
    CompiledModel model;
    model.spec = spec;
    model.stages.emplace_back(CompiledDenseStage{2, 16, {}});
    model.stages.push_back(tail);
    return FixedNetwork(model, {plan}, {}, nullptr);
  };
  EXPECT_EQ(engine_with(CompiledPoolStage{1, 4, 4, 2, 2, 2}).output_size(),
            4u);
  const CompiledPoolStage bad_pools[] = {
      {1, 4, 4, 3, 2, 2},  // window 3 does not tile 4
      {1, 4, 4, 2, 3, 2},  // rows past the input
      {1, 4, 4, 2, 2, 3},  // columns past the input
      {0, 4, 4, 2, 2, 2},  // no channels
      {1, 4, 4, 0, 0, 0},  // no window
  };
  for (const CompiledPoolStage& pool : bad_pools) {
    EXPECT_THROW((void)engine_with(pool), std::invalid_argument)
        << "window " << pool.window << " out " << pool.oh << 'x' << pool.ow;
  }
  EXPECT_THROW(
      (void)engine_with(CompiledLutStage{
          static_cast<man::core::ActivationKind>(7)}),
      std::invalid_argument);
}

// A plan stages k bank outputs per input, one per alphabet of its
// synapse's bank: a plan with k = 8 over a four-alphabet bank would
// index 8 lanes of slots the engine stages 4 of. The descriptor
// constructor rejects every plan whose k differs from its synapse's
// alphabet count, dense and conv, conventional and ASM.
TEST(FixedNetwork, RejectsPlanWhoseAlphabetCountDiffersFromItsBank) {
  const QuantSpec spec = QuantSpec::bits8();
  CompiledSynapse asm4;
  asm4.scheme.multiplier = MultiplierKind::kAsm;
  asm4.scheme.alphabets = AlphabetSet::four();
  const CompiledSynapse conventional;  // full set: 8 alphabets
  const auto dense_engine = [&](const CompiledSynapse& synapse, int k) {
    CompiledModel model;
    model.spec = spec;
    model.stages.emplace_back(CompiledDenseStage{2, 3, synapse});
    return FixedNetwork(model, {unit_dense_plan(3, 2, k)}, {}, nullptr);
  };
  EXPECT_EQ(dense_engine(asm4, 4).output_size(), 3u);
  EXPECT_EQ(dense_engine(conventional, 8).output_size(), 3u);
  EXPECT_THROW((void)dense_engine(asm4, 8), std::invalid_argument);
  EXPECT_THROW((void)dense_engine(conventional, 4), std::invalid_argument);

  const auto conv_engine = [&](const CompiledSynapse& synapse, int k) {
    std::vector<man::backend::AsmWeight> weights(2 * 4);
    for (auto& w : weights) w.step_count = 1;
    auto plan = man::backend::ConvLayerPlan::build_asm(
        2, 1, 2, 3, 3, k, std::move(weights), {man::backend::AsmStep{0, 0}},
        {0, 0});
    plan.in_min_raw = spec.activation_format.min_raw();
    plan.in_max_raw = spec.activation_format.max_raw();
    CompiledModel model;
    model.spec = spec;
    model.stages.emplace_back(
        CompiledConvStage{1, 2, 2, 3, 3, 2, 2, synapse});
    return FixedNetwork(model, {}, {std::move(plan)}, nullptr);
  };
  EXPECT_EQ(conv_engine(asm4, 4).output_size(), 8u);
  EXPECT_THROW((void)conv_engine(asm4, 8), std::invalid_argument);
  EXPECT_THROW((void)conv_engine(conventional, 4), std::invalid_argument);
}

// An engine takes and hands on at least one value per sample (a
// server's admission divides by input_size()): a model of LUT stages
// only sizes no input, and a pool over an empty plane (ih = 0) takes
// none, so the descriptor constructor rejects both, and a model with
// no stage at all.
TEST(FixedNetwork, RejectsStageGraphsOfNoValues) {
  const auto engine_of = [](std::vector<CompiledStage> stages) {
    CompiledModel model;
    model.spec = QuantSpec::bits8();
    model.stages = std::move(stages);
    return FixedNetwork(model, {}, {}, nullptr);
  };
  EXPECT_EQ(engine_of({CompiledPoolStage{1, 4, 4, 2, 2, 2}}).input_size(),
            16u);
  EXPECT_THROW((void)engine_of({}), std::invalid_argument);
  EXPECT_THROW(
      (void)engine_of({CompiledLutStage{man::core::ActivationKind::kTanh}}),
      std::invalid_argument);
  EXPECT_THROW((void)engine_of({CompiledPoolStage{1, 0, 4, 2, 0, 2}}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)engine_of({CompiledLutStage{man::core::ActivationKind::kRelu},
                       CompiledPoolStage{2, 0, 0, 2, 0, 0}}),
      std::invalid_argument);
}

TEST(LayerAlphabetPlan, LabelsAreInformative) {
  const auto plan = LayerAlphabetPlan::mixed_tail(3, AlphabetSet::two(),
                                                  AlphabetSet::four());
  EXPECT_EQ(plan.scheme(0).multiplier, MultiplierKind::kMan);
  EXPECT_EQ(plan.scheme(1).alphabets, AlphabetSet::two());
  EXPECT_EQ(plan.scheme(2).alphabets, AlphabetSet::four());
  EXPECT_NE(plan.label().find("MAN{1}"), std::string::npos);
  EXPECT_NE(plan.label().find("ASM4"), std::string::npos);
  EXPECT_THROW((void)plan.scheme(3), std::out_of_range);
  EXPECT_THROW((void)LayerAlphabetPlan::mixed_tail(0, AlphabetSet::two(),
                                                   AlphabetSet::four()),
               std::invalid_argument);
}

}  // namespace
}  // namespace man::engine
