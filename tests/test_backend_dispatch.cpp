// Kernel-backend selection and bit-exactness: override precedence
// (programmatic beats MAN_BACKEND beats auto-detect), unknown
// MAN_BACKEND values throw, and one shared test vector produces
// bit-identical accumulators through every registered backend at
// 8- and 12-bit weights — the contract the Fig 9 replay gate enforces
// at scale in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "man/backend/backend_impls.h"
#include "man/backend/kernel_backend.h"
#include "man/engine/batch_runner.h"
#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/conv2d.h"
#include "man/nn/dense.h"
#include "man/util/rng.h"

namespace man::backend {
namespace {

using man::core::AlphabetSet;
using man::engine::BatchOptions;
using man::engine::BatchRunner;
using man::engine::EngineStats;
using man::engine::FixedNetwork;
using man::engine::LayerAlphabetPlan;
using man::nn::ActivationLayer;
using man::nn::Conv2D;
using man::nn::Dense;
using man::nn::Network;
using man::nn::ProjectionPlan;
using man::nn::QuantSpec;

/// Restores the previous MAN_BACKEND value when the test ends, so
/// env-twiddling tests cannot leak into each other (or into an outer
/// MAN_BACKEND=... ctest invocation, which the CI matrix uses).
class EnvGuard {
 public:
  EnvGuard() {
    if (const char* old = std::getenv("MAN_BACKEND")) old_ = old;
  }
  ~EnvGuard() {
    if (old_.has_value()) {
      setenv("MAN_BACKEND", old_->c_str(), 1);
    } else {
      unsetenv("MAN_BACKEND");
    }
  }
  void set(const char* value) { setenv("MAN_BACKEND", value, 1); }
  void unset() { unsetenv("MAN_BACKEND"); }

 private:
  std::optional<std::string> old_;
};

TEST(BackendRegistry, AllFourKindsAreRegisteredAndDistinct) {
  const auto backends = all_backends();
  ASSERT_EQ(backends.size(), 4u);
  EXPECT_EQ(backends[0]->kind(), BackendKind::kScalar);
  EXPECT_EQ(backends[1]->kind(), BackendKind::kBlocked);
  EXPECT_EQ(backends[2]->kind(), BackendKind::kSimd);
  EXPECT_EQ(backends[3]->kind(), BackendKind::kAvx512);
  for (const auto* backend : backends) {
    EXPECT_EQ(&backend_for(backend->kind()), backend);
    EXPECT_EQ(std::string_view(backend->name()), to_string(backend->kind()));
    EXPECT_NE(backend->description(), nullptr);
  }
  // Each vector backend caps the vector tier it runs: blocked the
  // portable one, simd AVX2 when CPUID reports it, avx512 AVX-512F/VL/BW
  // when CPUID reports it, else AVX2. accelerated() is true exactly
  // when a tier above the portable one is live, and description()
  // names the live tier.
#if MAN_X86_KERNELS
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  const bool avx512 = __builtin_cpu_supports("avx512f") != 0 &&
                      __builtin_cpu_supports("avx512vl") != 0 &&
                      __builtin_cpu_supports("avx512bw") != 0;
#else
  const bool avx2 = false;
  const bool avx512 = false;
#endif
  EXPECT_FALSE(backends[0]->accelerated());
  EXPECT_FALSE(backends[1]->accelerated());
  EXPECT_EQ(backends[2]->accelerated(), avx2);
  EXPECT_EQ(backends[3]->accelerated(), avx2 || avx512);
  const auto names = [](const KernelBackend* backend, const char* tier) {
    return std::string_view(backend->description()).find(tier) !=
           std::string_view::npos;
  };
  EXPECT_TRUE(names(backends[1], "portable"));
  EXPECT_TRUE(names(backends[2], avx2 ? "AVX2" : "portable"));
  EXPECT_TRUE(names(backends[3], avx512 ? "AVX-512"
                                 : avx2 ? "AVX2"
                                        : "portable"));
}

TEST(BackendRegistry, ParseAcceptsKnownSpellingsOnly) {
  EXPECT_EQ(parse_backend("scalar"), BackendKind::kScalar);
  EXPECT_EQ(parse_backend("blocked"), BackendKind::kBlocked);
  EXPECT_EQ(parse_backend("simd"), BackendKind::kSimd);
  EXPECT_EQ(parse_backend("avx512"), BackendKind::kAvx512);
  EXPECT_THROW((void)parse_backend("auto"), std::invalid_argument);
  EXPECT_THROW((void)parse_backend("SCALAR"), std::invalid_argument);
  EXPECT_THROW((void)parse_backend("warp"), std::invalid_argument);
  EXPECT_THROW((void)parse_backend(""), std::invalid_argument);
}

TEST(BackendRegistry, EnvOverridePrecedence) {
  EnvGuard guard;

  // No env: auto-detect decides (and must name a plane-based kernel).
  guard.unset();
  EXPECT_EQ(resolve_backend(), detect_best_backend());
  EXPECT_NE(detect_best_backend(), BackendKind::kScalar);

  // Env set: it beats auto-detect.
  guard.set("scalar");
  EXPECT_EQ(resolve_backend(), BackendKind::kScalar);

  // Programmatic override beats the env var.
  EXPECT_EQ(resolve_backend(BackendKind::kBlocked), BackendKind::kBlocked);

  // "auto" and "" defer to detection, exactly like unset.
  guard.set("auto");
  EXPECT_EQ(resolve_backend(), detect_best_backend());
  guard.set("");
  EXPECT_EQ(resolve_backend(), detect_best_backend());
}

TEST(BackendRegistry, UnknownEnvValueThrows) {
  EnvGuard guard;
  guard.set("vliw");
  EXPECT_THROW((void)env_backend_override(), std::invalid_argument);
  EXPECT_THROW((void)resolve_backend(), std::invalid_argument);
  // A programmatic choice sidesteps the broken env var.
  EXPECT_EQ(resolve_backend(BackendKind::kScalar), BackendKind::kScalar);
}

TEST(BackendRegistry, BatchRunnerSurfacesBadEnvAtConstruction) {
  EnvGuard guard;
  guard.unset();
  man::util::Rng rng(3);
  Network net;
  net.add<Dense>(8, 4).init_xavier(rng);
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::conventional(1));
  guard.set("bogus");
  EXPECT_THROW(BatchRunner(engine, BatchOptions{}), std::invalid_argument);
  EXPECT_NO_THROW(
      BatchRunner(engine, BatchOptions{.backend = BackendKind::kScalar}));
}

Network make_mlp(std::uint64_t seed) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Dense>(16, 8).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<Dense>(8, 4).init_xavier(rng);
  return net;
}

// One shared test vector through every registered backend, ASM and
// conventional engines, at both paper weight widths — all outputs must
// equal the scalar reference bit for bit.
class BackendBitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(BackendBitIdentity, EveryBackendMatchesScalarReference) {
  const int bits = GetParam();
  const QuantSpec spec = QuantSpec::for_bits(bits);
  const AlphabetSet set = AlphabetSet::four();

  Network net = make_mlp(200 + static_cast<std::uint64_t>(bits));
  const ProjectionPlan projection(spec, set, net.num_weight_layers());
  projection.project_network(net);

  FixedNetwork asm_engine(
      net, spec, LayerAlphabetPlan::uniform_asm(net.num_weight_layers(), set));
  FixedNetwork exact_engine(
      net, spec, LayerAlphabetPlan::conventional(net.num_weight_layers()));

  // Two shared vectors: plain [0,1) pixels, and a signed variant so
  // negative activations (negative pre-computer multiples) go through
  // every backend's shift/sign path too.
  man::util::Rng rng(17);
  std::vector<float> pixels(16);
  for (float& p : pixels) p = static_cast<float>(rng.next_double());
  std::vector<float> signed_pixels(16);
  for (float& p : signed_pixels) {
    p = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  }

  for (FixedNetwork* engine : {&asm_engine, &exact_engine}) {
    for (const auto& vector : {pixels, signed_pixels}) {
      auto scratch = engine->make_scratch();
      auto stats = engine->make_stats();
      std::vector<std::int64_t> reference(engine->output_size());
      engine->infer_into(vector, reference, stats, scratch,
                         backend_for(BackendKind::kScalar));
      for (const auto* backend : all_backends()) {
        std::vector<std::int64_t> raw(engine->output_size());
        engine->infer_into(vector, raw, stats, scratch, *backend);
        EXPECT_EQ(raw, reference)
            << "bits=" << bits << " backend=" << backend->name();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperWidths, BackendBitIdentity,
                         ::testing::Values(8, 12));

// Two-conv stack on a non-square input (5×7 → 3×5 → 2×4), so height,
// width and the two kernel sizes all differ — any transposed or
// mis-based gather in a conv kernel shows up as a bit mismatch.
Network make_cnn(std::uint64_t seed) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Conv2D>(2, 3, 3, 5, 7).init_xavier(rng);  // 3 @ 3×5
  net.add<ActivationLayer>(man::core::ActivationKind::kTanh);
  net.add<Conv2D>(3, 4, 2, 3, 5).init_xavier(rng);  // 4 @ 2×4
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<Dense>(32, 3).init_xavier(rng);
  return net;
}

// 1-channel single-conv edge case (the smallest patch geometry).
Network make_tiny_cnn(std::uint64_t seed) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Conv2D>(1, 2, 2, 4, 4).init_xavier(rng);  // 2 @ 3×3
  net.add<ActivationLayer>(man::core::ActivationKind::kTanh);
  net.add<Dense>(18, 2).init_xavier(rng);
  return net;
}

// Conv twin of BackendBitIdentity: the same contract over ConvLayerPlan
// — every backend's accumulate_conv must match the scalar
// reference bit for bit, at both paper weight widths, for ASM and
// conventional schemes, on non-square and 1-channel geometry.
class ConvBackendBitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(ConvBackendBitIdentity, EveryBackendMatchesScalarReference) {
  const int bits = GetParam();
  const QuantSpec spec = QuantSpec::for_bits(bits);
  const AlphabetSet set = AlphabetSet::four();

  for (Network (*build)(std::uint64_t) : {&make_cnn, &make_tiny_cnn}) {
    Network net = build(300 + static_cast<std::uint64_t>(bits));
    const ProjectionPlan projection(spec, set, net.num_weight_layers());
    projection.project_network(net);

    FixedNetwork asm_engine(
        net, spec,
        LayerAlphabetPlan::uniform_asm(net.num_weight_layers(), set));
    FixedNetwork exact_engine(
        net, spec, LayerAlphabetPlan::conventional(net.num_weight_layers()));

    man::util::Rng rng(29);
    std::vector<float> pixels(asm_engine.input_size());
    for (float& p : pixels) p = static_cast<float>(rng.next_double());
    std::vector<float> signed_pixels(asm_engine.input_size());
    for (float& p : signed_pixels) {
      p = static_cast<float>(rng.next_double() * 2.0 - 1.0);
    }

    for (FixedNetwork* engine : {&asm_engine, &exact_engine}) {
      for (const auto& vector : {pixels, signed_pixels}) {
        auto scratch = engine->make_scratch();
        auto stats = engine->make_stats();
        std::vector<std::int64_t> reference(engine->output_size());
        engine->infer_into(vector, reference, stats, scratch,
                           backend_for(BackendKind::kScalar));
        for (const auto* backend : all_backends()) {
          std::vector<std::int64_t> raw(engine->output_size());
          engine->infer_into(vector, raw, stats, scratch, *backend);
          EXPECT_EQ(raw, reference)
              << "bits=" << bits << " backend=" << backend->name();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperWidths, ConvBackendBitIdentity,
                         ::testing::Values(8, 12));

/// A hand-built select/shift schedule. build_asm() consumes a copy;
/// the test keeps this one, in the array-of-structs layout plans do
/// not carry, as the independent oracle for the plan walks.
struct Schedule {
  std::vector<AsmWeight> weights;
  std::vector<AsmStep> steps;
};

/// `count` weights of 0..max_steps random steps over `k` lanes with
/// shifts below `shift_limit`, random signs; weights where `empty(w)`
/// get no steps.
template <typename Empty>
Schedule random_schedule(std::size_t count, int k, int max_steps,
                         int shift_limit, Empty empty, man::util::Rng& rng) {
  Schedule schedule;
  for (std::size_t i = 0; i < count; ++i) {
    AsmWeight w;
    w.step_begin = static_cast<std::uint32_t>(schedule.steps.size());
    w.step_count = empty(i) ? 0
                            : static_cast<std::uint8_t>(rng.next_below(
                                  static_cast<std::uint64_t>(max_steps) + 1));
    w.negative = rng.next_below(2) == 1;
    for (int s = 0; s < w.step_count; ++s) {
      schedule.steps.push_back(AsmStep{
          static_cast<std::uint8_t>(
              rng.next_below(static_cast<std::uint64_t>(k))),
          static_cast<std::uint8_t>(
              rng.next_below(static_cast<std::uint64_t>(shift_limit)))});
    }
    schedule.weights.push_back(w);
  }
  return schedule;
}

/// The AoS walk over weight `w` of `schedule`: Σ m[lane · lane_stride]
/// << shift over its steps, negated for a negative weight.
std::int64_t aos_product(const Schedule& schedule, std::size_t w,
                         const std::int64_t* m, std::size_t lane_stride) {
  const AsmWeight& weight = schedule.weights[w];
  std::int64_t product = 0;
  for (std::uint8_t s = 0; s < weight.step_count; ++s) {
    const AsmStep& step = schedule.steps[weight.step_begin + s];
    product += m[step.lane * lane_stride] << step.shift;
  }
  return weight.negative ? -product : product;
}

/// Bias plus the AoS walk over every weight of each dense row, for
/// k-strided multiples `m`.
std::vector<std::int64_t> aos_dense(const Schedule& schedule,
                                    const DenseLayerPlan& plan,
                                    const std::vector<std::int64_t>& m) {
  std::vector<std::int64_t> rows;
  for (int r = 0; r < plan.rows; ++r) {
    std::int64_t acc = plan.biases[static_cast<std::size_t>(r)];
    for (int c = 0; c < plan.cols; ++c) {
      acc += aos_product(schedule, static_cast<std::size_t>(r) * plan.cols + c,
                         &m[static_cast<std::size_t>(c) * plan.k], 1);
    }
    rows.push_back(acc);
  }
  return rows;
}

/// kDenseTile samples of k-strided bank outputs a · x for `plan`, one
/// input x per column: sample 0 at the window's low edge, sample 1 at
/// its high edge, sample 2 alternating between them, the rest random.
std::vector<std::vector<std::int64_t>> window_samples(
    const DenseLayerPlan& plan, std::span<const std::uint8_t> alphabets,
    std::uint64_t seed) {
  man::util::Rng rng(seed);
  std::vector<std::vector<std::int64_t>> samples(kDenseTile);
  for (std::size_t b = 0; b < samples.size(); ++b) {
    for (int c = 0; c < plan.cols; ++c) {
      std::int64_t x = rng.next_in(plan.in_min_raw, plan.in_max_raw);
      if (b == 0 || (b == 2 && c % 2 == 0)) x = plan.in_min_raw;
      if (b == 1 || (b == 2 && c % 2 == 1)) x = plan.in_max_raw;
      for (const std::uint8_t a : alphabets) samples[b].push_back(a * x);
    }
  }
  return samples;
}

/// `samples` (kDenseTile of them) transposed into the sample-minor
/// int16 tile.
std::vector<std::int16_t> to_tile(
    const std::vector<std::vector<std::int64_t>>& samples) {
  std::vector<std::int16_t> tile(samples[0].size() * kDenseTile);
  for (std::size_t b = 0; b < kDenseTile; ++b) {
    for (std::size_t s = 0; s < samples[b].size(); ++s) {
      EXPECT_EQ(samples[b][s], static_cast<std::int16_t>(samples[b][s]));
      tile[s * kDenseTile + b] = static_cast<std::int16_t>(samples[b][s]);
    }
  }
  return tile;
}

/// Every backend's accumulate_dense on each sample, and (when `chunk`,
/// the tile's int16 run length, is at least 1) accumulate_dense_tile on
/// all of them, must produce `expected[b]` for sample b.
void expect_dense_rows(const DenseLayerPlan& plan,
                       const std::vector<std::vector<std::int64_t>>& samples,
                       const std::vector<std::vector<std::int64_t>>& expected,
                       int chunk, const std::string& label) {
  const auto rows = static_cast<std::size_t>(plan.rows);
  std::vector<std::int64_t> expected_tile(rows * kDenseTile);
  for (std::size_t b = 0; b < kDenseTile; ++b) {
    for (std::size_t r = 0; r < rows; ++r) {
      expected_tile[r * kDenseTile + b] = expected[b][r];
    }
  }
  const std::vector<std::int16_t> tile = to_tile(samples);
  for (const auto* backend : all_backends()) {
    for (std::size_t b = 0; b < kDenseTile; ++b) {
      std::vector<std::int64_t> out(rows, -7);
      backend->accumulate_dense(plan, samples[b].data(), out.data());
      EXPECT_EQ(out, expected[b])
          << label << " sample " << b << " backend=" << backend->name();
    }
    if (chunk >= 1) {
      std::vector<std::int64_t> out(expected_tile.size(), -7);
      backend->accumulate_dense_tile(plan, chunk, tile.data(), out.data());
      EXPECT_EQ(out, expected_tile)
          << label << " tile backend=" << backend->name();
    }
  }
}

// The batch-tiled dense kernel contract on compiled plans at both
// paper widths: every backend's int16 accumulate_dense_tile, fed
// activations on and inside the staging window, equals kDenseTile
// scalar per-sample int64 accumulate_dense calls (13 columns; one
// all-zero row, which gets no groups; terms from more than one
// quartet).
class DenseTileBitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(DenseTileBitIdentity, EveryBackendMatchesScalarPerSample) {
  const int bits = GetParam();
  const QuantSpec spec = QuantSpec::for_bits(bits);
  const AlphabetSet set = AlphabetSet::four();
  man::util::Rng rng(400 + static_cast<std::uint64_t>(bits));
  Network net;
  auto& dense = net.add<Dense>(13, 6);
  dense.init_xavier(rng);
  for (int c = 0; c < 13; ++c) dense.weights()[2 * 13 + c] = 0.0f;  // row 2
  const ProjectionPlan projection(spec, set, 1);
  projection.project_network(net);
  FixedNetwork engine(net, spec, LayerAlphabetPlan::uniform_asm(1, set));
  const DenseLayerPlan& plan = engine.plans()[0];
  EXPECT_EQ(plan.row_groups[2], plan.row_groups[3]);
  // Quartet 0 spans shifts 0..3, so a shift of 4 or more comes from a
  // later quartet.
  ASSERT_GE(*std::max_element(plan.shifts.begin(), plan.shifts.end()), 4);
  ASSERT_LE(int32_row_bound(plan, set.alphabets()),
            std::numeric_limits<std::int32_t>::max());
  const int chunk = int16_tile_chunk(plan, set.alphabets());
  ASSERT_GE(chunk, 1);

  const auto samples = window_samples(plan, set.alphabets(), 31);
  std::vector<std::vector<std::int64_t>> expected;
  for (const auto& sample : samples) {
    std::vector<std::int64_t> rows(static_cast<std::size_t>(plan.rows));
    backend_for(BackendKind::kScalar)
        .accumulate_dense(plan, sample.data(), rows.data());
    expected.push_back(rows);
  }
  expect_dense_rows(plan, samples, expected, chunk,
                    "bits=" + std::to_string(bits));
}

INSTANTIATE_TEST_SUITE_P(PaperWidths, DenseTileBitIdentity,
                         ::testing::Values(8, 12));

// The grouped dense layout against the schedule it was built from. The
// scalar reference walks the same groups as every other backend, so it
// cannot be its own oracle: for k = 1..4 alphabets and weights of up
// to 1-3 steps, every backend's accumulate_dense and
// accumulate_dense_tile must equal the AoS walk over a kept copy of
// the schedule. Row 1 has no steps and row 2 is a single (shift, sign)
// group. Shifts reach 30 on the per-sample path, whose int64 sums take
// any of them, and stay below 12 where the tile runs too, so a ±512
// window fits the tile's int32 proof (and its int16 one: 512 · 7 fits
// int16 in runs of 9). A plan with no terms at all yields its biases.
TEST(DensePlanOracle, EveryBackendMatchesTheAosWalk) {
  constexpr int kRows = 6;
  constexpr int kCols = 11;
  man::util::Rng rng(620);
  for (int k = 1; k <= 4; ++k) {
    const AlphabetSet set = AlphabetSet::first_n(static_cast<std::size_t>(k));
    for (int max_steps = 1; max_steps <= 3; ++max_steps) {
      for (const int shift_limit : {31, 12}) {
        Schedule schedule = random_schedule(
            kRows * kCols, k, max_steps, shift_limit,
            [](std::size_t w) { return w / kCols == 1; }, rng);
        for (std::size_t w = 2 * kCols; w < 3 * kCols; ++w) {
          AsmWeight& weight = schedule.weights[w];
          weight.negative = true;
          for (std::uint8_t s = 0; s < weight.step_count; ++s) {
            schedule.steps[weight.step_begin + s].shift = 5;
          }
        }
        std::vector<std::int64_t> biases(kRows);
        for (auto& b : biases) b = rng.next_in(-1000, 1000);
        DenseLayerPlan plan = DenseLayerPlan::build_asm(
            kRows, kCols, k, schedule.weights, schedule.steps, biases);
        plan.in_min_raw = -512;
        plan.in_max_raw = 511;
        const std::string label = "k=" + std::to_string(k) + " max_steps=" +
                                  std::to_string(max_steps) + " shifts<" +
                                  std::to_string(shift_limit);
        EXPECT_EQ(plan.row_groups[1], plan.row_groups[2]) << label;
        EXPECT_EQ(plan.row_groups[3] - plan.row_groups[2], 1u) << label;
        const bool tile = shift_limit <= 12;
        const int chunk = tile ? int16_tile_chunk(plan, set.alphabets()) : 0;
        if (tile) {
          ASSERT_LE(int32_row_bound(plan, set.alphabets()),
                    std::numeric_limits<std::int32_t>::max());
          ASSERT_GE(chunk, 1);
        }
        const auto samples =
            window_samples(plan, set.alphabets(), rng.next_below(1000));
        std::vector<std::vector<std::int64_t>> expected;
        for (const auto& sample : samples) {
          expected.push_back(aos_dense(schedule, plan, sample));
        }
        expect_dense_rows(plan, samples, expected, chunk, label);
      }
    }
  }

  const Schedule none = random_schedule(
      kRows * kCols, 4, 3, 12, [](std::size_t) { return true; }, rng);
  const std::vector<std::int64_t> biases = {5, -6, 7, -8, 9, -10};
  DenseLayerPlan plan = DenseLayerPlan::build_asm(kRows, kCols, 4, none.weights,
                                                  none.steps, biases);
  plan.in_min_raw = -512;
  plan.in_max_raw = 511;
  EXPECT_TRUE(plan.idx.empty());
  EXPECT_TRUE(plan.shifts.empty());
  const auto samples =
      window_samples(plan, AlphabetSet::four().alphabets(), 7);
  expect_dense_rows(plan, samples,
                    std::vector<std::vector<std::int64_t>>(kDenseTile, biases),
                    int16_tile_chunk(plan, AlphabetSet::four().alphabets()),
                    "no terms");
}

// The int16 chunk proof at its edge: every term of every row on the
// largest alphabet a (7 for ASM 4, 15 for the full set) over the apps'
// 8-bit window, so each staged slot is ±255·a and a run of C =
// int16_tile_chunk() terms reaches C·255·a, just inside int16, while
// C + 1 would leave it. Rows are single groups of 2C + 3 terms (three
// chunks, the last partial), negative and positive, and a row of two
// groups; every sample sits at the window's low edge, then at its high
// edge, then alternates. Every backend's tile must equal the AoS walk.
TEST(DensePlanOracle, SaturatedTileFillsEveryInt16Chunk) {
  for (const AlphabetSet* set : {&AlphabetSet::four(), &AlphabetSet::full()}) {
    const auto alphabets = set->alphabets();
    const auto k = static_cast<int>(alphabets.size());
    const int top = alphabets.back();
    const man::fixed::QFormat window = man::fixed::QFormat::input8();
    // ⌊INT16_MAX / (255·a)⌋.
    const int expected_chunk = top == 7 ? 18 : 8;
    const int cols = 2 * expected_chunk + 3;
    constexpr int kRows = 3;
    Schedule schedule;
    for (int r = 0; r < kRows; ++r) {
      for (int c = 0; c < cols; ++c) {
        AsmWeight w;
        w.step_begin = static_cast<std::uint32_t>(schedule.steps.size());
        w.step_count = 1;
        w.negative = r == 0 || (r == 2 && c % 2 == 0);
        schedule.weights.push_back(w);
        schedule.steps.push_back(AsmStep{
            static_cast<std::uint8_t>(k - 1),
            static_cast<std::uint8_t>(r == 2 ? 3 * (c % 2) : r)});
      }
    }
    DenseLayerPlan plan = DenseLayerPlan::build_asm(
        kRows, cols, k, schedule.weights, schedule.steps, {3, -4, 5});
    plan.in_min_raw = window.min_raw();
    plan.in_max_raw = window.max_raw();
    const int chunk = int16_tile_chunk(plan, alphabets);
    EXPECT_EQ(chunk, expected_chunk) << "a=" << top;
    ASSERT_LE(int32_row_bound(plan, alphabets),
              std::numeric_limits<std::int32_t>::max());
    ASSERT_EQ(plan.row_groups[1] - plan.row_groups[0], 1u);
    ASSERT_EQ(plan.group_begin[1] - plan.group_begin[0],
              static_cast<std::uint32_t>(cols));
    for (const int edge : {0, 1, 2}) {
      std::vector<std::vector<std::int64_t>> samples(kDenseTile);
      std::vector<std::vector<std::int64_t>> expected;
      for (std::size_t b = 0; b < kDenseTile; ++b) {
        const bool low = edge == 0 || (edge == 2 && b % 2 == 0);
        const std::int64_t x = low ? plan.in_min_raw : plan.in_max_raw;
        for (int c = 0; c < cols; ++c) {
          for (const std::uint8_t a : alphabets) samples[b].push_back(a * x);
        }
        expected.push_back(aos_dense(schedule, plan, samples[b]));
      }
      expect_dense_rows(plan, samples, expected, chunk,
                        "a=" + std::to_string(top) + " edge " +
                            std::to_string(edge));
    }
  }
}

// The conv twin of DensePlanOracle: random schedules of up to 1-4
// steps per weight on a two-channel 3×3 kernel, through every
// backend's accumulate_conv and accumulate_conv_int32, against the AoS
// walk with patch elements computed here rather than read from the
// plan. Filter 1 is a single (shift, sign) group and filter 2 has no
// terms. Output widths 1, 3, 7, 11, 16, 21 and 35 run every path of
// the vector kernels at every tier, in int64 lanes (2, 4 or 8 per
// vector) and int32 lanes (4, 8 or 16): rows narrower than a vector
// (halved, down to one position per lane), a single group, pairs whose
// last group overlaps the first, and odd last groups that overlap the
// pair before them. Heights 1 to 7 leave short row tiles at both tile
// heights (3 and 5 rows). The multiples buffers are exactly
// padded_multiples() long, so ASan sees any read past them.
TEST(ConvPlanOracle, EveryBackendMatchesTheAosWalk) {
  constexpr int kOc = 3;
  constexpr int kIc = 2;
  constexpr int kKernel = 3;
  constexpr int kLanes = 4;
  constexpr int kCols = kIc * kKernel * kKernel;
  man::util::Rng rng(610);
  for (const auto [ih, iw] :
       {std::pair{3, 3}, std::pair{4, 5}, std::pair{6, 9}, std::pair{5, 13},
        std::pair{3, 18}, std::pair{6, 23}, std::pair{9, 37}}) {
    for (int max_steps = 1; max_steps <= 4; ++max_steps) {
      Schedule schedule = random_schedule(
          kOc * kCols, kLanes, max_steps, 12,
          [](std::size_t w) { return w / kCols == 2; }, rng);
      for (std::size_t w = kCols; w < 2 * kCols; ++w) {
        AsmWeight& weight = schedule.weights[w];
        weight.negative = true;
        for (std::uint8_t s = 0; s < weight.step_count; ++s) {
          schedule.steps[weight.step_begin + s].shift = 5;
        }
      }
      std::vector<std::int64_t> biases(kOc);
      for (auto& b : biases) b = rng.next_in(-1000, 1000);
      ConvLayerPlan plan = ConvLayerPlan::build_asm(
          kOc, kIc, kKernel, ih, iw, kLanes, schedule.weights, schedule.steps,
          biases);
      const std::string label = std::to_string(plan.oh) + "x" +
                                std::to_string(plan.ow) +
                                " max_steps=" + std::to_string(max_steps);
      EXPECT_EQ(plan.row_groups[2] - plan.row_groups[1], 1u) << label;
      EXPECT_EQ(plan.row_groups[2], plan.row_groups[3]) << label;
      // Lane-major multiples. Every slot lies in [-2048, 2047], which is
      // what the row bound sees for a window of ±2048 under unit
      // alphabets: the int32 twin must fit.
      std::vector<std::int64_t> multiples(plan.padded_multiples());
      for (auto& m : multiples) m = rng.next_in(-2048, 2047);
      plan.in_min_raw = -2048;
      plan.in_max_raw = 2048;
      const std::vector<std::uint8_t> unit(kLanes, 1);
      ASSERT_LE(int32_row_bound(plan, unit),
                std::numeric_limits<std::int32_t>::max())
          << label;
      const std::vector<std::int32_t> multiples32(multiples.begin(),
                                                  multiples.end());

      const auto elems = static_cast<std::size_t>(kIc * ih * iw);
      std::vector<std::int64_t> expected;
      for (int r = 0; r < kOc; ++r) {
        for (int oy = 0; oy < plan.oh; ++oy) {
          for (int ox = 0; ox < plan.ow; ++ox) {
            std::int64_t acc = biases[static_cast<std::size_t>(r)];
            for (int c = 0; c < kCols; ++c) {
              const int channel = c / (kKernel * kKernel);
              const int ky = c / kKernel % kKernel;
              const int kx = c % kKernel;
              const auto elem = static_cast<std::size_t>(
                  (channel * ih + oy + ky) * iw + ox + kx);
              acc += aos_product(schedule,
                                 static_cast<std::size_t>(r) * kCols + c,
                                 &multiples[elem], elems);
            }
            expected.push_back(acc);
          }
        }
      }
      for (const auto* backend : all_backends()) {
        std::vector<std::int64_t> out(expected.size(), -7);
        backend->accumulate_conv(plan, multiples.data(), out.data());
        EXPECT_EQ(out, expected) << label << " backend=" << backend->name();
        std::vector<std::int64_t> out32(expected.size(), -7);
        backend->accumulate_conv_int32(plan, multiples32.data(),
                                       out32.data());
        EXPECT_EQ(out32, expected)
            << label << " int32 backend=" << backend->name();
      }
    }
  }
}

TEST(BackendBatchRunner, BackendsAgreeAndStatsRecordTheChoice) {
  EnvGuard guard;
  guard.unset();

  const QuantSpec spec = QuantSpec::bits8();
  const AlphabetSet set = AlphabetSet::two();
  Network net = make_mlp(77);
  const ProjectionPlan projection(spec, set, net.num_weight_layers());
  projection.project_network(net);
  FixedNetwork engine(
      net, spec, LayerAlphabetPlan::uniform_asm(net.num_weight_layers(), set));

  constexpr std::size_t kSamples = 24;
  man::util::Rng rng(18);
  std::vector<float> batch(kSamples * engine.input_size());
  for (float& p : batch) p = static_cast<float>(rng.next_double());

  std::vector<std::int64_t> reference(kSamples * engine.output_size());
  BatchRunner scalar_runner(
      engine,
      BatchOptions{.workers = 1, .backend = BackendKind::kScalar});
  scalar_runner.run(batch, reference);
  EXPECT_EQ(scalar_runner.stats().backend, "scalar");

  for (const auto* backend : all_backends()) {
    std::vector<std::int64_t> raw(kSamples * engine.output_size());
    BatchRunner runner(
        engine, BatchOptions{.workers = 2, .backend = backend->kind()});
    runner.run(batch, raw);
    EXPECT_EQ(raw, reference) << "backend=" << backend->name();
    EXPECT_EQ(runner.stats().backend, backend->name());
    EXPECT_EQ(&runner.kernel(), backend);
  }
}

TEST(BackendPlans, CompiledPlansCoverEveryDenseStage) {
  Network net = make_mlp(91);
  const QuantSpec spec = QuantSpec::bits8();
  const ProjectionPlan projection(spec, AlphabetSet::four(),
                                  net.num_weight_layers());
  projection.project_network(net);
  FixedNetwork engine(
      net, spec,
      LayerAlphabetPlan::uniform_asm(net.num_weight_layers(),
                                     AlphabetSet::four()));
  const auto& plans = engine.plans();
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].rows, 8);
  EXPECT_EQ(plans[0].cols, 16);
  EXPECT_EQ(plans[0].k, 4);
  ASSERT_EQ(plans[0].row_groups.size(), 9u);
  EXPECT_EQ(plans[0].row_groups[8], plans[0].shifts.size());
  EXPECT_EQ(plans[0].sign_masks.size(), plans[0].shifts.size());
  EXPECT_EQ(plans[0].group_begin.size(), plans[0].shifts.size() + 1);
  EXPECT_EQ(plans[0].group_begin[plans[0].shifts.size()],
            plans[0].idx.size());
  // 8-bit weights decompose into two quartets, 7 magnitude bits (paper
  // Fig 4): shifts 0..6, so at most 7 shifts × 2 signs per row.
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_LE(plans[0].row_groups[r + 1] - plans[0].row_groups[r], 14u);
  }
  for (const std::int64_t shift : plans[0].shifts) EXPECT_LT(shift, 7);
}

TEST(BackendPlans, CompiledConvPlansExposeGeometry) {
  Network net = make_cnn(97);
  const QuantSpec spec = QuantSpec::bits8();
  const ProjectionPlan projection(spec, AlphabetSet::four(),
                                  net.num_weight_layers());
  projection.project_network(net);
  FixedNetwork engine(
      net, spec,
      LayerAlphabetPlan::uniform_asm(net.num_weight_layers(),
                                     AlphabetSet::four()));
  const auto& plans = engine.conv_plans();
  ASSERT_EQ(plans.size(), 2u);
  ASSERT_EQ(engine.plans().size(), 1u);  // the trailing dense stage

  const ConvLayerPlan& c1 = plans[0];
  EXPECT_EQ(c1.oc, 3);
  EXPECT_EQ(c1.ic, 2);
  EXPECT_EQ(c1.kernel, 3);
  EXPECT_EQ(c1.ih, 5);
  EXPECT_EQ(c1.iw, 7);
  EXPECT_EQ(c1.oh, 3);
  EXPECT_EQ(c1.ow, 5);
  EXPECT_EQ(c1.cols, 2 * 3 * 3);
  EXPECT_EQ(c1.k, 4);
  EXPECT_EQ(c1.positions(), 15u);
  EXPECT_EQ(c1.input_elems(), 70u);
  // Lane-major slots: k lanes of ic·ih·iw elements, nothing more.
  EXPECT_EQ(c1.padded_multiples(), 70u * 4);
  ASSERT_EQ(c1.row_groups.size(), 4u);
  EXPECT_EQ(c1.row_groups[3], c1.shifts.size());
  EXPECT_EQ(c1.sign_masks.size(), c1.shifts.size());
  ASSERT_EQ(c1.group_begin.size(), c1.shifts.size() + 1);
  EXPECT_EQ(c1.group_begin[c1.shifts.size()], c1.idx.size());
  // 8-bit weights: two quartets, 7 magnitude bits, so shifts 0..6.
  for (const std::int64_t shift : c1.shifts) EXPECT_LT(shift, 7);
  // Every read (idx + any position base) stays in its slot's lane,
  // and a slot's element is a patch element at output position (0,0):
  // (channel · ih + ky) · iw + kx.
  for (const std::uint32_t slot : c1.idx) {
    EXPECT_LT(slot % 70 + c1.max_position_base(), 70u);
    EXPECT_EQ(c1.term_lane(slot), static_cast<int>(slot / 70));
    const std::uint32_t elem = slot % 70;  // channel · 35 + ky · 7 + kx
    EXPECT_LT(elem % 35 / 7, 3u);           // ky
    EXPECT_LT(elem % 7, 3u);                // kx
  }

  const ConvLayerPlan& c3 = plans[1];
  EXPECT_EQ(c3.oc, 4);
  EXPECT_EQ(c3.kernel, 2);
  EXPECT_EQ(c3.oh, 2);
  EXPECT_EQ(c3.ow, 4);

  // The conventional engine gets grouped plans over the full set: 8
  // lanes of lane-major slots, one row of groups per filter.
  FixedNetwork exact_engine(
      net, spec, LayerAlphabetPlan::conventional(net.num_weight_layers()));
  const ConvLayerPlan& e1 = exact_engine.conv_plans()[0];
  EXPECT_EQ(e1.k, 8);
  EXPECT_EQ(e1.padded_multiples(), 70u * 8);
  ASSERT_EQ(e1.row_groups.size(), 4u);
  EXPECT_FALSE(e1.idx.empty());
  for (const std::uint32_t slot : e1.idx) EXPECT_GE(e1.term_lane(slot), 0);
}

// A conv layer whose weights all quantize to zero ASM steps compiles
// to a plan with no groups and no terms; every backend must agree
// (outputs are pure biases).
TEST(BackendPlans, AllZeroWeightConvRunsOnEveryBackend) {
  man::util::Rng rng(5);
  Network net;
  auto& conv = net.add<Conv2D>(1, 2, 2, 4, 4);
  conv.init_xavier(rng);
  for (float& w : conv.weights()) w = 0.0f;
  net.add<Dense>(18, 2).init_xavier(rng);

  FixedNetwork engine(
      net, QuantSpec::bits8(),
      LayerAlphabetPlan::uniform_asm(net.num_weight_layers(),
                                     AlphabetSet::four()));
  ASSERT_EQ(engine.conv_plans().size(), 1u);
  EXPECT_TRUE(engine.conv_plans()[0].shifts.empty());
  EXPECT_TRUE(engine.conv_plans()[0].idx.empty());

  std::vector<float> pixels(engine.input_size());
  for (float& p : pixels) p = static_cast<float>(rng.next_double());
  auto scratch = engine.make_scratch();
  auto stats = engine.make_stats();
  std::vector<std::int64_t> reference(engine.output_size());
  engine.infer_into(pixels, reference, stats, scratch,
                    backend_for(BackendKind::kScalar));
  for (const auto* backend : all_backends()) {
    std::vector<std::int64_t> raw(engine.output_size());
    engine.infer_into(pixels, raw, stats, scratch, *backend);
    EXPECT_EQ(raw, reference) << "backend=" << backend->name();
  }
}

// Regression: merging stats that recorded zero inferences (a freshly
// constructed runner's labeled-but-idle stats, or an unlabeled
// make_stats() shape) must not flip a real result's backend label to
// "mixed" — only sides that actually ran carry a vote.
TEST(BackendStats, MergeIgnoresIdleSidesForBackendLabel) {
  const auto make = [](const char* backend, std::uint64_t inferences) {
    EngineStats stats;
    stats.layers.push_back(man::engine::LayerStats{"l0", 0, 0, {}});
    stats.backend = backend;
    stats.inferences = inferences;
    return stats;
  };

  // Idle labeled side merged into real work: label survives.
  EngineStats ran = make("scalar", 4);
  ran.merge(make("simd", 0));
  EXPECT_EQ(ran.backend, "scalar");

  // Real work merged into an idle labeled object: the work's label
  // wins over the construction-time label.
  EngineStats idle = make("simd", 0);
  idle.merge(make("scalar", 4));
  EXPECT_EQ(idle.backend, "scalar");

  // Unlabeled shapes (make_stats()) never vote in either direction.
  EngineStats unlabeled = make("", 0);
  unlabeled.merge(make("blocked", 2));
  EXPECT_EQ(unlabeled.backend, "blocked");
  unlabeled.merge(make("", 0));
  EXPECT_EQ(unlabeled.backend, "blocked");

  // Two real runs on different backends still flag "mixed".
  EngineStats mixed = make("scalar", 1);
  mixed.merge(make("simd", 1));
  EXPECT_EQ(mixed.backend, "mixed");
}

}  // namespace
}  // namespace man::backend
