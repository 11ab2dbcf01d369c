// Kernel-backend selection and bit-exactness: override precedence
// (programmatic beats MAN_BACKEND beats auto-detect), unknown
// MAN_BACKEND values throw, and one shared test vector produces
// bit-identical accumulators through every registered backend at
// 8- and 12-bit weights — the contract the Fig 9 replay gate enforces
// at scale in CI.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

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
  // Only the SIMD backends may ever report an accelerated code path.
  EXPECT_FALSE(backends[0]->accelerated());
  EXPECT_FALSE(backends[1]->accelerated());
  // Nothing can compile the vector paths out behind the platform gate:
  // each is live exactly when CPUID reports its ISA.
#if MAN_X86_KERNELS
  EXPECT_EQ(backends[2]->accelerated(), __builtin_cpu_supports("avx2") != 0);
  EXPECT_EQ(backends[3]->accelerated(),
            __builtin_cpu_supports("avx512f") != 0 &&
                __builtin_cpu_supports("avx512vl") != 0);
#else
  EXPECT_FALSE(backends[2]->accelerated());
  EXPECT_FALSE(backends[3]->accelerated());
#endif
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
// — every backend's accumulate_conv/exact_conv must match the scalar
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
/// not carry, as the independent oracle for the plane walks.
struct Schedule {
  std::vector<AsmWeight> weights;
  std::vector<AsmStep> steps;
};

/// `count` weights of 0..max_steps random steps over `k` lanes with
/// shifts below `bits`, random signs; weights where `empty(w)` get no
/// steps.
template <typename Empty>
Schedule random_schedule(std::size_t count, int k, int max_steps, int bits,
                         Empty empty, man::util::Rng& rng) {
  Schedule schedule;
  for (std::size_t i = 0; i < count; ++i) {
    AsmWeight w;
    w.step_begin = static_cast<std::uint32_t>(schedule.steps.size());
    w.step_count = empty(i) ? 0
                            : static_cast<std::uint8_t>(rng.next_below(
                                  static_cast<std::uint64_t>(max_steps) + 1));
    w.negative = rng.next_below(2) == 1;
    for (int s = 0; s < w.step_count; ++s) {
      schedule.steps.push_back(
          AsmStep{static_cast<std::uint8_t>(
                      rng.next_below(static_cast<std::uint64_t>(k))),
                  static_cast<std::uint8_t>(
                      rng.next_below(static_cast<std::uint64_t>(bits)))});
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

// kDenseTile samples' worth of signed bank outputs for `plan`, staged
// per sample (k-strided, zero slot last) and transposed into the
// sample-minor int32 tile; `expected` gets the scalar per-sample
// kernel's rows in the tile's output layout, checked against the AoS
// walk over `oracle` when the plan was built from one. Samples 0 and 1
// sit on the window's edges and sample 2 alternates between them, so
// the largest products the int32 proof admits are staged; the rest are
// random across the window.
void stage_tile(const DenseLayerPlan& plan, std::uint64_t seed,
                const Schedule* oracle, std::vector<std::int32_t>& tile,
                std::vector<std::int64_t>& expected) {
  constexpr std::size_t kTile = kDenseTile;
  const auto k = static_cast<std::size_t>(plan.k);
  const AlphabetSet set = AlphabetSet::first_n(k);
  const man::core::PrecomputerBank bank(set);
  ASSERT_TRUE(plan.has_input_range());
  ASSERT_LE(int32_row_bound(plan, set.alphabets()),
            std::numeric_limits<std::int32_t>::max());
  const std::int64_t lo = plan.in_min_raw;
  const std::int64_t hi = plan.in_max_raw;
  ASSERT_LT(lo, 0);
  man::util::Rng rng(seed);
  man::core::OpCounts discard;
  tile.assign(plan.padded_multiples() * kTile, 0);
  expected.assign(static_cast<std::size_t>(plan.rows) * kTile, 0);
  std::vector<std::int64_t> multiples(plan.padded_multiples(), 0);
  std::vector<std::int64_t> rows(static_cast<std::size_t>(plan.rows));
  for (std::size_t b = 0; b < kTile; ++b) {
    for (int c = 0; c < plan.cols; ++c) {
      std::int64_t x = rng.next_in(lo, hi);
      if (b == 0 || (b == 2 && c % 2 == 0)) x = lo;
      if (b == 1 || (b == 2 && c % 2 == 1)) x = hi;
      bank.compute_into(x, &multiples[static_cast<std::size_t>(c) * k],
                        discard);
    }
    backend_for(BackendKind::kScalar)
        .accumulate_dense(plan, multiples.data(), rows.data());
    for (int r = 0; oracle != nullptr && r < plan.rows; ++r) {
      std::int64_t acc = plan.biases[static_cast<std::size_t>(r)];
      for (int c = 0; c < plan.cols; ++c) {
        acc += aos_product(
            *oracle, static_cast<std::size_t>(r) * plan.cols + c,
            &multiples[static_cast<std::size_t>(c) * plan.k], 1);
      }
      EXPECT_EQ(rows[static_cast<std::size_t>(r)], acc)
          << "row " << r << " sample " << b;
    }
    for (std::size_t s = 0; s < multiples.size(); ++s) {
      tile[s * kTile + b] = static_cast<std::int32_t>(multiples[s]);
    }
    for (std::size_t r = 0; r < rows.size(); ++r) {
      expected[r * kTile + b] = rows[r];
    }
  }
}

void expect_tile_matches_scalar(const DenseLayerPlan& plan, std::uint64_t seed,
                                const std::string& label,
                                const Schedule* oracle = nullptr) {
  std::vector<std::int32_t> tile;
  std::vector<std::int64_t> expected;
  stage_tile(plan, seed, oracle, tile, expected);
  for (const auto* backend : all_backends()) {
    std::vector<std::int64_t> out(expected.size(), -7);
    backend->accumulate_dense_tile(plan, tile.data(), out.data());
    EXPECT_EQ(out, expected) << label << " backend=" << backend->name();
  }
}

// The batch-tiled dense kernel contract: every backend's int32
// accumulate_dense_tile, fed activations on and inside the staging
// window, equals kDenseTile scalar per-sample int64
// accumulate_dense calls, on compiled plans at both paper widths (13
// columns: cols % 8 != 0 and a padded tail; one all-zero row; more
// than one quartet plane) and on hand-built plans with 1-4 planes, so
// every compile-time plane specialization and the generic loop run.
// On the hand-built plans the scalar rows also equal the AoS walk over
// the schedule the plan was built from.
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
  ASSERT_GT(plan.planes, 1);
  ASSERT_NE(plan.cols % 8, 0);
  for (int q = 0; q < plan.planes; ++q) {
    for (int c = 0; c < plan.cols; ++c) {
      ASSERT_EQ(plan.idx[q * plan.plane_stride() +
                         2 * static_cast<std::size_t>(plan.cols_padded) +
                         static_cast<std::size_t>(c)],
                plan.zero_slot);
    }
  }
  expect_tile_matches_scalar(plan, 31, "bits=" + std::to_string(bits));

  for (int max_steps = 1; max_steps <= 4; ++max_steps) {
    constexpr int kRows = 5;
    constexpr int kCols = 11;
    // Row 1 has no steps.
    const Schedule schedule = random_schedule(
        kRows * kCols, 4, max_steps, bits,
        [](std::size_t w) { return w / kCols == 1; }, rng);
    std::vector<std::int64_t> biases(kRows);
    for (auto& b : biases) b = rng.next_in(-1000, 1000);
    DenseLayerPlan built = DenseLayerPlan::build_asm(
        kRows, kCols, 4, schedule.weights, schedule.steps, biases);
    built.in_min_raw = -512;  // a signed 10-bit window
    built.in_max_raw = 511;
    expect_tile_matches_scalar(
        built, 50 + static_cast<std::uint64_t>(max_steps),
        "bits=" + std::to_string(bits) +
            " planes=" + std::to_string(built.planes),
        &schedule);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperWidths, DenseTileBitIdentity,
                         ::testing::Values(8, 12));

// The conv twin of the hand-built dense check: random schedules of up
// to 1-4 steps per weight (one all-zero filter) on a two-channel 3×3
// kernel over a non-square input (18 columns, so a padded tail),
// through every backend's accumulate_conv and accumulate_conv_int32,
// against the AoS walk with patch elements computed here rather than
// read from the plan.
TEST(ConvPlanOracle, EveryBackendMatchesTheAosWalk) {
  constexpr int kOc = 3;
  constexpr int kIc = 2;
  constexpr int kKernel = 3;
  constexpr int kIh = 6;
  constexpr int kIw = 9;
  constexpr int kLanes = 4;
  constexpr int kCols = kIc * kKernel * kKernel;
  man::util::Rng rng(610);
  for (int max_steps = 1; max_steps <= 4; ++max_steps) {
    const Schedule schedule = random_schedule(
        kOc * kCols, kLanes, max_steps, 12,
        [](std::size_t w) { return w / kCols == 2; }, rng);
    std::vector<std::int64_t> biases(kOc);
    for (auto& b : biases) b = rng.next_in(-1000, 1000);
    ConvLayerPlan plan = ConvLayerPlan::build_asm(
        kOc, kIc, kKernel, kIh, kIw, kLanes, schedule.weights, schedule.steps,
        biases);
    // Lane-major multiples; the zero region stays 0. Every slot lies
    // in [-2048, 2047], which is what the row bound sees for a window
    // of ±2048 under unit alphabets: the int32 twin must fit.
    std::vector<std::int64_t> multiples(plan.padded_multiples(), 0);
    for (std::size_t s = 0; s < plan.zero_base; ++s) {
      multiples[s] = rng.next_in(-2048, 2047);
    }
    plan.in_min_raw = -2048;
    plan.in_max_raw = 2048;
    const std::vector<std::uint8_t> unit(kLanes, 1);
    ASSERT_LE(int32_row_bound(plan, unit),
              std::numeric_limits<std::int32_t>::max());
    const std::vector<std::int32_t> multiples32(multiples.begin(),
                                                multiples.end());

    const std::size_t elems = kIc * kIh * kIw;
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
                (channel * kIh + oy + ky) * kIw + ox + kx);
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
      EXPECT_EQ(out, expected) << "planes=" << plan.planes
                               << " backend=" << backend->name();
      std::vector<std::int64_t> out32(expected.size(), -7);
      backend->accumulate_conv_int32(plan, multiples32.data(), out32.data());
      EXPECT_EQ(out32, expected) << "int32 planes=" << plan.planes
                                 << " backend=" << backend->name();
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
  EXPECT_FALSE(plans[0].exact);
  EXPECT_EQ(plans[0].k, 4);
  EXPECT_EQ(plans[0].cols_padded % kLaneWidth, 0);
  EXPECT_GT(plans[0].planes, 0);
  EXPECT_EQ(plans[0].idx.size(),
            static_cast<std::size_t>(plans[0].planes) *
                plans[0].plane_stride());
  // 8-bit weights decompose into at most two quartets (paper Fig 4).
  EXPECT_LE(plans[0].planes, 2);
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
  EXPECT_FALSE(c1.exact);
  EXPECT_EQ(c1.oc, 3);
  EXPECT_EQ(c1.ic, 2);
  EXPECT_EQ(c1.kernel, 3);
  EXPECT_EQ(c1.ih, 5);
  EXPECT_EQ(c1.iw, 7);
  EXPECT_EQ(c1.oh, 3);
  EXPECT_EQ(c1.ow, 5);
  EXPECT_EQ(c1.cols, 2 * 3 * 3);
  EXPECT_EQ(c1.cols_padded % kLaneWidth, 0);
  EXPECT_GE(c1.cols_padded, c1.cols);
  EXPECT_EQ(c1.k, 4);
  EXPECT_GT(c1.planes, 0);
  EXPECT_LE(c1.planes, 2);  // 8-bit: at most two quartets
  EXPECT_EQ(c1.positions(), 15u);
  EXPECT_EQ(c1.input_elems(), 70u);
  EXPECT_EQ(c1.zero_base, 70u * 4);
  // The zero region must absorb the largest position base (element
  // units — the conv multiples buffer is lane-major).
  EXPECT_EQ(c1.padded_multiples(), c1.zero_base + (2u * 7 + 4) + 1);
  EXPECT_EQ(c1.idx.size(),
            static_cast<std::size_t>(c1.planes) * c1.plane_stride());
  EXPECT_EQ(c1.sign_masks.size(), c1.plane_stride());
  // Patch offsets follow the (ic, ky, kx) element layout: column 0 is
  // element 0, the first column of channel 1 is element ih·iw.
  ASSERT_EQ(c1.patch_elems.size(),
            static_cast<std::size_t>(c1.cols_padded));
  EXPECT_EQ(c1.patch_elems[0], 0u);
  EXPECT_EQ(c1.patch_elems[9], 5u * 7);
  // Every in-range gather (idx + max base) stays inside the buffer.
  for (std::uint32_t offset : c1.idx) {
    EXPECT_LT(offset + c1.max_position_base(), c1.padded_multiples());
  }

  const ConvLayerPlan& c3 = plans[1];
  EXPECT_EQ(c3.oc, 4);
  EXPECT_EQ(c3.kernel, 2);
  EXPECT_EQ(c3.oh, 2);
  EXPECT_EQ(c3.ow, 4);

  // The conventional engine gets exact conv plans with padded weights.
  FixedNetwork exact_engine(
      net, spec, LayerAlphabetPlan::conventional(net.num_weight_layers()));
  const ConvLayerPlan& e1 = exact_engine.conv_plans()[0];
  EXPECT_TRUE(e1.exact);
  EXPECT_EQ(e1.weights.size(),
            static_cast<std::size_t>(e1.oc) * e1.cols_padded);
  for (int r = 0; r < e1.oc; ++r) {
    for (int c = e1.cols; c < e1.cols_padded; ++c) {
      EXPECT_EQ(e1.weights[static_cast<std::size_t>(r) * e1.cols_padded + c],
                0);
    }
  }
}

// Regression: a conv layer whose weights all quantize to zero ASM
// steps compiles to a degenerate plan that must still carry one
// (all-absent) quartet plane — the blocked/SIMD kernels pre-read
// plane 0 for their zero-step skip, which would index an empty idx
// array otherwise. Every backend must agree (outputs are pure biases).
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
  EXPECT_EQ(engine.conv_plans()[0].planes, 1);

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
