// Seeded random networks against the test-side oracle
// (engine_oracle.h): small chains of dense, conv, pool and LUT stages,
// raw-fed Conv → Conv and Dense → Dense hops included (stages the
// engine runs on int64 lanes, on the scalar reference), under 4- to
// 16-bit weight and activation formats and one random scheme per
// synapse layer (conventional, MAN {1}, a random alphabet subset or the
// full set), with output widths around every vector width and pool
// windows 1 to 4. Each network is compiled, saved as an artifact and
// mapped back, then run on every backend through infer_into,
// infer_batch and a two-worker BatchRunner at 1, kDenseTile ± 1,
// kDenseTile and 2·kDenseTile + 1 samples. Every tiled dense stage
// must pass both tile proofs (rows in int32, slots in int16). Every
// fifth network is an edge network, whose saturated
// sample drives each row to its int32 row bound, just past INT32_MAX
// or just short of it. Networks run seed after seed, from 0, for a
// wall-clock budget (3 s; 20 s in an AddressSanitizer build, where each
// network runs several times slower) and at least kMinNetworks of them;
// each prints its seed and layers first, a failure names them too, and
// starting the loop at that seed replays it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "man/artifact/plan_artifact.h"
#include "man/backend/kernel_backend.h"
#include "man/core/activation.h"
#include "man/core/alphabet_set.h"
#include "man/engine/batch_runner.h"
#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/conv2d.h"
#include "man/nn/dense.h"
#include "man/nn/pool.h"
#include "man/util/rng.h"

#include "engine_oracle.h"

namespace man::engine {
namespace {

using man::core::ActivationKind;
using man::core::AlphabetSet;
using man::core::MultiplierKind;
using man::fixed::QFormat;
using man::nn::Network;
using man::nn::QuantSpec;
using man::util::Rng;

constexpr int kWidths[] = {1, 3, 4, 7, 8, 15, 16, 17, 31, 33};
constexpr auto kTile = static_cast<std::size_t>(man::backend::kDenseTile);
constexpr std::size_t kCounts[] = {1, kTile - 1, kTile, kTile + 1,
                                   2 * kTile + 1};
constexpr std::size_t kSamples = 2 * kTile + 1;
constexpr std::uint64_t kMinNetworks = 40;

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif
constexpr auto kBudget = std::chrono::seconds(kSanitized ? 20 : 3);

struct RandomNetwork {
  Network net;
  QuantSpec spec;
  LayerAlphabetPlan schemes;
  std::string label;  ///< formats, then one token per layer
};

/// A pool window for an h × w input: `preferred` when it divides both,
/// else the largest of 4, 3, 2 that does, else 1.
int pool_window(int h, int w, int preferred) {
  if (h % preferred == 0 && w % preferred == 0) return preferred;
  for (int window = 4; window > 1; --window) {
    if (h % window == 0 && w % window == 0) return window;
  }
  return 1;
}

/// How a synapse layer's weights are drawn.
enum class Weights {
  kXavier,  ///< Xavier-initialized
  kHeavy,   ///< magnitude 1 to 1.9 (near the top of the Q1.x range, so
            ///< wide formats leave the int32 proof), random signs or
            ///< all positive
  kEdge,    ///< one positive weight, sized so the rows' bound over the
            ///< window lands within a factor 1.5 of INT32_MAX, on
            ///< either side of the proof
};

/// Draws the weights of a layer with `fan_in` terms per row (already
/// Xavier-initialized) under `spec`; kEdge falls back to kHeavy where
/// the formats cannot reach INT32_MAX. Biases over ±0.5. Returns the
/// label of the weights drawn: "", " heavy" or " edge".
std::string init_synapse(std::span<float> weights, std::span<float> biases,
                         std::size_t fan_in, const QuantSpec& spec,
                         Weights kind, Rng& rng) {
  // Every weight `raw` units: a bound of |x| · fan_in · raw.
  const double raw = std::round(
      static_cast<double>(std::numeric_limits<std::int32_t>::max()) *
      rng.next_double_in(1 / 1.5, 1.5) /
      (static_cast<double>(spec.activation_format.max_raw()) *
       static_cast<double>(fan_in)));
  std::string label;
  if (kind == Weights::kEdge && raw >= 1 &&
      raw <= spec.weight_format.max_raw()) {
    for (float& w : weights) {
      w = static_cast<float>(raw / spec.weight_format.scale());
    }
    label = " edge";
  } else if (kind != Weights::kXavier) {
    const bool positive = rng.next_bool();
    for (float& w : weights) {
      const auto magnitude =
          static_cast<float>(rng.next_double_in(1.0, 1.9));
      w = positive || rng.next_bool() ? magnitude : -magnitude;
    }
    label = " heavy";
  }
  for (float& b : biases) {
    b = static_cast<float>(rng.next_double_in(-0.5, 0.5));
  }
  return label;
}

/// A random scheme: conventional, MAN {1}, the full set, or ASM over 1
/// and a random subset of {3, …, 15}.
LayerScheme random_scheme(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0:
      return LayerScheme{MultiplierKind::kExact, AlphabetSet::full()};
    case 1:
      return LayerScheme{MultiplierKind::kMan, AlphabetSet::man()};
    case 2:
      return LayerScheme{MultiplierKind::kAsm, AlphabetSet::full()};
    default: {
      std::vector<int> alphabets = {1};
      for (int a = 3; a <= AlphabetSet::kMaxAlphabetValue; a += 2) {
        if (rng.next_bool(0.4)) alphabets.push_back(a);
      }
      return LayerScheme{MultiplierKind::kAsm, AlphabetSet(alphabets)};
    }
  }
}

/// Network `seed`: its first synapse layer's output width is
/// kWidths[seed % 10], and its pools prefer window 1 + (seed / 10) % 4.
/// Every fifth network is an edge network: 16-bit formats, activations
/// in (-1, 1) so every saturated LUT output is the window's edge, a LUT
/// in front of every synapse stage but the first, and kEdge weights
/// throughout, so a sample of saturated pixels drives every row to
/// its bound, just past INT32_MAX or just short of it.
RandomNetwork random_network(std::uint64_t seed) {
  Rng rng(seed);
  RandomNetwork out;
  const bool edge = seed % 5 == 4;
  const int wbits = edge ? 16 : 4 + static_cast<int>(rng.next_below(13));
  const int abits = edge ? 16 : 4 + static_cast<int>(rng.next_below(13));
  out.spec.weight_format = QFormat(wbits, wbits - 2);
  out.spec.activation_format = QFormat(
      abits, abits - 1 - (edge ? 0 : static_cast<int>(rng.next_below(2))));
  out.label = "w" + out.spec.weight_format.to_string() + " a" +
              out.spec.activation_format.to_string();
  const int width = kWidths[seed % std::size(kWidths)];
  const int window = 1 + static_cast<int>(seed / std::size(kWidths) % 4);
  const ActivationKind kinds[] = {ActivationKind::kTanh,
                                  ActivationKind::kSigmoid,
                                  ActivationKind::kRelu,
                                  ActivationKind::kIdentity};
  Network& net = out.net;
  const auto add_lut = [&] {
    const ActivationKind kind = kinds[rng.next_below(4)];
    net.add<man::nn::ActivationLayer>(kind);
    out.label += " " + man::core::to_string(kind);
  };

  // The input: a flat vector, or an image c × h × w sized so that a
  // first conv of kernel k0 has rows `window` divides and `width`
  // output columns, or `window` times as many when a pool of that
  // window follows it (so the pooled rows are `width` wide).
  bool image = rng.next_bool(0.6);
  const bool pool_after_conv = image && rng.next_bool(0.7);
  const int k0 = 1 + static_cast<int>(rng.next_below(3));
  int c = 1 + static_cast<int>(rng.next_below(2));
  int h = window * (1 + static_cast<int>(rng.next_below(2))) + k0 - 1;
  int w = width * (pool_after_conv ? window : 1) + k0 - 1;
  std::size_t flat = 1 + rng.next_below(40);
  const auto size = [&] {
    return image ? static_cast<std::size_t>(c) * h * w : flat;
  };

  // log2 of a bound on the last synapse stage's outputs: fan-in ×
  // largest weight × largest input. A stage may be fed them raw (no
  // LUT in between) only while its own outputs stay far inside int64,
  // in the oracle as in the engine.
  const int wmax = wbits - 1;
  const int amax = abits - 1;
  double out_log2 = 0.0;
  const int synapses = 2 + static_cast<int>(rng.next_below(2));
  std::vector<LayerScheme> schemes;
  for (int s = 0; s < synapses; ++s) {
    // The boundary: an optional pool on images and an optional LUT,
    // in either order.
    const std::size_t fan_in_max = size();
    const bool raw_fits =
        std::log2(static_cast<double>(fan_in_max)) + wmax + out_log2 < 60.0;
    const bool lut = s == 0 ? !edge && rng.next_bool(0.2)
                            : edge || !raw_fits || rng.next_bool(0.7);
    const bool pool = image && (s == 1 ? pool_after_conv
                                       : rng.next_bool(s == 0 ? 0.1 : 0.4));
    const bool pool_first = rng.next_bool(0.3);
    if (lut && !(pool && pool_first)) add_lut();
    if (pool) {
      const int pw = pool_window(h, w, window);
      net.add<man::nn::AvgPool2D>(c, h, w, pw);
      out.label += " pool" + std::to_string(pw);
      h /= pw;
      w /= pw;
    }
    if (lut && pool && pool_first) add_lut();
    const bool raw_fed = s > 0 && !lut;
    const auto draw = rng.next_below(4);
    Weights weights = draw < 2    ? Weights::kXavier
                      : draw == 2 ? Weights::kHeavy
                                  : Weights::kEdge;
    if (edge) weights = Weights::kEdge;
    // Raw accumulators have no window edge to size kEdge weights by.
    if (raw_fed && weights == Weights::kEdge) weights = Weights::kHeavy;

    const bool conv = image && rng.next_bool(s == 0 ? 0.9 : 0.6);
    if (conv) {
      const int k =
          std::min({s == 0 ? k0 : 1 + static_cast<int>(rng.next_below(3)), h,
                    w});
      const int oc = 1 + static_cast<int>(rng.next_below(3));
      auto& layer = net.add<man::nn::Conv2D>(c, oc, k, h, w);
      layer.init_xavier(rng);
      const std::string mode = init_synapse(
          layer.weights(), layer.biases(), static_cast<std::size_t>(c) * k * k,
          out.spec, weights, rng);
      out.label += " conv" + std::to_string(c) + "x" + std::to_string(h) +
                   "x" + std::to_string(w) + "->" + std::to_string(oc) +
                   "(k" + std::to_string(k) + mode + ")";
      out_log2 = std::log2(static_cast<double>(c) * k * k) + wmax +
                 (raw_fed ? out_log2 : amax);
      c = oc;
      h -= k - 1;
      w -= k - 1;
    } else {
      const std::size_t in = size();
      const int features =
          s == 0 ? width : kWidths[rng.next_below(std::size(kWidths))];
      auto& layer = net.add<man::nn::Dense>(static_cast<int>(in), features);
      layer.init_xavier(rng);
      const std::string mode = init_synapse(layer.weights(), layer.biases(),
                                            in, out.spec, weights, rng);
      out.label += " dense" + std::to_string(in) + "->" +
                   std::to_string(features) + mode;
      out_log2 = std::log2(static_cast<double>(in)) + wmax +
                 (raw_fed ? out_log2 : amax);
      image = false;
      flat = static_cast<std::size_t>(features);
    }
    if (raw_fed) out.label += "(raw-fed)";
    schemes.push_back(random_scheme(rng));
    out.label += "[" + schemes.back().label() + "]";
  }
  if (rng.next_bool(0.3)) add_lut();
  out.schemes = LayerAlphabetPlan(std::move(schemes));
  return out;
}

/// Every stage on int32 lanes passes the row bound over the staging
/// window: a conv plan on int32 lanes, and every dense plan from the
/// batch tile on, which must also stage int16 slots
/// (int16_tile_chunk() ≥ 1).
void expect_lanes_proven(const FixedNetwork& engine,
                         const LayerAlphabetPlan& schemes) {
  const auto& stages = engine.compiled_model().stages;
  std::size_t synapse = 0;
  std::size_t dense = 0;
  std::size_t conv = 0;
  const auto alphabets = [&] {
    return schemes.scheme(synapse).effective_alphabets().alphabets();
  };
  const auto fits = [&](const auto& plan) {
    return man::backend::int32_row_bound(plan, alphabets()) <
           man::backend::kInt32RowOverflow;
  };
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (std::holds_alternative<CompiledDenseStage>(stages[i])) {
      if (i >= engine.tile_begin()) {
        const auto& plan = engine.plans()[dense];
        const int chunk = man::backend::int16_tile_chunk(plan);
        EXPECT_TRUE(fits(plan)) << "dense plan " << dense;
        EXPECT_GE(chunk, 1) << "dense plan " << dense << " int16 chunk "
                            << chunk;
      }
      ++dense;
      ++synapse;
    } else if (std::holds_alternative<CompiledConvStage>(stages[i])) {
      if (engine.conv_int32_lanes(conv)) {
        EXPECT_TRUE(fits(engine.conv_plans()[conv])) << "conv plan " << conv;
      }
      ++conv;
      ++synapse;
    }
  }
}

/// `engine` on every backend, through every route, at every count of
/// kCounts, against `expected` (the oracle over kSamples samples).
void expect_every_route_matches(const FixedNetwork& engine,
                                const std::vector<float>& pixels,
                                const std::vector<std::int64_t>& expected) {
  const std::size_t in = engine.input_size();
  const std::size_t out = engine.output_size();
  const std::span<const float> all(pixels);
  for (const auto* backend : man::backend::all_backends()) {
    SCOPED_TRACE(backend->name());
    auto scratch = engine.make_scratch();
    auto stats = engine.make_stats();
    std::vector<std::int64_t> got(expected.size());
    const std::span<std::int64_t> rows(got);
    for (std::size_t s = 0; s < kSamples; ++s) {
      engine.infer_into(all.subspan(s * in, in), rows.subspan(s * out, out),
                        stats, scratch, *backend);
    }
    EXPECT_EQ(got, expected) << "infer_into";
    BatchRunner runner(engine,
                       BatchOptions{.workers = 2, .backend = backend->kind()});
    for (const std::size_t count : kCounts) {
      const std::vector<std::int64_t> want(
          expected.begin(),
          expected.begin() + static_cast<std::ptrdiff_t>(count * out));
      std::vector<std::int64_t> batch(count * out);
      engine.infer_batch(all.first(count * in), batch, stats, scratch,
                         *backend);
      EXPECT_EQ(batch, want) << "infer_batch of " << count;
      std::vector<std::int64_t> run(count * out);
      runner.run(all.first(count * in), run);
      EXPECT_EQ(run, want) << "BatchRunner of " << count;
    }
  }
}

TEST(RandomNetworks, MatchTheOracleOnEveryBackendAndRoute) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("man_random_networks_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t seed = 0;
  for (; seed < kMinNetworks ||
         std::chrono::steady_clock::now() - start < kBudget;
       ++seed) {
    RandomNetwork random = random_network(seed);
    // One line per network, so even a crash names the seed it hit.
    std::cout << "[ RANDOM   ] seed " << seed << ": " << random.label
              << std::endl;
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + random.label);
    const std::string key = "random-" + std::to_string(seed);
    const std::string path = (dir / (key + ".plan")).string();
    {
      const FixedNetwork compiled(random.net, random.spec, random.schemes);
      man::artifact::save_engine(compiled, path, key);
    }
    const auto engine = man::artifact::load_engine(path, key);
    expect_lanes_proven(*engine, random.schemes);

    // Sample 0 saturates every pixel high and sample 1 low (past the
    // clamp of every format here); the rest are random, some past it.
    const std::size_t in = engine->input_size();
    Rng rng(seed ^ 0x5eed);
    std::vector<float> pixels(kSamples * in);
    for (std::size_t i = 0; i < pixels.size(); ++i) {
      pixels[i] = i < in       ? 4.0f
                  : i < 2 * in ? -4.0f
                               : static_cast<float>(
                                     rng.next_double_in(-1.25, 1.25));
    }
    const std::vector<std::int64_t> expected = oracle::forward_batch(
        random.net, random.spec, random.schemes, pixels, in);
    EXPECT_EQ(expected.size(), kSamples * engine->output_size());
    expect_every_route_matches(*engine, pixels, expected);
    std::filesystem::remove(path);
    if (HasFailure()) break;  // the first failing seed is the one to replay
  }
  std::filesystem::remove_all(dir);
  if (!HasFailure()) std::cout << "[ RANDOM   ] " << seed << " networks\n";
}

}  // namespace
}  // namespace man::engine
