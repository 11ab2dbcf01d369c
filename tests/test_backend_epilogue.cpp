// The kernel backends' epilogue sweeps (KernelBackend::stage_pixels,
// lut_pool2_stage, stage_pixels_tile, lut_stage_tile) against the
// scalar reference templates of man/backend/epilogue_sweep.h, on every
// registered backend: LUT inputs at every bucket seam and clamp edge
// and the int64 extremes, pool rows of every width from 1 to 17
// outputs (so the overlapping last vector and each half-width drop
// run), tiles of 1 to 600 rows and of images of 1 to 1,558 pixels, at
// k = 1, 2, 4 and 8, and pixels at rounding ties, non-finite values,
// denormals and beyond the clamp.
//
// The decline contract: a sweep that returns true must equal the
// reference and write nothing past its output; one that returns false
// leaves the boundary to the reference, which FixedNetwork then runs.
// The scalar backend declines every case. An accelerated() backend
// must sweep every in-window case but the documented declines: a pixel
// format float lanes cannot quantize, a pixel row under 4 values, and
// a table without the in-register proof (an unconfigured one has
// none). Every backend declines a staged value outside the table's
// window, and the reference throws what PrecomputerCache::lookup
// throws for the first such value in its order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "man/backend/epilogue_sweep.h"
#include "man/backend/kernel_backend.h"
#include "man/core/activation.h"
#include "man/core/alphabet_set.h"
#include "man/core/precomputer_bank.h"
#include "man/engine/fixed_network.h"
#include "man/fixed/qformat.h"
#include "man/nn/activation_layer.h"
#include "man/nn/conv2d.h"
#include "man/nn/dense.h"
#include "man/nn/pool.h"
#include "man/util/rng.h"

namespace man::backend {
namespace {

using man::core::ActivationKind;
using man::core::AlphabetSet;
using man::core::FixedActivationLut;
using man::core::PrecomputerBank;
using man::core::PrecomputerCache;
using man::fixed::QFormat;
using epilogue::LaneMajorSink;
using epilogue::LutSource;
using epilogue::TileSlots;
using epilogue::ValueSink;
using epilogue::ValueSource;

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr auto kTile = static_cast<std::size_t>(kDenseTile);

// The engine's formats: 12-bit weights (Q1.10) × Q0.8 activations
// accumulate at frac 18; LUT outputs and staged values are Q0.8.
QFormat accumulator_format() { return QFormat(30, 18); }
QFormat activation_format() { return QFormat::input8(); }

// A bank's staging table over the activation format's window.
struct Table {
  PrecomputerBank bank;
  PrecomputerCache cache;
  explicit Table(std::size_t k,
                 std::int64_t min_raw = activation_format().min_raw(),
                 std::int64_t max_raw = activation_format().max_raw())
      : bank(AlphabetSet::first_n(k)), cache(bank) {
    cache.configure_range(min_raw, max_raw);
  }
};

// A staging table's rows, window-checked (PrecomputerCache::lookup).
struct TableRows {
  PrecomputerCache::View table;
  const std::int64_t* operator()(std::int64_t input) const {
    return table.lookup(input);
  }
};

// Scalar references.
std::vector<std::int64_t> reference_pool(const std::vector<std::int64_t>& in,
                                         const Pool2Shape& shape,
                                         const FixedActivationLut& lut) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(shape.c) *
                                shape.oh * shape.ow);
  epilogue::pool_sweep<2>(
      static_cast<std::size_t>(shape.c) * shape.oh,
      2 * static_cast<std::size_t>(shape.ow), 2, nullptr,
      LutSource<ValueSource>{ValueSource{in.data()}, lut.raw_path()},
      ValueSink{out.data()});
  return out;
}

// Lane-major int32 slots of `values` staged from `table`.
std::vector<std::int32_t> reference_stage(
    const std::vector<std::int64_t>& values,
    const PrecomputerCache::View& table) {
  std::vector<std::int32_t> slots(values.size() * table.k);
  LaneMajorSink<std::int32_t, TableRows> sink{
      {table}, slots.data(), table.k, values.size()};
  for (std::size_t o = 0; o < values.size(); ++o) sink(o, values[o]);
  return slots;
}

// Sample-minor int16 tile slots of `values` (element i of sample b at
// values[i·kDenseTile + b]) staged inside `table`'s window.
std::vector<std::int16_t> reference_tile(
    const std::vector<std::int64_t>& values,
    const PrecomputerCache::View& table) {
  std::vector<std::int16_t> tile(values.size());
  const TileSlots slots{table, tile.data()};
  for (std::size_t o = 0; o < values.size(); ++o) {
    slots(o / kTile, o % kTile, values[o]);
  }
  return tile;
}

// A tile's images (kDenseTile samples of n pixels, one after another)
// quantized and staged sample by sample, as FixedNetwork's reference
// sweep stages them.
std::vector<std::int16_t> reference_pixel_tile(
    const std::vector<float>& pixels, const QFormat& format,
    const PrecomputerCache::View& table) {
  const std::size_t n = pixels.size() / kTile;
  std::vector<std::int16_t> tile(pixels.size());
  const TileSlots slots{table, tile.data()};
  const epilogue::PixelSource source{pixels.data(), format};
  for (std::size_t b = 0; b < kTile; ++b) {
    for (std::size_t i = 0; i < n; ++i) slots(i, b, source(b * n + i));
  }
  return tile;
}

std::vector<std::int64_t> reference_lut(const std::vector<std::int64_t>& in,
                                        const FixedActivationLut& lut) {
  const LutSource<ValueSource> source{ValueSource{in.data()},
                                      lut.raw_path()};
  std::vector<std::int64_t> out;
  for (std::size_t i = 0; i < in.size(); ++i) out.push_back(source(i));
  return out;
}

std::vector<std::int64_t> reference_quantize(const std::vector<float>& pixels,
                                             const QFormat& format) {
  std::vector<std::int64_t> values;
  const epilogue::PixelSource source{pixels.data(), format};
  for (std::size_t i = 0; i < pixels.size(); ++i) values.push_back(source(i));
  return values;
}

// Whether a case is one an accelerated backend must sweep.
enum class Case { kSwept, kDeclined };

// `sweep(backend, out)` on every backend, into staged.size() slots
// (int32 conv lanes or int16 tile lanes) and a sentinel past them. The
// scalar backend declines; an accelerated one sweeps unless the case
// is a documented decline; a backend that sweeps writes `staged` and
// leaves the sentinel.
template <typename Slot, typename Sweep>
void expect_sweeps_match(const std::vector<Slot>& staged, Case c,
                         Sweep sweep) {
  for (const KernelBackend* backend : all_backends()) {
    SCOPED_TRACE(backend->name());
    std::vector<Slot> out(staged.size() + 1, -7);
    const bool swept = sweep(*backend, out.data());
    if (backend->kind() == BackendKind::kScalar) {
      EXPECT_FALSE(swept);
    } else if (backend->accelerated()) {
      EXPECT_EQ(swept, c == Case::kSwept);
    }
    if (!swept) continue;
    EXPECT_EQ(out.back(), -7);
    out.pop_back();
    EXPECT_EQ(out, staged);
  }
}

// Every backend's lut_pool2_stage over `in` against the references.
void expect_pools_match(const std::vector<std::int64_t>& in,
                        const Pool2Shape& shape,
                        const FixedActivationLut& lut, std::size_t k) {
  SCOPED_TRACE("c=" + std::to_string(shape.c) + " oh=" +
               std::to_string(shape.oh) + " ow=" + std::to_string(shape.ow) +
               " k=" + std::to_string(k));
  const Table table(k);
  const PrecomputerCache::View view = table.cache.view();
  const std::vector<std::int64_t> pooled = reference_pool(in, shape, lut);
  expect_sweeps_match(
      reference_stage(pooled, view), Case::kSwept,
      [&](const KernelBackend& backend, std::int32_t* slots) {
        return backend.lut_pool2_stage(in.data(), shape, lut.raw_path(), view,
                                       slots, pooled.size());
      });
}

// Every backend's stage_pixels over `pixels` against the references:
// an image under 4 pixels is a documented decline, and so is a format
// float lanes cannot quantize (`c`).
void expect_pixels_match(const std::vector<float>& pixels, std::size_t k,
                         const QFormat& format = activation_format(),
                         Case c = Case::kSwept) {
  SCOPED_TRACE("n=" + std::to_string(pixels.size()) + " k=" +
               std::to_string(k) + " " + format.to_string());
  const Table table(k);
  const PrecomputerCache::View view = table.cache.view();
  expect_sweeps_match(
      reference_stage(reference_quantize(pixels, format), view),
      pixels.size() < 4 ? Case::kDeclined : c,
      [&](const KernelBackend& backend, std::int32_t* slots) {
        return backend.stage_pixels(pixels, format, view, slots,
                                    pixels.size());
      });
}

// Every backend's lut_stage_tile over `acc` (row i of sample b at
// acc[i·kDenseTile + b]) against the references.
void expect_lut_tiles_match(const std::vector<std::int64_t>& acc,
                            const FixedActivationLut& lut, std::size_t k) {
  const std::size_t elements = acc.size() / kTile;
  SCOPED_TRACE("rows=" + std::to_string(elements) + " k=" +
               std::to_string(k));
  const Table table(k);
  const PrecomputerCache::View view = table.cache.view();
  expect_sweeps_match(
      reference_tile(reference_lut(acc, lut), view), Case::kSwept,
      [&](const KernelBackend& backend, std::int16_t* tile) {
        return backend.lut_stage_tile(acc.data(), elements, lut.raw_path(),
                                      view, tile);
      });
}

// Every backend's stage_pixels_tile over `pixels` (kDenseTile images,
// one after another) against the references, from a table over
// `window` (the format's own range by default).
void expect_pixel_tiles_match(const std::vector<float>& pixels,
                              const QFormat& format, std::size_t k,
                              Case c = Case::kSwept,
                              const Table* window = nullptr) {
  const std::size_t n = pixels.size() / kTile;
  SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) + " " +
               format.to_string());
  std::optional<Table> own;
  if (window == nullptr) {
    window = &own.emplace(k, format.min_raw(), format.max_raw());
  }
  const PrecomputerCache::View view = window->cache.view();
  expect_sweeps_match(
      reference_pixel_tile(pixels, format, view), c,
      [&](const KernelBackend& backend, std::int16_t* tile) {
        return backend.stage_pixels_tile(pixels, format, view, tile);
      });
}

// Every LUT bucket seam ±1 (the first input of each table index and
// its neighbours), the clamp edges ±2, and the int64 extremes.
std::vector<std::int64_t> lut_probe_inputs(const FixedActivationLut& lut) {
  const auto path = lut.raw_path();
  const std::int64_t clip = path.clip_raw;
  const std::int64_t step = std::int64_t{1} << path.index_shift;  // 2C
  std::vector<std::int64_t> inputs;
  for (std::int64_t j = 1; j <= path.index_scale; ++j) {
    // Smallest x with ((x + C)·S + C) ≥ j·2C.
    const std::int64_t numerator = j * step - clip;
    const std::int64_t seam =
        (numerator + path.index_scale - 1) / path.index_scale - clip;
    for (std::int64_t d : {-1, 0, 1}) inputs.push_back(seam + d);
  }
  for (std::int64_t edge : {-clip, clip}) {
    for (std::int64_t d = -2; d <= 2; ++d) inputs.push_back(edge + d);
  }
  for (std::int64_t extreme : {kMin, kMin + 1, kMax - 1, kMax}) {
    inputs.push_back(extreme);
  }
  return inputs;
}

TEST(BackendEpilogue, LutMatchesAtEverySeamEdgeAndExtreme) {
  for (ActivationKind kind : {ActivationKind::kTanh, ActivationKind::kSigmoid,
                              ActivationKind::kRelu}) {
    const FixedActivationLut lut(kind, accumulator_format(),
                                 activation_format());
    const std::vector<std::int64_t> probes = lut_probe_inputs(lut);
    // Each probe fills a whole 2×2 window, so its pooled value is its
    // LUT entry exactly; 3 channels of 17-output rows.
    const Pool2Shape shape{
        3, static_cast<int>((probes.size() + 50) / 51), 17};
    const std::size_t iw = 2 * static_cast<std::size_t>(shape.ow);
    std::vector<std::int64_t> in(static_cast<std::size_t>(shape.c) *
                                     shape.oh * 2 * iw,
                                 0);
    for (std::size_t o = 0; o < probes.size(); ++o) {
      const std::size_t row = o / shape.ow;
      const std::size_t col = o % shape.ow;
      for (std::size_t dy = 0; dy < 2; ++dy) {
        for (std::size_t dx = 0; dx < 2; ++dx) {
          in[(2 * row + dy) * iw + 2 * col + dx] = probes[o];
        }
      }
    }
    SCOPED_TRACE(man::core::to_string(kind));
    const std::vector<std::int64_t> pooled = reference_pool(in, shape, lut);
    for (std::size_t o = 0; o < probes.size(); ++o) {
      ASSERT_EQ(pooled[o], lut.apply_raw(probes[o])) << probes[o];
    }
    expect_pools_match(in, shape, lut, 4);

    // The same probes in mixed windows.
    std::vector<std::int64_t> mixed = in;
    for (std::size_t i = 0; i < mixed.size(); ++i) {
      mixed[i] = probes[(i * 7) % probes.size()];
    }
    expect_pools_match(mixed, shape, lut, 4);
  }
}

TEST(BackendEpilogue, PoolRowsOfEveryWidthMatch) {
  const FixedActivationLut lut(ActivationKind::kTanh, accumulator_format(),
                               activation_format());
  const std::int64_t clip = lut.raw_clamp_hi();
  man::util::Rng rng(26);
  for (int iw = 2; iw <= 34; iw += 2) {
    for (int c = 1; c <= 3; ++c) {
      const Pool2Shape shape{c, 3, iw / 2};
      std::vector<std::int64_t> in(static_cast<std::size_t>(c) * 6 * iw);
      for (std::int64_t& v : in) {
        v = static_cast<std::int64_t>(rng.next_double() * 3.0 * clip) -
            (3 * clip) / 2;
      }
      for (std::size_t k : {1u, 2u, 4u, 8u}) {
        expect_pools_match(in, shape, lut, k);
      }
    }
  }
}

// Pixels at every rounding tie of `format` ± one ulp, non-finite
// values, denormals, the clamp edges ± one step and beyond, both signs.
std::vector<float> probe_pixels(const QFormat& format) {
  const auto scale = static_cast<float>(format.scale());
  std::vector<float> pixels = {
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::max(),
      std::numeric_limits<float>::lowest(),
      1.0f,
      -1.0f,
      2.0f,
      -2.0f,
      1e30f,
      -1e30f};
  // Every rounding tie k + 0.5 of the format's range and one ulp to
  // either side, with both signs, and the clamp edge ± one step.
  for (int k = 0; k <= format.max_raw(); ++k) {
    const float tie = (static_cast<float>(k) + 0.5f) / scale;
    for (float v :
         {tie, std::nextafter(tie, 0.0f), std::nextafter(tie, 2.0f)}) {
      pixels.push_back(v);
      pixels.push_back(-v);
    }
  }
  const float edge = static_cast<float>(format.max_raw()) / scale;
  for (float v : {edge, edge + 1.0f / scale, edge - 1.0f / scale}) {
    pixels.push_back(v);
    pixels.push_back(-v);
  }
  return pixels;
}

TEST(BackendEpilogue, PixelsMatchAtTiesNonFiniteAndBeyondTheClamp) {
  const std::vector<float> pixels = probe_pixels(activation_format());
  for (std::size_t k : {1u, 4u, 8u}) expect_pixels_match(pixels, k);

  // Short images run the half-width drops and the overlapping tail.
  for (std::size_t n = 1; n <= 40; ++n) {
    const std::vector<float> head(pixels.begin() + 100,
                                  pixels.begin() + 100 + n);
    expect_pixels_match(head, 4);
  }
}

TEST(BackendEpilogue, LutTilesMatchAtEverySeamEdgeAndExtreme) {
  for (ActivationKind kind : {ActivationKind::kTanh, ActivationKind::kSigmoid,
                              ActivationKind::kRelu}) {
    const FixedActivationLut lut(kind, accumulator_format(),
                                 activation_format());
    const std::vector<std::int64_t> probes = lut_probe_inputs(lut);
    SCOPED_TRACE(man::core::to_string(kind));
    // Each probe in its own slot, then the probes shifted across the
    // sample lanes so each one meets every lane.
    const std::size_t size = (probes.size() + kTile - 1) / kTile * kTile;
    for (std::size_t shift : {0u, 1u, 7u, 15u, 31u}) {
      std::vector<std::int64_t> acc(size);
      for (std::size_t o = 0; o < size; ++o) {
        acc[o] = probes[(o * (shift + 1) + shift) % probes.size()];
      }
      expect_lut_tiles_match(acc, lut, 4);
    }
  }
}

TEST(BackendEpilogue, LutTilesOfEveryRowCountMatch) {
  const FixedActivationLut lut(ActivationKind::kTanh, accumulator_format(),
                               activation_format());
  const std::int64_t clip = lut.raw_clamp_hi();
  man::util::Rng rng(27);
  std::vector<std::int64_t> acc(600 * kTile);
  for (std::int64_t& v : acc) v = rng.next_in(-2 * clip, 2 * clip);
  for (std::size_t rows = 1; rows <= 600; ++rows) {
    const std::vector<std::int64_t> head(acc.begin(),
                                         acc.begin() + rows * kTile);
    expect_lut_tiles_match(head, lut, 4);
    if (rows <= 17 || rows % 97 == 0 || rows == 580 || rows == 600) {
      for (std::size_t k : {1u, 2u, 8u}) expect_lut_tiles_match(head, lut, k);
    }
  }
}

TEST(BackendEpilogue, PixelTilesMatchAtTiesNonFiniteAndBeyondTheClamp) {
  for (const QFormat format : {activation_format(), QFormat(13, 12)}) {
    const std::vector<float> probes = probe_pixels(format);
    std::vector<std::size_t> sizes;
    for (std::size_t n = 1; n <= 64; ++n) sizes.push_back(n);
    for (std::size_t n : {100u, 577u, 1024u, 1558u}) sizes.push_back(n);
    for (std::size_t n : sizes) {
      // Probe p lands in sample (p·n) / total mod kDenseTile, so the
      // probes spread over every lane and element.
      std::vector<float> pixels(n * kTile);
      for (std::size_t o = 0; o < pixels.size(); ++o) {
        pixels[o] = probes[(o * 5 + n) % probes.size()];
      }
      expect_pixel_tiles_match(pixels, format, 4);
      if (n == 1 || n == 17 || n == 1558) {
        for (std::size_t k : {1u, 2u, 8u}) {
          expect_pixel_tiles_match(pixels, format, k);
        }
      }
    }
    // Every probe once, in every lane.
    const std::size_t n = probes.size();
    std::vector<float> pixels(n * kTile);
    for (std::size_t o = 0; o < pixels.size(); ++o) {
      pixels[o] = probes[(o + o / n) % n];
    }
    expect_pixel_tiles_match(pixels, format, 4);
  }
}

// Expects `fn` to throw the std::out_of_range PrecomputerCache::lookup
// throws for `input`.
template <typename Fn>
void expect_window_miss(const PrecomputerCache& cache, std::int64_t input,
                        Fn&& fn) {
  std::string expected;
  try {
    man::core::OpCounts counts;
    (void)cache.lookup(input, counts);
  } catch (const std::out_of_range& e) {
    expected = e.what();
  }
  ASSERT_FALSE(expected.empty());
  try {
    fn();
    ADD_FAILURE() << "no exception for input " << input;
  } catch (const std::out_of_range& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

// Every backend declines `sweep` into `slots` Slot values.
template <typename Slot = std::int32_t, typename Sweep>
void expect_declined(std::size_t slots, Sweep sweep) {
  for (const KernelBackend* backend : all_backends()) {
    SCOPED_TRACE(backend->name());
    std::vector<Slot> out(slots);
    EXPECT_FALSE(sweep(*backend, out.data()));
  }
}

// A value outside the table's window: every backend declines, and the
// reference throws for the first miss in its order.
TEST(BackendEpilogue, OutOfWindowValuesAreDeclinedAndTheReferenceThrows) {
  const QFormat format = activation_format();
  const FixedActivationLut lut(ActivationKind::kTanh, accumulator_format(),
                               format);
  // A window of raw values [-20, 20]: pixel 0.25 quantizes to 64.
  const Table narrow(4, -20, 20);
  const PrecomputerCache::View view = narrow.cache.view();
  std::vector<float> pixels(37, 0.01f);
  pixels[29] = 0.25f;
  // Two channels of one 9-output row; the window of channel 1's
  // output 4 sits far past the clip, so it pools to the LUT's top
  // entry, outside the window.
  const Pool2Shape shape{2, 1, 9};
  std::vector<std::int64_t> in(2 * 2 * 18, 0);
  for (std::size_t row : {2u, 3u}) {
    in[row * 18 + 8] = kMax;
    in[row * 18 + 9] = kMax;
  }
  const std::int64_t top = lut.apply_raw(kMax);
  ASSERT_GT(top, 20);
  const std::size_t slots = pixels.size() * 4;
  expect_declined(slots, [&](const KernelBackend& backend, std::int32_t* out) {
    return backend.stage_pixels(pixels, format, view, out, pixels.size());
  });
  expect_window_miss(narrow.cache, 64, [&] {
    (void)reference_stage(reference_quantize(pixels, format), view);
  });
  expect_declined(slots, [&](const KernelBackend& backend, std::int32_t* out) {
    return backend.lut_pool2_stage(in.data(), shape, lut.raw_path(), view,
                                   out, 18);
  });
  expect_window_miss(narrow.cache, top, [&] {
    (void)reference_stage(reference_pool(in, shape, lut), view);
  });
  // An unconfigured table misses every value.
  const PrecomputerCache empty;
  const std::vector<float> zeros(9, 0.0f);
  expect_declined(slots, [&](const KernelBackend& backend, std::int32_t* out) {
    return backend.stage_pixels(zeros, format, empty.view(), out, 9);
  });
  expect_window_miss(empty, 0, [&] {
    (void)reference_stage(reference_quantize(zeros, format), empty.view());
  });
}

TEST(BackendEpilogue, OutOfWindowTileValuesAreDeclinedAndTheReferenceThrows) {
  const QFormat format = activation_format();
  const FixedActivationLut lut(ActivationKind::kTanh, accumulator_format(),
                               format);
  const Table narrow(4, -20, 20);
  const PrecomputerCache::View view = narrow.cache.view();
  // kDenseTile images of 37 pixels: sample 5's pixel 29 quantizes to
  // 64, but
  // sample 2's pixel 30 (77) comes first in the reference's
  // sample-by-sample order.
  constexpr std::size_t n = 37;
  std::vector<float> pixels(n * kTile, 0.01f);
  pixels[5 * n + 29] = 0.25f;
  pixels[2 * n + 30] = 0.3f;
  ASSERT_EQ(format.quantize(0.3), 77);
  // 9 rows: row 4 of sample 9 maps to the LUT's bottom entry and row 6
  // of sample 2 to its top; the reference reaches row 4 first.
  std::vector<std::int64_t> acc(9 * kTile, 0);
  acc[6 * kTile + 2] = kMax;
  acc[4 * kTile + 9] = kMin;
  const std::int64_t bottom = lut.apply_raw(kMin);
  ASSERT_LT(bottom, -20);
  const std::size_t slots = n * kTile;
  expect_declined<std::int16_t>(
      slots, [&](const KernelBackend& backend, std::int16_t* out) {
    return backend.stage_pixels_tile(pixels, format, view, out);
  });
  expect_window_miss(narrow.cache, 77, [&] {
    (void)reference_pixel_tile(pixels, format, view);
  });
  expect_declined<std::int16_t>(
      slots, [&](const KernelBackend& backend, std::int16_t* out) {
    return backend.lut_stage_tile(acc.data(), 9, lut.raw_path(), view, out);
  });
  expect_window_miss(narrow.cache, bottom, [&] {
    (void)reference_tile(reference_lut(acc, lut), view);
  });
  // An unconfigured table has no window. Zeros, and -1 too: a window
  // clamp over its span of 0 would run from 0 down to -1 and let -1
  // through unchanged. The LUT above outputs even values only, so a
  // 6-fraction-bit tanh supplies the -1.
  const PrecomputerCache empty;
  std::vector<float> zeros(3 * kTile, 0.0f);
  std::vector<float> minus_one(3 * kTile, 0.0f);
  minus_one[0] = static_cast<float>(-1.0 / format.scale());
  ASSERT_EQ(format.quantize(minus_one[0]), -1);
  for (const auto& [images, first] :
       {std::pair{&zeros, std::int64_t{0}}, std::pair{&minus_one, -1L}}) {
    expect_declined<std::int16_t>(
        slots, [&](const KernelBackend& backend, std::int16_t* out) {
      return backend.stage_pixels_tile(*images, format, empty.view(), out);
    });
    expect_window_miss(empty, first, [&] {
      (void)reference_pixel_tile(*images, format, empty.view());
    });
  }
  const FixedActivationLut fine(ActivationKind::kTanh, accumulator_format(),
                                QFormat(8, 6));
  std::int64_t acc_minus_one = 0;
  while (fine.apply_raw(acc_minus_one) > -1) --acc_minus_one;
  ASSERT_EQ(fine.apply_raw(acc_minus_one), -1);
  for (const auto& [table_lut, a] :
       {std::pair{&lut, std::int64_t{0}}, std::pair{&fine, acc_minus_one}}) {
    const std::vector<std::int64_t> tile_acc(kTile, a);
    expect_declined<std::int16_t>(
        slots, [&](const KernelBackend& backend, std::int16_t* out) {
      return backend.lut_stage_tile(tile_acc.data(), 1,
                                    table_lut->raw_path(), empty.view(), out);
    });
    expect_window_miss(empty, table_lut->apply_raw(a), [&] {
      (void)reference_tile(reference_lut(tile_acc, *table_lut),
                           empty.view());
    });
  }
}

// A format whose raw range reaches 2^24 is past float lanes' exact
// quantization: every backend declines it, in window or not.
TEST(BackendEpilogue, PixelFormatsPastFloatLanesAreDeclined) {
  const QFormat wide(26, 8);
  ASSERT_GE(wide.max_raw(), std::int64_t{1} << 24);
  man::util::Rng rng(28);
  // Within (-0.99, 0.99), so every value quantizes into the
  // activation format's window the tables cover.
  std::vector<float> pixels(37 * kTile);
  for (float& p : pixels) {
    p = static_cast<float>(rng.next_double() * 1.98 - 0.99);
  }
  const std::vector<float> image(pixels.begin(), pixels.begin() + 37);
  expect_pixels_match(image, 4, wide, Case::kDeclined);
  const Table window(4);
  expect_pixel_tiles_match(pixels, wide, 4, Case::kDeclined, &window);
}

// A backend with `kernels`' accumulation loops that declines every
// sweep and counts the ones offered to it.
class DecliningBackend final : public KernelBackend {
 public:
  explicit DecliningBackend(const KernelBackend& kernels)
      : kernels_(kernels) {}

  [[nodiscard]] BackendKind kind() const noexcept override {
    return kernels_.kind();
  }
  [[nodiscard]] const char* name() const noexcept override {
    return "declining";
  }
  [[nodiscard]] const char* description() const noexcept override {
    return "declines every sweep";
  }
  [[nodiscard]] bool accelerated() const noexcept override { return false; }

  void accumulate_dense(const DenseLayerPlan& plan,
                        const std::int64_t* multiples,
                        std::int64_t* out) const override {
    kernels_.accumulate_dense(plan, multiples, out);
  }
  void accumulate_dense_tile(const DenseLayerPlan& plan,
                             std::span<const std::uint8_t> alphabets,
                             int chunk, const std::int16_t* tile,
                             std::int64_t* out) const override {
    kernels_.accumulate_dense_tile(plan, alphabets, chunk, tile, out);
  }
  void accumulate_conv(const ConvLayerPlan& plan,
                       const std::int64_t* multiples,
                       std::int64_t* out) const override {
    kernels_.accumulate_conv(plan, multiples, out);
  }
  void accumulate_conv_int32(const ConvLayerPlan& plan,
                             const std::int32_t* multiples,
                             std::int64_t* out) const override {
    kernels_.accumulate_conv_int32(plan, multiples, out);
  }

  bool stage_pixels(std::span<const float>, const QFormat&,
                    const PrecomputerCache::View&, std::int32_t*,
                    std::size_t) const override {
    return offer(0);
  }
  bool lut_pool2_stage(const std::int64_t*, const Pool2Shape&,
                       const FixedActivationLut::RawPath&,
                       const PrecomputerCache::View&, std::int32_t*,
                       std::size_t) const override {
    return offer(1);
  }
  bool stage_pixels_tile(std::span<const float>, const QFormat&,
                         const PrecomputerCache::View&,
                         std::int16_t*) const override {
    return offer(2);
  }
  bool lut_stage_tile(const std::int64_t*, std::size_t,
                      const FixedActivationLut::RawPath&,
                      const PrecomputerCache::View&,
                      std::int16_t*) const override {
    return offer(3);
  }

  /// Sweeps offered so far: stage_pixels, lut_pool2_stage,
  /// stage_pixels_tile, lut_stage_tile.
  mutable std::size_t offered[4] = {};

 private:
  bool offer(std::size_t sweep) const {
    ++offered[sweep];
    return false;
  }

  const KernelBackend& kernels_;
};

// FixedNetwork hands every boundary a backend declines to the
// reference sweep: on a backend that declines all four sweeps, a conv
// chain (pixels into conv lanes; LUT, 2×2 pool, conv lanes) and an MLP
// batch tile (pixels into the tile; LUT into the next tile) match the
// scalar backend over two tiles and a remainder. No FixedNetwork stages
// a value outside its window (its tables span the whole activation
// format, which pixels and LUT outputs are quantized into), so the
// miss itself is checked on the reference templates above.
TEST(BackendEpilogue, FixedNetworkRunsTheReferenceWhereABackendDeclines) {
  using man::nn::ActivationLayer;
  man::util::Rng rng(29);
  man::nn::Network cnn;
  cnn.add<man::nn::Conv2D>(1, 2, 3, 12, 12).init_xavier(rng);
  cnn.add<ActivationLayer>(ActivationKind::kTanh);
  cnn.add<man::nn::AvgPool2D>(2, 10, 10, 2);
  cnn.add<man::nn::Conv2D>(2, 3, 3, 5, 5).init_xavier(rng);
  cnn.add<ActivationLayer>(ActivationKind::kTanh);
  cnn.add<man::nn::Dense>(27, 4).init_xavier(rng);
  man::nn::Network mlp;
  mlp.add<man::nn::Dense>(20, 9).init_xavier(rng);
  mlp.add<ActivationLayer>(ActivationKind::kSigmoid);
  mlp.add<man::nn::Dense>(9, 5).init_xavier(rng);
  const auto scheme = man::engine::LayerAlphabetPlan::uniform_asm(
      3, AlphabetSet::four());
  const man::engine::FixedNetwork cnn_engine(cnn, man::nn::QuantSpec::bits12(),
                                             scheme);
  const man::engine::FixedNetwork mlp_engine(
      mlp, man::nn::QuantSpec::bits8(),
      man::engine::LayerAlphabetPlan::uniform_asm(2, AlphabetSet::four()));
  const auto& scalar = backend_for(BackendKind::kScalar);
  for (const KernelBackend* kernels : all_backends()) {
    SCOPED_TRACE(kernels->name());
    const DecliningBackend declining(*kernels);
    for (const man::engine::FixedNetwork* engine : {&cnn_engine, &mlp_engine}) {
      std::vector<float> pixels((2 * kTile + 3) * engine->input_size());
      for (float& p : pixels) {
        p = static_cast<float>(rng.next_double() * 2 - 1);
      }
      const std::size_t outputs =
          pixels.size() / engine->input_size() * engine->output_size();
      std::vector<std::int64_t> expected(outputs);
      std::vector<std::int64_t> got(outputs);
      auto scratch = engine->make_scratch();
      auto stats = engine->make_stats();
      engine->infer_batch(pixels, expected, stats, scratch, scalar);
      engine->infer_batch(pixels, got, stats, scratch, declining);
      EXPECT_EQ(got, expected);
    }
    for (std::size_t sweep = 0; sweep < 4; ++sweep) {
      EXPECT_GT(declining.offered[sweep], 0u) << "sweep " << sweep;
    }
  }
}

}  // namespace
}  // namespace man::backend
