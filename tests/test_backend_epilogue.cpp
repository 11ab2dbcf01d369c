// The kernel backends' epilogue sweeps (KernelBackend::stage_pixels,
// lut_pool2_stage, stage_pixels_tile, lut_stage_tile) against the
// scalar reference templates of man/backend/epilogue_sweep.h, on every
// registered backend: LUT inputs at every bucket seam and clamp edge
// and the int64 extremes, pool rows of every width from 1 to 17
// outputs (so the overlapping last vector and each half-width drop
// run), tiles of 1 to 600 rows and of images of 1 to 1,558 pixels, at
// k = 1, 2, 4 and 8, and pixels at rounding ties, non-finite values,
// denormals and beyond the clamp. A staged value outside the table's
// window must throw what PrecomputerCache::lookup throws for the first
// such value in the reference's order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "man/backend/epilogue_sweep.h"
#include "man/backend/kernel_backend.h"
#include "man/core/activation.h"
#include "man/core/alphabet_set.h"
#include "man/core/precomputer_bank.h"
#include "man/fixed/qformat.h"
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
using epilogue::TableRows;
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

// Sample-minor tile slots of `values` (element i of sample b at
// values[i·kDenseTile + b]) staged from `table`.
std::vector<std::int32_t> reference_tile(
    const std::vector<std::int64_t>& values,
    const PrecomputerCache::View& table) {
  std::vector<std::int32_t> tile(values.size() * table.k);
  TileSlots<TableRows> slots{{table}, tile.data(), table.k};
  for (std::size_t o = 0; o < values.size(); ++o) {
    slots(o / kTile, o % kTile, values[o]);
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

// Every backend's lut_pool2_stage over `in` against the references;
// the slot past the sweep's last keeps a sentinel.
void expect_pools_match(const std::vector<std::int64_t>& in,
                        const Pool2Shape& shape,
                        const FixedActivationLut& lut, std::size_t k) {
  const Table table(k);
  const PrecomputerCache::View view = table.cache.view();
  const std::vector<std::int64_t> pooled = reference_pool(in, shape, lut);
  const std::vector<std::int32_t> staged = reference_stage(pooled, view);
  for (const KernelBackend* backend : all_backends()) {
    SCOPED_TRACE(std::string(backend->name()) + " c=" +
                 std::to_string(shape.c) + " oh=" + std::to_string(shape.oh) +
                 " ow=" + std::to_string(shape.ow) + " k=" +
                 std::to_string(k));
    std::vector<std::int32_t> slots(staged.size() + 1, -7);
    backend->lut_pool2_stage(in.data(), shape, lut.raw_path(), view,
                             slots.data(), pooled.size());
    EXPECT_EQ(slots.back(), -7);
    slots.pop_back();
    EXPECT_EQ(slots, staged);
  }
}

void expect_pixels_match(const std::vector<float>& pixels, std::size_t k) {
  const QFormat format = activation_format();
  const Table table(k);
  const PrecomputerCache::View view = table.cache.view();
  const std::vector<std::int32_t> staged =
      reference_stage(reference_quantize(pixels, format), view);
  for (const KernelBackend* backend : all_backends()) {
    SCOPED_TRACE(std::string(backend->name()) + " n=" +
                 std::to_string(pixels.size()) + " k=" + std::to_string(k));
    std::vector<std::int32_t> slots(staged.size() + 1, -7);
    backend->stage_pixels(pixels, format, view, slots.data(), pixels.size());
    EXPECT_EQ(slots.back(), -7);
    slots.pop_back();
    EXPECT_EQ(slots, staged);
  }
}

// Every backend's lut_stage_tile over `acc` (row i of sample b at
// acc[i·kDenseTile + b]) against the references; the slot past the
// sweep's last keeps a sentinel.
void expect_lut_tiles_match(const std::vector<std::int64_t>& acc,
                            const FixedActivationLut& lut, std::size_t k) {
  const Table table(k);
  const PrecomputerCache::View view = table.cache.view();
  const std::vector<std::int32_t> staged =
      reference_tile(reference_lut(acc, lut), view);
  const std::size_t elements = acc.size() / kTile;
  for (const KernelBackend* backend : all_backends()) {
    SCOPED_TRACE(std::string(backend->name()) + " rows=" +
                 std::to_string(elements) + " k=" + std::to_string(k));
    std::vector<std::int32_t> tile(staged.size() + 1, -7);
    backend->lut_stage_tile(acc.data(), elements, lut.raw_path(), view,
                            tile.data());
    EXPECT_EQ(tile.back(), -7);
    tile.pop_back();
    EXPECT_EQ(tile, staged);
  }
}

// Every backend's stage_pixels_tile over `pixels` (kDenseTile images,
// one after another) against the references.
void expect_pixel_tiles_match(const std::vector<float>& pixels,
                              const QFormat& format, std::size_t k) {
  const Table table(k, format.min_raw(), format.max_raw());
  const PrecomputerCache::View view = table.cache.view();
  const std::vector<std::int64_t> quantized =
      reference_quantize(pixels, format);
  const std::size_t n = pixels.size() / kTile;
  std::vector<std::int64_t> sample_minor(quantized.size());
  for (std::size_t b = 0; b < kTile; ++b) {
    for (std::size_t i = 0; i < n; ++i) {
      sample_minor[i * kTile + b] = quantized[b * n + i];
    }
  }
  const std::vector<std::int32_t> staged = reference_tile(sample_minor, view);
  for (const KernelBackend* backend : all_backends()) {
    SCOPED_TRACE(std::string(backend->name()) + " n=" + std::to_string(n) +
                 " k=" + std::to_string(k) + " " + format.to_string());
    std::vector<std::int32_t> tile(staged.size() + 1, -7);
    backend->stage_pixels_tile(pixels, format, view, tile.data());
    EXPECT_EQ(tile.back(), -7);
    tile.pop_back();
    EXPECT_EQ(tile, staged);
  }
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
    for (std::size_t shift : {0u, 1u, 7u, 15u}) {
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

TEST(BackendEpilogue, OutOfWindowValuesThrowOnEveryBackend) {
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
  std::vector<std::int32_t> slots(pixels.size() * 4);
  for (const KernelBackend* backend : all_backends()) {
    SCOPED_TRACE(backend->name());
    expect_window_miss(narrow.cache, 64, [&] {
      backend->stage_pixels(pixels, format, view, slots.data(),
                            pixels.size());
    });
    expect_window_miss(narrow.cache, top, [&] {
      backend->lut_pool2_stage(in.data(), shape, lut.raw_path(), view,
                               slots.data(), 18);
    });
    // An unconfigured table misses every value.
    const PrecomputerCache empty;
    expect_window_miss(empty, 0, [&] {
      backend->stage_pixels(std::vector<float>(9, 0.0f), format, empty.view(),
                            slots.data(), 9);
    });
  }
}

TEST(BackendEpilogue, OutOfWindowTileValuesThrowOnEveryBackend) {
  const QFormat format = activation_format();
  const FixedActivationLut lut(ActivationKind::kTanh, accumulator_format(),
                               format);
  const Table narrow(4, -20, 20);
  const PrecomputerCache::View view = narrow.cache.view();
  // 16 images of 37 pixels: sample 5's pixel 29 quantizes to 64, but
  // sample 2's pixel 30 (77) comes first in the reference's
  // sample-by-sample order.
  constexpr std::size_t n = 37;
  std::vector<float> pixels(n * kTile, 0.01f);
  pixels[5 * n + 29] = 0.25f;
  pixels[2 * n + 30] = 0.3f;
  ASSERT_EQ(format.quantize(0.3), 77);
  // 9 rows: row 4 of sample 9 pools to the LUT's bottom entry and row 6
  // of sample 2 to its top; the reference reaches row 4 first.
  std::vector<std::int64_t> acc(9 * kTile, 0);
  acc[6 * kTile + 2] = kMax;
  acc[4 * kTile + 9] = kMin;
  const std::int64_t bottom = lut.apply_raw(kMin);
  ASSERT_LT(bottom, -20);
  std::vector<std::int32_t> tile(n * 4 * kTile);
  for (const KernelBackend* backend : all_backends()) {
    SCOPED_TRACE(backend->name());
    expect_window_miss(narrow.cache, 77, [&] {
      backend->stage_pixels_tile(pixels, format, view, tile.data());
    });
    expect_window_miss(narrow.cache, bottom, [&] {
      backend->lut_stage_tile(acc.data(), 9, lut.raw_path(), view,
                              tile.data());
    });
    const PrecomputerCache empty;
    expect_window_miss(empty, 0, [&] {
      backend->stage_pixels_tile(std::vector<float>(3 * kTile, 0.0f), format,
                                 empty.view(), tile.data());
    });
    expect_window_miss(empty, lut.apply_raw(0), [&] {
      backend->lut_stage_tile(std::vector<std::int64_t>(kTile, 0).data(), 1,
                              lut.raw_path(), empty.view(), tile.data());
    });
  }
}

}  // namespace
}  // namespace man::backend
