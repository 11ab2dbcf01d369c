// The scalar epilogue sweeps: the loops of a stage boundary (input
// quantization, activation LUT, average pool, lane-major or tile
// staging) as FixedNetwork runs them for every segment that no kernel
// backend sweeps, or whose sweep declined. They are the reference:
// every vector sweep equals them bit for bit. A
// sweep reads a boundary's inputs through a Source, applies its LUTs
// and pool, and hands each value on to a Sink.
//
// Internal linkage, like vector_kernels.h: each includer compiles its
// own copies, so no template here becomes a weak symbol.
#ifndef MAN_BACKEND_EPILOGUE_SWEEP_H
#define MAN_BACKEND_EPILOGUE_SWEEP_H

#include <bit>
#include <cstddef>
#include <cstdint>

#include "man/backend/layer_plan.h"
#include "man/core/activation.h"
#include "man/core/precomputer_bank.h"
#include "man/fixed/qformat.h"

namespace man::backend::epilogue {
namespace {

// The input image, quantized to the activation format as it is read
// (the format by value, so no store of the sweep can alias it).
struct PixelSource {
  const float* pixels;
  man::fixed::QFormat format;
  [[gnu::always_inline]] std::int64_t operator()(std::size_t i) const {
    return format.quantize(static_cast<double>(pixels[i]));
  }
};

// int64 accumulators (or activations handed on by an earlier segment).
struct ValueSource {
  const std::int64_t* values;
  [[gnu::always_inline]] std::int64_t operator()(std::size_t i) const {
    return values[i];
  }
};

// A source read through an activation LUT.
template <typename Source>
struct LutSource {
  Source source;
  man::core::FixedActivationLut::RawPath lut;
  [[gnu::always_inline]] std::int64_t operator()(std::size_t i) const {
    return lut(source(i));
  }
};

// int64 values at their own index: a segment hand-off or one sample's
// output.
struct ValueSink {
  std::int64_t* out;
  [[gnu::always_inline]] void operator()(std::size_t o,
                                         std::int64_t v) const {
    out[o] = v;
  }
};

// Conv staging, lane-major: lane l of element o at [l·stride + o], so
// consecutive output positions of one conv weight read consecutive
// slots (the layout ConvLayerPlan::idx indexes). Slots are int64, or
// int32 for a stage whose plan passed int32_row_bound(), which proves
// every staged multiple fits. `rows` maps a value to its k bank
// outputs.
template <typename Slot, typename Rows>
struct LaneMajorSink {
  Rows rows;
  Slot* multiples;
  std::size_t k;
  std::size_t stride;
  [[gnu::always_inline]] void operator()(std::size_t o, std::int64_t v) {
    const std::int64_t* row = rows(v);
    for (std::size_t l = 0; l < k; ++l) {
      multiples[l * stride + o] = static_cast<Slot>(row[l]);
    }
  }
};

// Dense tile staging, sample-minor: element i of sample b itself at
// [i·kDenseTile + b], so the kDenseTile sample lanes of one input sit
// contiguously (the layout accumulate_dense_tile reads, which applies
// the bank to each group's sum), in int16 slots, which
// int16_tile_chunk() proves every tiled stage's inputs fit. A value
// outside `window` (the stage's staging table) throws std::out_of_range,
// as the table's lookup does.
struct TileSlots {
  man::core::PrecomputerCache::View window;
  std::int16_t* tile;
  [[gnu::always_inline]] void operator()(std::size_t i, std::size_t b,
                                         std::int64_t v) const {
    (void)window.lookup(v);
    tile[i * static_cast<std::size_t>(kDenseTile) + b] =
        static_cast<std::int16_t>(v);
  }
};

// Sums each pool window and rounds the average to nearest, half away
// from zero: the magnitude is rounded and the sign restored. A
// power-of-two window² divides by a shift (hardware: add tree +
// shift). The windows tile `rows` output rows (channels × output
// height) of an input `iw` values wide, so each input is read once,
// and the pooled value is handed on through `post_lut` when given.
// kWindow > 0 fixes the window at compile time; 0 reads
// `pool_window`.
template <int kWindow, typename Source, typename Sink>
void pool_sweep(std::size_t rows, std::size_t iw, std::size_t pool_window,
                const man::core::FixedActivationLut* post_lut, Source source,
                Sink sink) {
  const auto post = post_lut != nullptr
                        ? post_lut->raw_path()
                        : man::core::FixedActivationLut::RawPath{};
  const std::size_t window =
      kWindow > 0 ? static_cast<std::size_t>(kWindow) : pool_window;
  const auto n = static_cast<std::int64_t>(window * window);
  const std::int64_t half = n / 2;
  const int shift = (n & (n - 1)) == 0
                        ? std::countr_zero(static_cast<std::uint64_t>(n))
                        : -1;
  std::size_t o = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t row = r * window * iw;
    for (std::size_t x = 0; x < iw; x += window, ++o) {
      std::int64_t sum = 0;
      for (std::size_t wy = 0; wy < window; ++wy) {
        for (std::size_t wx = 0; wx < window; ++wx) {
          sum += source(row + wy * iw + x + wx);
        }
      }
      const std::int64_t sign = sum >> 63;  // 0 or -1
      const std::int64_t magnitude = (sum ^ sign) - sign;
      const std::int64_t rounded = shift >= 0 ? (magnitude + half) >> shift
                                              : (magnitude + half) / n;
      const std::int64_t v = (rounded ^ sign) - sign;
      sink(o, post.table != nullptr ? post(v) : v);
    }
  }
}

}  // namespace
}  // namespace man::backend::epilogue

#endif  // MAN_BACKEND_EPILOGUE_SWEEP_H
