// The sequential reference — per sample, per row — every other
// backend is defined as "bit-identical to this". A row (a dense output
// neuron, or a conv filter at one output position) walks its (shift,
// sign) groups: each group's multiples summed, shifted once, then
// added or subtracted.
#include "man/backend/backend_impls.h"
#include "man/backend/epilogue_sweep.h"

namespace man::backend::detail {

namespace {

using epilogue::LaneMajorSink;
using epilogue::LutSource;
using epilogue::TableRows;
using epilogue::TileSlots;
using epilogue::ValueSource;

/// Bias plus row r's groups, in int64 whatever the slot width; term t
/// reads src[idx[t] · scale] (`scale` is the tile's slot stride; a
/// conv caller passes src at its position's base offset).
template <typename Slot>
std::int64_t group_row(const GroupedPlan& plan, std::size_t r,
                       const Slot* src, std::size_t scale) {
  std::int64_t acc = plan.biases[r];
  for (std::size_t g = plan.row_groups[r]; g < plan.row_groups[r + 1]; ++g) {
    std::int64_t sum = 0;
    for (std::size_t t = plan.group_begin[g]; t < plan.group_begin[g + 1];
         ++t) {
      sum += std::int64_t{src[plan.idx[t] * scale]};
    }
    sum <<= plan.shifts[g];
    acc += plan.sign_masks[g] == -1 ? -sum : sum;
  }
  return acc;
}

/// Every filter at every output position (oy, ox), reading the
/// lane-major slots plus oy·iw + ox.
template <typename Slot>
void conv_walk(const ConvLayerPlan& plan, const Slot* multiples,
               std::int64_t* out) {
  const std::size_t positions = plan.positions();
  for (std::size_t r = 0; r < static_cast<std::size_t>(plan.oc); ++r) {
    for (int oy = 0; oy < plan.oh; ++oy) {
      for (int ox = 0; ox < plan.ow; ++ox) {
        out[r * positions + static_cast<std::size_t>(oy) * plan.ow + ox] =
            group_row(plan, r,
                      multiples + static_cast<std::size_t>(oy) * plan.iw + ox,
                      1);
      }
    }
  }
}

class ScalarBackend final : public KernelBackend {
 public:
  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kScalar;
  }
  [[nodiscard]] const char* name() const noexcept override {
    return "scalar";
  }
  [[nodiscard]] const char* description() const noexcept override {
    return "sequential reference (per-row walk of groups)";
  }
  [[nodiscard]] bool accelerated() const noexcept override { return false; }

  void accumulate_dense(const DenseLayerPlan& plan,
                        const std::int64_t* multiples,
                        std::int64_t* out) const override {
    for (std::size_t r = 0; r < static_cast<std::size_t>(plan.rows); ++r) {
      out[r] = group_row(plan, r, multiples, 1);
    }
  }

  void accumulate_dense_tile(const DenseLayerPlan& plan,
                             const std::int32_t* tile,
                             std::int64_t* out) const override {
    // The same walk, each int32 slot read at stride kDenseTile and
    // accumulated in int64 — the oracle needs no overflow proof.
    constexpr std::size_t kTile = kDenseTile;
    for (std::size_t r = 0; r < static_cast<std::size_t>(plan.rows); ++r) {
      for (std::size_t b = 0; b < kTile; ++b) {
        out[r * kTile + b] = group_row(plan, r, tile + b, kTile);
      }
    }
  }

  void accumulate_conv(const ConvLayerPlan& plan,
                       const std::int64_t* multiples,
                       std::int64_t* out) const override {
    conv_walk(plan, multiples, out);
  }

  void accumulate_conv_int32(const ConvLayerPlan& plan,
                             const std::int32_t* multiples,
                             std::int64_t* out) const override {
    // The same walk over int32 slots, accumulated in int64 — the oracle
    // needs no overflow proof.
    conv_walk(plan, multiples, out);
  }

  void stage_pixels(std::span<const float> pixels,
                    const man::fixed::QFormat& format,
                    const man::core::PrecomputerCache::View& table,
                    std::int32_t* slots, std::size_t stride) const override {
    const epilogue::PixelSource source{pixels.data(), format};
    LaneMajorSink<std::int32_t, TableRows> sink{{table}, slots, table.k,
                                                stride};
    for (std::size_t i = 0; i < pixels.size(); ++i) sink(i, source(i));
  }

  void lut_pool2_stage(const std::int64_t* in, const Pool2Shape& shape,
                       const man::core::FixedActivationLut::RawPath& lut,
                       const man::core::PrecomputerCache::View& table,
                       std::int32_t* slots,
                       std::size_t stride) const override {
    epilogue::pool_sweep<2>(
        static_cast<std::size_t>(shape.c) * shape.oh,
        2 * static_cast<std::size_t>(shape.ow), 2, nullptr,
        LutSource<ValueSource>{ValueSource{in}, lut},
        LaneMajorSink<std::int32_t, TableRows>{{table}, slots, table.k,
                                               stride});
  }

  void stage_pixels_tile(std::span<const float> pixels,
                         const man::fixed::QFormat& format,
                         const man::core::PrecomputerCache::View& table,
                         std::int32_t* tile) const override {
    // Sample by sample, as the per-sample path stages them.
    constexpr auto kTile = static_cast<std::size_t>(kDenseTile);
    const std::size_t n = pixels.size() / kTile;
    const epilogue::PixelSource source{pixels.data(), format};
    TileSlots<TableRows> slots{{table}, tile, table.k};
    for (std::size_t b = 0; b < kTile; ++b) {
      for (std::size_t i = 0; i < n; ++i) slots(i, b, source(b * n + i));
    }
  }

  void lut_stage_tile(const std::int64_t* acc, std::size_t elements,
                      const man::core::FixedActivationLut::RawPath& lut,
                      const man::core::PrecomputerCache::View& table,
                      std::int32_t* tile) const override {
    constexpr auto kTile = static_cast<std::size_t>(kDenseTile);
    const LutSource<ValueSource> source{ValueSource{acc}, lut};
    TileSlots<TableRows> slots{{table}, tile, table.k};
    for (std::size_t i = 0; i < elements; ++i) {
      for (std::size_t b = 0; b < kTile; ++b) {
        slots(i, b, source(i * kTile + b));
      }
    }
  }
};

}  // namespace

const KernelBackend& scalar_backend() {
  static const ScalarBackend backend;
  return backend;
}

}  // namespace man::backend::detail
