// The sequential reference — per sample, per row — every other
// backend is defined as "bit-identical to this". A row (a dense output
// neuron, or a conv filter at one output position) walks its (shift,
// sign) groups: each group's multiples summed, shifted once, then
// added or subtracted. It has no epilogue sweeps: KernelBackend's
// declines them, and FixedNetwork runs the reference templates of
// epilogue_sweep.h instead.
#include "man/backend/backend_impls.h"

namespace man::backend::detail {

namespace {

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
    // Branch-free: a sign mask of 0 adds the shifted sum, −1 subtracts
    // it. The branch cost the per-sample SVHN pass ~6 %.
    const std::int64_t sign = plan.sign_masks[g];
    acc += ((sum << plan.shifts[g]) ^ sign) - sign;
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

  void accumulate_dense_tile(const DenseLayerPlan& plan, int /*chunk*/,
                             const std::int16_t* tile,
                             std::int64_t* out) const override {
    // The same walk, each int16 slot read at stride kDenseTile and
    // accumulated in int64 — the oracle needs no chunk or row proof.
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
};

}  // namespace

const KernelBackend& scalar_backend() {
  static const ScalarBackend backend;
  return backend;
}

}  // namespace man::backend::detail
