// The sequential reference — per sample, per row — every other
// backend is defined as "bit-identical to this". A dense row walks its
// (shift, sign) groups: each group's multiples summed, shifted once,
// then added or subtracted. A conv output walks its filter's weights
// in FixedNetwork's original loop order, summing each weight's
// multiple << shift over its quartet planes and then negating.
#include "man/backend/backend_impls.h"

namespace man::backend::detail {

namespace {

/// Bias plus row r's groups, in int64 whatever the slot width; term t
/// reads src[idx[t] · scale] (`scale` is the tile's slot stride).
template <typename Slot>
std::int64_t dense_row(const DenseLayerPlan& plan, std::size_t r,
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

/// One conv weight's signed product over int64 or int32 slots: its
/// steps are packed from plane 0, so the walk stops at the first entry
/// that reads the zero region's base. Step q reads
/// src[idx + base], `base` the position offset.
template <typename Slot>
std::int64_t weight_product(const ConvLayerPlan& plan, std::size_t cell,
                            const Slot* src, std::size_t base) {
  const std::size_t stride = plan.plane_stride();
  std::int64_t product = 0;
  for (int q = 0; q < plan.planes; ++q) {
    const std::size_t pc = static_cast<std::size_t>(q) * stride + cell;
    if (plan.idx[pc] == plan.zero_base) break;
    product += std::int64_t{src[plan.idx[pc] + base]} << plan.shifts[pc];
  }
  return plan.sign_masks[cell] == -1 ? -product : product;
}

/// The original 6-deep ConvStage reference loop, re-expressed over
/// the plan's patch columns: column c of filter r at position (oy, ox)
/// reads its steps' lane-major slots plus oy·iw + ox, in the same
/// (ic, ky, kx) order the hand-rolled loop visited.
template <typename Slot>
void conv_walk(const ConvLayerPlan& plan, const Slot* multiples,
               std::int64_t* out) {
  const std::size_t positions = plan.positions();
  for (int r = 0; r < plan.oc; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    for (int oy = 0; oy < plan.oh; ++oy) {
      for (int ox = 0; ox < plan.ow; ++ox) {
        const std::size_t elem_base =
            static_cast<std::size_t>(oy) * plan.iw + ox;
        std::int64_t acc = plan.biases[static_cast<std::size_t>(r)];
        for (int c = 0; c < plan.cols; ++c) {
          acc += weight_product(plan, row + static_cast<std::size_t>(c),
                                multiples, elem_base);
        }
        out[static_cast<std::size_t>(r) * positions +
            static_cast<std::size_t>(oy) * plan.ow + ox] = acc;
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
    return "sequential reference (per-row walk of groups and planes)";
  }
  [[nodiscard]] bool accelerated() const noexcept override { return false; }

  void accumulate_dense(const DenseLayerPlan& plan,
                        const std::int64_t* multiples,
                        std::int64_t* out) const override {
    for (std::size_t r = 0; r < static_cast<std::size_t>(plan.rows); ++r) {
      out[r] = dense_row(plan, r, multiples, 1);
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
        out[r * kTile + b] = dense_row(plan, r, tile + b, kTile);
      }
    }
  }

  void exact_dense(const DenseLayerPlan& plan,
                   const std::int64_t* activations,
                   std::int64_t* out) const override {
    for (int o = 0; o < plan.rows; ++o) {
      const std::int32_t* wrow =
          &plan.weights[static_cast<std::size_t>(o) * plan.cols];
      std::int64_t acc = plan.biases[static_cast<std::size_t>(o)];
      for (int i = 0; i < plan.cols; ++i) {
        acc += static_cast<std::int64_t>(wrow[i]) *
               activations[static_cast<std::size_t>(i)];
      }
      out[o] = acc;
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

  void exact_conv(const ConvLayerPlan& plan,
                  const std::int64_t* activations,
                  std::int64_t* out) const override {
    const std::size_t positions = plan.positions();
    for (int r = 0; r < plan.oc; ++r) {
      const std::int32_t* wrow =
          &plan.weights[static_cast<std::size_t>(r) * plan.cols_padded];
      for (int oy = 0; oy < plan.oh; ++oy) {
        for (int ox = 0; ox < plan.ow; ++ox) {
          const std::size_t elem_base =
              static_cast<std::size_t>(oy) * plan.iw + ox;
          std::int64_t acc = plan.biases[static_cast<std::size_t>(r)];
          for (int c = 0; c < plan.cols; ++c) {
            acc += static_cast<std::int64_t>(wrow[c]) *
                   activations[plan.patch_elems[static_cast<std::size_t>(c)] +
                               elem_base];
          }
          out[static_cast<std::size_t>(r) * positions +
              static_cast<std::size_t>(oy) * plan.ow + ox] = acc;
        }
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
