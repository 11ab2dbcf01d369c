// The sequential reference — per sample, per row — every other
// backend is defined as "bit-identical to this". A row (a dense output
// neuron, or a conv filter at one output position) walks its (shift,
// sign) groups: each group's multiples summed (in the dense tile, its
// inputs summed and scaled by the group's alphabet), shifted once,
// then added or subtracted. One dense sample walks each (shift, sign)
// run of lane groups as one group. It has no epilogue sweeps:
// KernelBackend's declines them, and FixedNetwork runs the reference
// templates of epilogue_sweep.h instead.
#include "man/backend/backend_impls.h"

#include <algorithm>

namespace man::backend::detail {

namespace {

/// ±(sum << shifts[g]), branch-free: a sign mask of 0 adds the shifted
/// sum, −1 subtracts it. The branch cost the per-sample SVHN pass ~6 %.
[[gnu::always_inline]] inline std::int64_t signed_shift(
    const GroupedPlan& plan, std::size_t g, std::int64_t sum) {
  const std::int64_t sign = plan.sign_masks[g];
  return ((sum << plan.shifts[g]) ^ sign) - sign;
}

/// Σ src[idx[t]] over terms [t, end), in int64. Four terms a step into
/// two sums: this is the per-sample dense kernel of every tier below
/// AVX-512.
template <typename Slot>
[[gnu::always_inline]] inline std::int64_t term_sum(const GroupedPlan& plan,
                                                    std::size_t t,
                                                    std::size_t end,
                                                    const Slot* src) {
  const std::uint32_t* idx = plan.idx.data();
  std::int64_t even = 0;
  std::int64_t odd = 0;
  for (; t + 4 <= end; t += 4) {
    even += std::int64_t{src[idx[t]]} + src[idx[t + 1]];
    odd += std::int64_t{src[idx[t + 2]]} + src[idx[t + 3]];
    // Pins both sums to registers each step: GCC's -O3 vectorizer
    // otherwise turns the step into emulated gathers, which made the
    // per-sample SVHN walk ~1.7× slower.
    asm("" : "+r"(even), "+r"(odd));
  }
  for (; t < end; ++t) even += src[idx[t]];
  return even + odd;
}

/// accumulate_dense: the k-strided multiples hold every lane, so each
/// (shift, sign) run of lane groups sums as one group.
void dense_walk(const DenseLayerPlan& plan, const std::int64_t* multiples,
                std::int64_t* out) {
  const std::uint32_t* begin = plan.group_begin.data();
  const std::uint32_t* runs = plan.run_groups.data();
  for (std::size_t r = 0; r < static_cast<std::size_t>(plan.rows); ++r) {
    std::int64_t acc = plan.biases[r];
    for (std::size_t j = plan.row_runs[r]; j < plan.row_runs[r + 1]; ++j) {
      const std::size_t g = runs[j];
      acc += signed_shift(
          plan, g, term_sum(plan, begin[g], begin[runs[j + 1]], multiples));
    }
    out[r] = acc;
  }
}

/// accumulate_dense_tile: each term reads the kDenseTile int16 lanes
/// of input idx / k, and each group's Σx is scaled by its lane's
/// alphabet, in int64 — the oracle needs no chunk or row proof.
void tile_walk(const DenseLayerPlan& plan,
               std::span<const std::uint8_t> alphabets,
               const std::int16_t* tile, std::int64_t* out) {
  constexpr std::size_t kTile = kDenseTile;
  const auto k = static_cast<std::uint32_t>(plan.k);
  for (std::size_t r = 0; r < static_cast<std::size_t>(plan.rows); ++r) {
    std::int64_t acc[kTile];
    std::fill_n(acc, kTile, plan.biases[r]);
    for (std::size_t g = plan.row_groups[r]; g < plan.row_groups[r + 1]; ++g) {
      std::int64_t sum[kTile] = {};
      for (std::size_t t = plan.group_begin[g]; t < plan.group_begin[g + 1];
           ++t) {
        const std::int16_t* lanes = tile + std::size_t{plan.idx[t] / k} * kTile;
        for (std::size_t b = 0; b < kTile; ++b) sum[b] += lanes[b];
      }
      const std::int64_t a = alphabets[plan.bank_lanes[g]];
      for (std::size_t b = 0; b < kTile; ++b) {
        acc[b] += signed_shift(plan, g, a * sum[b]);
      }
    }
    std::copy_n(acc, kTile, out + r * kTile);
  }
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
        const Slot* base =
            multiples + static_cast<std::size_t>(oy) * plan.iw + ox;
        std::int64_t acc = plan.biases[r];
        for (std::size_t g = plan.row_groups[r]; g < plan.row_groups[r + 1];
             ++g) {
          acc += signed_shift(
              plan, g,
              term_sum(plan, plan.group_begin[g], plan.group_begin[g + 1],
                       base));
        }
        out[r * positions + static_cast<std::size_t>(oy) * plan.ow + ox] = acc;
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
    dense_walk(plan, multiples, out);
  }

  void accumulate_dense_tile(const DenseLayerPlan& plan,
                             std::span<const std::uint8_t> alphabets,
                             int /*chunk*/, const std::int16_t* tile,
                             std::int64_t* out) const override {
    tile_walk(plan, alphabets, tile, out);
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
