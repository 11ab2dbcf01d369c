#include "man/backend/layer_plan.h"

#include "man/backend/conv_autotune.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>

namespace man::backend {

namespace {

/// Throws unless `schedules` compiled weights were given for rows × cols.
void check_count(std::size_t schedules, int rows, int cols,
                 const char* what) {
  if (schedules != static_cast<std::size_t>(rows) * cols) {
    throw std::invalid_argument(std::string(what) + ": " +
                                std::to_string(schedules) + " for " +
                                std::to_string(rows) + "x" +
                                std::to_string(cols));
  }
}

/// The grouping pass of both plan kinds: the (shift, sign) groups of
/// `rows` × `cols` compiled weights, where weight (r, c)'s step on
/// `lane` reads multiples slot `slot(c, lane)`.
///
/// One stable counting pass per row over (shift, sign) buckets, key
/// shift · 2 + negative: columns arrive in ascending order, so a
/// bucket is already sorted by idx unless the slots of one lane do not
/// grow with c, or one weight put two steps into it out of lane order.
template <typename Slot>
void build_groups(GroupedPlan& plan, int rows, int cols,
                  const std::vector<AsmWeight>& asm_weights,
                  const std::vector<AsmStep>& steps, Slot slot) {
  constexpr std::size_t kBuckets = 2 * kMaxShift;
  std::vector<std::uint32_t> row_groups{0};
  std::vector<std::uint32_t> group_begin{0};
  std::vector<std::int64_t> shifts;
  std::vector<std::int64_t> sign_masks;
  std::size_t total = 0;
  for (const AsmWeight& w : asm_weights) {
    if (w.step_begin + std::size_t{w.step_count} > steps.size()) {
      throw std::invalid_argument("build_asm: schedule past its steps");
    }
    total += w.step_count;
  }
  std::vector<std::uint32_t> idx(total);
  std::size_t terms = 0;
  row_groups.reserve(static_cast<std::size_t>(rows) + 1);
  const auto for_each_step = [&](int r, auto&& visit) {
    for (int c = 0; c < cols; ++c) {
      const AsmWeight& w = asm_weights[static_cast<std::size_t>(r) * cols + c];
      for (std::uint8_t s = 0; s < w.step_count; ++s) {
        const AsmStep& step = steps[w.step_begin + s];
        if (step.lane >= plan.k || step.shift >= kMaxShift) {
          throw std::invalid_argument(
              "build_asm: step lane " + std::to_string(step.lane) +
              " shift " + std::to_string(step.shift) + " out of range");
        }
        visit(step.shift * 2u + (w.negative ? 1u : 0u), slot(c, step.lane));
      }
    }
  };
  for (int r = 0; r < rows; ++r) {
    // Bucket key's terms land at terms + [bounds[key], bounds[key+1]).
    std::array<std::size_t, kBuckets + 1> bounds{};
    for_each_step(r,
                  [&](std::size_t key, std::uint32_t) { ++bounds[key + 1]; });
    std::partial_sum(bounds.begin(), bounds.end(), bounds.begin());
    std::array<std::size_t, kBuckets> next{};
    std::copy_n(bounds.begin(), kBuckets, next.begin());
    for_each_step(r, [&](std::size_t key, std::uint32_t term) {
      idx[terms + next[key]++] = term;
    });
    for (std::size_t key = 0; key < kBuckets; ++key) {
      if (bounds[key] == bounds[key + 1]) continue;
      const auto first =
          idx.begin() + static_cast<std::ptrdiff_t>(terms + bounds[key]);
      const auto last =
          idx.begin() + static_cast<std::ptrdiff_t>(terms + bounds[key + 1]);
      if (!std::is_sorted(first, last)) std::sort(first, last);
      shifts.push_back(static_cast<std::int64_t>(key / 2));
      sign_masks.push_back(key % 2 == 1 ? -1 : 0);
      group_begin.push_back(
          static_cast<std::uint32_t>(terms + bounds[key + 1]));
    }
    terms += bounds[kBuckets];
    row_groups.push_back(static_cast<std::uint32_t>(shifts.size()));
  }
  plan.row_groups = std::move(row_groups);
  plan.group_begin = std::move(group_begin);
  plan.shifts = std::move(shifts);
  plan.sign_masks = std::move(sign_masks);
  plan.idx = std::move(idx);
}

}  // namespace

DenseLayerPlan DenseLayerPlan::build_asm(int rows, int cols, int k,
                                         std::vector<AsmWeight> asm_weights,
                                         std::vector<AsmStep> steps,
                                         std::vector<std::int64_t> biases) {
  check_count(asm_weights.size(), rows, cols, "DenseLayerPlan schedules");
  DenseLayerPlan plan;
  plan.rows = rows;
  plan.cols = cols;
  plan.k = k;
  plan.biases = std::move(biases);
  build_groups(plan, rows, cols, asm_weights, steps,
               [k](int c, std::uint8_t lane) {
                 return static_cast<std::uint32_t>(c) * k + lane;
               });
  return plan;
}

ConvLayerPlan ConvLayerPlan::build_asm(int oc, int ic, int kernel, int ih,
                                       int iw, int k,
                                       std::vector<AsmWeight> asm_weights,
                                       std::vector<AsmStep> steps,
                                       std::vector<std::int64_t> biases) {
  if (oc < 1 || ic < 1 || kernel < 1 || ih < kernel || iw < kernel) {
    throw std::invalid_argument(
        "ConvLayerPlan: bad geometry " + std::to_string(oc) + "x" +
        std::to_string(ic) + "x" + std::to_string(kernel) + " over " +
        std::to_string(ih) + "x" + std::to_string(iw));
  }
  ConvLayerPlan plan;
  plan.oc = oc;
  plan.ic = ic;
  plan.kernel = kernel;
  plan.ih = ih;
  plan.iw = iw;
  plan.oh = ih - kernel + 1;
  plan.ow = iw - kernel + 1;
  plan.cols = ic * kernel * kernel;
  check_count(asm_weights.size(), oc, plan.cols, "ConvLayerPlan schedules");
  plan.k = k;
  plan.biases = std::move(biases);
  // Patch column c, in (ic, ky, kx) order, reads input element
  // (channel · ih + ky) · iw + kx at output position (0,0).
  const auto elems = static_cast<std::uint32_t>(plan.input_elems());
  build_groups(plan, oc, plan.cols, asm_weights, steps,
               [&](int c, std::uint8_t lane) {
                 const int channel = c / (kernel * kernel);
                 const int ky = (c / kernel) % kernel;
                 const int kx = c % kernel;
                 return lane * elems + static_cast<std::uint32_t>(
                                           (channel * ih + ky) * iw + kx);
               });
  return plan;
}

namespace {

constexpr std::int64_t kMax = kInt32RowOverflow - 1;

/// int32_row_bound() of either plan kind, over its `rows` rows.
template <typename Plan>
std::int64_t group_bound(const Plan& plan, int rows,
                         std::span<const std::uint8_t> alphabets) {
  const auto k = static_cast<std::size_t>(plan.k);
  if (!plan.has_input_range() || k < 1 || alphabets.size() != k ||
      plan.in_min_raw < -kMax || plan.in_max_raw > kMax) {
    return kInt32RowOverflow;
  }
  // X · max(alphabets), the largest staged slot.
  const std::int64_t x = std::max(-plan.in_min_raw, plan.in_max_raw);
  std::int64_t bound =
      x * *std::max_element(alphabets.begin(), alphabets.end());
  if (bound > kMax) return kInt32RowOverflow;
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    std::int64_t row = 0;
    for (std::size_t g = plan.row_groups[r]; g < plan.row_groups[r + 1]; ++g) {
      const std::int64_t shift = plan.shifts[g];
      if (shift < 0 || shift > 30) return kInt32RowOverflow;
      std::int64_t group = 0;
      for (std::size_t t = plan.group_begin[g]; t < plan.group_begin[g + 1];
           ++t) {
        const int lane = plan.term_lane(plan.idx[t]);
        if (lane < 0) return kInt32RowOverflow;
        group += x * alphabets[static_cast<std::size_t>(lane)];
        if (group > kMax) return kInt32RowOverflow;
      }
      if (group > (kMax >> shift)) return kInt32RowOverflow;
      row += group << shift;
      if (row > kMax) return kInt32RowOverflow;
    }
    bound = std::max(bound, row);
  }
  return bound;
}

}  // namespace

std::int64_t int32_row_bound(const DenseLayerPlan& plan,
                             std::span<const std::uint8_t> alphabets) {
  return group_bound(plan, plan.rows, alphabets);
}

std::int64_t int32_row_bound(const ConvLayerPlan& plan,
                             std::span<const std::uint8_t> alphabets) {
  return group_bound(plan, plan.oc, alphabets);
}

int int16_tile_chunk(const DenseLayerPlan& plan,
                     std::span<const std::uint8_t> alphabets) {
  constexpr std::int64_t kInt16Max = INT16_MAX;
  if (!plan.has_input_range() || plan.k < 1 ||
      alphabets.size() != static_cast<std::size_t>(plan.k) ||
      plan.in_min_raw < -kInt16Max || plan.in_max_raw > kInt16Max) {
    return 0;
  }
  const std::int64_t x = std::max(-plan.in_min_raw, plan.in_max_raw);
  const std::int64_t slot =
      x * *std::max_element(alphabets.begin(), alphabets.end());
  // An all-zero window stages only zeros: any run of terms fits.
  return static_cast<int>(kInt16Max / std::max<std::int64_t>(slot, 1));
}

std::string to_string(const ConvTileShape& shape) {
  return std::to_string(shape.row_tile) + "x" + std::to_string(shape.col_vecs);
}

}  // namespace man::backend
