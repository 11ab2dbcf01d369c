#include "man/backend/layer_plan.h"

#include "man/backend/conv_autotune.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>
#include <string>

namespace man::backend {

DenseLayerPlan DenseLayerPlan::build_exact(int rows, int cols,
                                           std::vector<std::int32_t> weights,
                                           std::vector<std::int64_t> biases) {
  if (weights.size() != static_cast<std::size_t>(rows) * cols) {
    throw std::invalid_argument(
        "DenseLayerPlan: " + std::to_string(weights.size()) +
        " weights for " + std::to_string(rows) + "x" + std::to_string(cols));
  }
  DenseLayerPlan plan;
  plan.rows = rows;
  plan.cols = cols;
  plan.exact = true;
  plan.weights = std::move(weights);
  plan.biases = std::move(biases);
  return plan;
}

DenseLayerPlan DenseLayerPlan::build_asm(int rows, int cols, int k,
                                         std::vector<AsmWeight> asm_weights,
                                         std::vector<AsmStep> steps,
                                         std::vector<std::int64_t> biases) {
  if (asm_weights.size() != static_cast<std::size_t>(rows) * cols) {
    throw std::invalid_argument(
        "DenseLayerPlan: " + std::to_string(asm_weights.size()) +
        " schedules for " + std::to_string(rows) + "x" + std::to_string(cols));
  }
  DenseLayerPlan plan;
  plan.rows = rows;
  plan.cols = cols;
  plan.k = k;
  plan.biases = std::move(biases);

  // One stable counting pass per row over (shift, sign) buckets, key
  // shift · 2 + negative: columns arrive in ascending order, so a
  // bucket is already sorted by idx unless one weight put two steps
  // into it out of lane order.
  constexpr std::size_t kBuckets = 2 * kMaxDenseShift;
  std::vector<std::uint32_t> row_groups{0};
  std::vector<std::uint32_t> group_begin{0};
  std::vector<std::int64_t> shifts;
  std::vector<std::int64_t> sign_masks;
  std::size_t total = 0;
  for (const AsmWeight& w : asm_weights) {
    if (w.step_begin + std::size_t{w.step_count} > steps.size()) {
      throw std::invalid_argument("DenseLayerPlan: schedule past its steps");
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
        if (step.lane >= k || step.shift >= kMaxDenseShift) {
          throw std::invalid_argument(
              "DenseLayerPlan: step lane " + std::to_string(step.lane) +
              " shift " + std::to_string(step.shift) + " out of range");
        }
        visit(step.shift * 2u + (w.negative ? 1u : 0u),
              static_cast<std::uint32_t>(c) * k + step.lane);
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
    for_each_step(r, [&](std::size_t key, std::uint32_t slot) {
      idx[terms + next[key]++] = slot;
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
  return plan;
}

namespace {

/// Shared geometry setup: validates the valid-padding stride-1 shape
/// and fills the patch-element offsets (input element of padded patch
/// column c at output position (0,0); padding columns read element 0).
ConvLayerPlan conv_geometry(int oc, int ic, int kernel, int ih, int iw) {
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
  plan.cols_padded =
      (plan.cols + kLaneWidth - 1) / kLaneWidth * kLaneWidth;
  plan.patch_elems.assign(static_cast<std::size_t>(plan.cols_padded), 0);
  for (int c = 0; c < plan.cols; ++c) {
    const int channel = c / (kernel * kernel);
    const int ky = (c / kernel) % kernel;
    const int kx = c % kernel;
    plan.patch_elems[static_cast<std::size_t>(c)] =
        static_cast<std::uint32_t>((channel * ih + ky) * iw + kx);
  }
  return plan;
}

}  // namespace

ConvLayerPlan ConvLayerPlan::build_exact(int oc, int ic, int kernel, int ih,
                                         int iw,
                                         std::vector<std::int32_t> weights,
                                         std::vector<std::int64_t> biases) {
  ConvLayerPlan plan = conv_geometry(oc, ic, kernel, ih, iw);
  if (weights.size() != static_cast<std::size_t>(oc) * plan.cols) {
    throw std::invalid_argument(
        "ConvLayerPlan: " + std::to_string(weights.size()) +
        " weights for " + std::to_string(oc) + "x" +
        std::to_string(plan.cols));
  }
  plan.exact = true;
  plan.biases = std::move(biases);
  // Repack oc × cols into oc × cols_padded; padding weights are 0, so
  // the branch-free kernels read element 0 and contribute nothing.
  plan.weights.assign(
      static_cast<std::size_t>(oc) * plan.cols_padded, 0);
  for (int r = 0; r < oc; ++r) {
    for (int c = 0; c < plan.cols; ++c) {
      plan.weights[static_cast<std::size_t>(r) * plan.cols_padded + c] =
          weights[static_cast<std::size_t>(r) * plan.cols + c];
    }
  }
  return plan;
}

ConvLayerPlan ConvLayerPlan::build_asm(int oc, int ic, int kernel, int ih,
                                       int iw, int k,
                                       std::vector<AsmWeight> asm_weights,
                                       std::vector<AsmStep> steps,
                                       std::vector<std::int64_t> biases) {
  ConvLayerPlan plan = conv_geometry(oc, ic, kernel, ih, iw);
  if (asm_weights.size() != static_cast<std::size_t>(oc) * plan.cols) {
    throw std::invalid_argument(
        "ConvLayerPlan: " + std::to_string(asm_weights.size()) +
        " schedules for " + std::to_string(oc) + "x" +
        std::to_string(plan.cols));
  }
  plan.k = k;
  plan.zero_base = static_cast<std::uint32_t>(plan.input_elems()) * k;
  plan.biases = std::move(biases);

  for (const AsmWeight& w : asm_weights) {
    plan.planes = std::max(plan.planes, static_cast<int>(w.step_count));
  }
  // Degenerate all-zero-weight layer: keep one (all-absent) plane so
  // kernels that pre-read plane 0 for the zero-step skip never index
  // an empty idx array.
  plan.planes = std::max(plan.planes, 1);

  // Quartet planes, exactly as in the dense plan except offsets are
  // position-(0,0) patch elements: cells past a weight's step count
  // and the column padding read the zero region, which stays zero
  // under every position base.
  const std::size_t stride = plan.plane_stride();
  plan.idx.assign(static_cast<std::size_t>(plan.planes) * stride,
                  plan.zero_base);
  plan.shifts.assign(static_cast<std::size_t>(plan.planes) * stride, 0);
  plan.sign_masks.assign(stride, 0);
  for (int r = 0; r < oc; ++r) {
    for (int c = 0; c < plan.cols; ++c) {
      const AsmWeight& w =
          asm_weights[static_cast<std::size_t>(r) * plan.cols + c];
      const std::size_t cell =
          static_cast<std::size_t>(r) * plan.cols_padded + c;
      plan.sign_masks[cell] = w.negative ? -1 : 0;
      for (std::uint8_t s = 0; s < w.step_count; ++s) {
        const AsmStep& step = steps[w.step_begin + s];
        plan.idx[s * stride + cell] =
            static_cast<std::uint32_t>(step.lane) *
                static_cast<std::uint32_t>(plan.input_elems()) +
            plan.patch_elems[static_cast<std::size_t>(c)];
        plan.shifts[s * stride + cell] = step.shift;
      }
    }
  }
  return plan;
}

namespace {

constexpr std::int64_t kMax = kInt32RowOverflow - 1;

/// X · max(alphabets), the largest staged slot, with X the staging
/// window's bound; kInt32RowOverflow when the plan cannot run int32
/// lanes at all (exact, no window, alphabets that are not the plan's).
template <typename Plan>
std::int64_t slot_bound(const Plan& plan,
                        std::span<const std::uint8_t> alphabets,
                        std::int64_t& x) {
  const auto k = static_cast<std::size_t>(plan.k);
  if (plan.exact || !plan.has_input_range() || k < 1 ||
      alphabets.size() != k || plan.in_min_raw < -kMax ||
      plan.in_max_raw > kMax) {
    return kInt32RowOverflow;
  }
  x = std::max(-plan.in_min_raw, plan.in_max_raw);
  const std::int64_t bound =
      x * *std::max_element(alphabets.begin(), alphabets.end());
  return bound > kMax ? kInt32RowOverflow : bound;
}

}  // namespace

std::int64_t int32_row_bound(const DenseLayerPlan& plan,
                             std::span<const std::uint8_t> alphabets) {
  std::int64_t x = 0;
  std::int64_t bound = slot_bound(plan, alphabets, x);
  if (bound > kMax) return kInt32RowOverflow;
  const std::size_t slots = plan.padded_multiples();
  for (std::size_t r = 0; r < static_cast<std::size_t>(plan.rows); ++r) {
    std::int64_t row = 0;
    for (std::size_t g = plan.row_groups[r]; g < plan.row_groups[r + 1]; ++g) {
      const std::int64_t shift = plan.shifts[g];
      if (shift < 0 || shift > 30) return kInt32RowOverflow;
      std::int64_t group = 0;
      for (std::size_t t = plan.group_begin[g]; t < plan.group_begin[g + 1];
           ++t) {
        if (plan.idx[t] >= slots) return kInt32RowOverflow;
        group += x * alphabets[plan.idx[t] % alphabets.size()];
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

std::int64_t int32_row_bound(const ConvLayerPlan& plan,
                             std::span<const std::uint8_t> alphabets) {
  std::int64_t x = 0;
  std::int64_t bound = slot_bound(plan, alphabets, x);
  if (bound > kMax) return kInt32RowOverflow;

  // Filter sums: one per negative weight, then plane by plane, so
  // each plane streams once. Slots are lane-major (lane = slot /
  // (ic·ih·iw)) and read at slot + oy·iw + ox, which stays in the
  // slot's lane when its element plus the largest position base does.
  const std::size_t elems = plan.input_elems();
  const std::size_t stride = plan.plane_stride();
  std::vector<std::int64_t> sums(static_cast<std::size_t>(plan.oc), 0);
  for (std::size_t r = 0; r < sums.size(); ++r) {
    for (int c = 0; c < plan.cols; ++c) {
      sums[r] += plan.sign_masks[r * plan.cols_padded + c] != 0 ? 1 : 0;
    }
  }
  for (std::size_t q = 0; q < static_cast<std::size_t>(plan.planes); ++q) {
    for (std::size_t r = 0; r < sums.size(); ++r) {
      const std::size_t row = q * stride + r * plan.cols_padded;
      for (int c = 0; c < plan.cols; ++c) {
        const std::size_t pc = row + static_cast<std::size_t>(c);
        const std::int64_t shift = plan.shifts[pc];
        const std::uint32_t slot = plan.idx[pc];
        // The int32 kernels shift every entry, absent ones too.
        if (shift < 0 || shift > 30 || slot > plan.zero_base ||
            (slot < plan.zero_base &&
             slot % elems + plan.max_position_base() >= elems)) {
          return kInt32RowOverflow;
        }
        const std::int64_t staged =
            slot == plan.zero_base ? 0 : x * alphabets[slot / elems];
        if (staged > (kMax >> shift)) return kInt32RowOverflow;
        sums[r] += staged << shift;
      }
      if (sums[r] > kMax) return kInt32RowOverflow;
    }
  }
  for (const std::int64_t sum : sums) bound = std::max(bound, sum);
  return bound;
}

std::string to_string(const ConvTileShape& shape) {
  return std::to_string(shape.row_tile) + "x" + std::to_string(shape.col_vecs);
}

}  // namespace man::backend
