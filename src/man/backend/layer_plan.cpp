#include "man/backend/layer_plan.h"

#include "man/backend/conv_autotune.h"

#include <algorithm>
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
  plan.cols_padded = cols;
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
  plan.cols_padded = (cols + kLaneWidth - 1) / kLaneWidth * kLaneWidth;
  plan.k = k;
  plan.zero_slot = static_cast<std::uint32_t>(cols) * k;
  plan.biases = std::move(biases);

  for (const AsmWeight& w : asm_weights) {
    plan.planes = std::max(plan.planes, static_cast<int>(w.step_count));
  }

  // Quartet planes: every (plane, weight) cell resolves to a padded
  // multiples offset + shift; cells past a weight's step count and the
  // column-padding cells read the zero slot, so kernels never branch.
  const std::size_t stride = plan.plane_stride();
  plan.idx.assign(static_cast<std::size_t>(plan.planes) * stride,
                  plan.zero_slot);
  plan.shifts.assign(static_cast<std::size_t>(plan.planes) * stride, 0);
  plan.sign_masks.assign(stride, 0);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const AsmWeight& w =
          asm_weights[static_cast<std::size_t>(r) * cols + c];
      const std::size_t cell =
          static_cast<std::size_t>(r) * plan.cols_padded + c;
      plan.sign_masks[cell] = w.negative ? -1 : 0;
      for (std::uint8_t s = 0; s < w.step_count; ++s) {
        const AsmStep& step = steps[w.step_begin + s];
        plan.idx[s * stride + cell] =
            static_cast<std::uint32_t>(c) * k + step.lane;
        plan.shifts[s * stride + cell] = step.shift;
      }
    }
  }
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

// Slot layout of the two plan kinds, for the row bound: the absent
// slot (zero slot or zero-region base), the alphabet lane a staged
// slot holds, and whether every read through a slot stays in that
// lane. Dense slots are k-strided (lane = slot % k) and read once.
// Conv slots are lane-major (lane = slot / (ic·ih·iw)) and read at
// slot + oy·iw + ox, which stays in the slot's lane when its element
// plus the largest position base does.
std::uint32_t absent_slot(const DenseLayerPlan& plan) { return plan.zero_slot; }
std::uint32_t absent_slot(const ConvLayerPlan& plan) { return plan.zero_base; }
std::size_t row_count(const DenseLayerPlan& plan) {
  return static_cast<std::size_t>(plan.rows);
}
std::size_t row_count(const ConvLayerPlan& plan) {
  return static_cast<std::size_t>(plan.oc);
}
std::size_t lane_of(const DenseLayerPlan& plan, std::uint32_t slot) {
  return slot % static_cast<std::size_t>(plan.k);
}
std::size_t lane_of(const ConvLayerPlan& plan, std::uint32_t slot) {
  return slot / plan.input_elems();
}
bool reads_in_lane(const DenseLayerPlan& /*plan*/, std::uint32_t /*slot*/) {
  return true;
}
bool reads_in_lane(const ConvLayerPlan& plan, std::uint32_t slot) {
  return slot % plan.input_elems() + plan.max_position_base() <
         plan.input_elems();
}

template <typename Plan>
std::int64_t row_bound(const Plan& plan,
                       std::span<const std::uint8_t> alphabets) {
  constexpr std::int64_t kMax = kInt32RowOverflow - 1;
  const auto k = static_cast<std::size_t>(plan.k);
  if (plan.exact || !plan.has_input_range() || k < 1 ||
      alphabets.size() != k || plan.in_min_raw < -kMax ||
      plan.in_max_raw > kMax) {
    return kInt32RowOverflow;
  }
  const std::int64_t x = std::max(-plan.in_min_raw, plan.in_max_raw);
  // Every staged slot holds X · a, which the int32 lanes store as is.
  std::int64_t bound =
      x * *std::max_element(alphabets.begin(), alphabets.end());
  if (bound > kMax) return kInt32RowOverflow;

  // Row sums: one per negative weight, then plane by plane, so each
  // plane streams once.
  const std::uint32_t absent = absent_slot(plan);
  const std::size_t stride = plan.plane_stride();
  std::vector<std::int64_t> sums(row_count(plan), 0);
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
        if (shift < 0 || shift > 30 || slot > absent ||
            (slot < absent && !reads_in_lane(plan, slot))) {
          return kInt32RowOverflow;
        }
        const std::int64_t staged =
            slot == absent ? 0 : x * alphabets[lane_of(plan, slot)];
        if (staged > (kMax >> shift)) return kInt32RowOverflow;
        sums[r] += staged << shift;
      }
      if (sums[r] > kMax) return kInt32RowOverflow;
    }
  }
  for (const std::int64_t sum : sums) bound = std::max(bound, sum);
  return bound;
}

}  // namespace

std::int64_t int32_row_bound(const DenseLayerPlan& plan,
                             std::span<const std::uint8_t> alphabets) {
  return row_bound(plan, alphabets);
}

std::int64_t int32_row_bound(const ConvLayerPlan& plan,
                             std::span<const std::uint8_t> alphabets) {
  return row_bound(plan, alphabets);
}

std::string to_string(const ConvTileShape& shape) {
  return std::to_string(shape.row_tile) + "x" + std::to_string(shape.col_vecs);
}

}  // namespace man::backend
