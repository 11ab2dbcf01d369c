// Portable kernels (declared in planes_kernel.h). Built at
// the default ISA like every file but the two intrinsics backends,
// which call in here for their fallbacks — keep it that way.
#include "man/backend/planes_kernel.h"

#include <algorithm>
#include <cstring>

namespace man::backend::detail {

void accumulate_groups(const DenseLayerPlan& plan,
                       const std::int64_t* multiples, std::int64_t* out) {
  const std::uint32_t* idx = plan.idx.data();
  const std::uint32_t* begin = plan.group_begin.data();
  for (std::size_t r = 0; r < static_cast<std::size_t>(plan.rows); ++r) {
    std::int64_t acc = plan.biases[r];
    for (std::size_t g = plan.row_groups[r]; g < plan.row_groups[r + 1]; ++g) {
      std::int64_t sum = 0;
      for (std::uint32_t t = begin[g]; t < begin[g + 1]; ++t) {
        sum += multiples[idx[t]];
      }
      const std::int64_t sign = plan.sign_masks[g];
      acc += ((sum << plan.shifts[g]) ^ sign) - sign;
    }
    out[r] = acc;
  }
}

namespace {

/// Four int32 lanes as a GCC/Clang vector extension, which lowers to
/// the default ISA's vectors (SSE2, NEON) or to scalar code: a
/// kDenseTile-sample slot is kTileQuads of them. The same loop over a
/// plain int32[16] was left scalar by GCC 12 and ran ≈ 2.4× slower.
using Quad = std::int32_t __attribute__((vector_size(16)));
constexpr std::size_t kTileQuads = kDenseTile / 4;

}  // namespace

void accumulate_groups_tile(const DenseLayerPlan& plan,
                            const std::int32_t* tile, std::int64_t* out) {
  const std::uint32_t* idx = plan.idx.data();
  const std::uint32_t* begin = plan.group_begin.data();
  for (std::size_t r = 0; r < static_cast<std::size_t>(plan.rows); ++r) {
    Quad acc[kTileQuads] = {};
    for (std::size_t g = plan.row_groups[r]; g < plan.row_groups[r + 1]; ++g) {
      Quad sum[kTileQuads] = {};
      for (std::uint32_t t = begin[g]; t < begin[g + 1]; ++t) {
        const std::int32_t* src = tile + std::size_t{idx[t]} * kDenseTile;
        for (std::size_t v = 0; v < kTileQuads; ++v) {
          Quad lanes;
          std::memcpy(&lanes, src + 4 * v, sizeof lanes);
          sum[v] += lanes;
        }
      }
      const auto shift = static_cast<int>(plan.shifts[g]);
      for (std::size_t v = 0; v < kTileQuads; ++v) {
        acc[v] += plan.sign_masks[g] != 0 ? -(sum[v] << shift)
                                          : sum[v] << shift;
      }
    }
    for (std::size_t b = 0; b < kDenseTile; ++b) {
      out[r * kDenseTile + b] = plan.biases[r] + acc[b / 4][b % 4];
    }
  }
}

void exact_dense_blocked(const DenseLayerPlan& plan,
                         const std::int64_t* activations, std::int64_t* out) {
  for (int r = 0; r < plan.rows; ++r) {
    const std::int32_t* wrow =
        &plan.weights[static_cast<std::size_t>(r) * plan.cols];
    std::int64_t lanes[kLaneWidth] = {};
    const int main = plan.cols / kLaneWidth * kLaneWidth;
    for (int c = 0; c < main; c += kLaneWidth) {
      for (int l = 0; l < kLaneWidth; ++l) {
        lanes[l] += static_cast<std::int64_t>(wrow[c + l]) *
                    activations[static_cast<std::size_t>(c + l)];
      }
    }
    std::int64_t acc = plan.biases[static_cast<std::size_t>(r)];
    for (int l = 0; l < kLaneWidth; ++l) acc += lanes[l];
    for (int c = main; c < plan.cols; ++c) {
      acc += static_cast<std::int64_t>(wrow[c]) *
             activations[static_cast<std::size_t>(c)];
    }
    out[r] = acc;
  }
}

namespace {

/// Positions processed per tile of the conv plane walk: big enough to
/// amortize the per-weight plan loads across a whole cache line of
/// accumulators, small enough to live on the stack.
constexpr int kConvTile = 64;

// The tile covers up to kConvTile output positions, arranged as several
// output rows × a run of columns: a conv weight fires once per output
// position with the same idx/shift/sign, so each plan entry is loaded
// once per *tile* and streamed over every tile position — multi-row
// tiles matter because a large conv stage's plan exceeds L1 and would
// otherwise be re-read once per output row. In the lane-major layout
// the per-row reads are contiguous (base offsets step by one element),
// so the inner loop is a shift-and-add over adjacent slots — exactly
// the shape the auto-vectorizer eats. The per-weight quartet steps are
// packed from plane 0, so the first absent cell ends the weight —
// skipped weights contribute exactly the zero the padded walk would
// have added, keeping the result bit-identical to the scalar reference.
// Sums run in the slot type: int64, or int32 for a plan that passed
// int32_row_bound(), widened where the bias is added.
template <typename Slot>
void conv_planes(const ConvLayerPlan& plan, const Slot* multiples,
                 std::int64_t* out) {
  const std::size_t stride = plan.plane_stride();
  const std::size_t positions = plan.positions();
  const std::uint32_t* idx = plan.idx.data();
  const std::int64_t* shifts = plan.shifts.data();
  const std::int64_t* signs = plan.sign_masks.data();
  const int cn = std::min(plan.ow, kConvTile);       // tile columns
  const int rn_max = std::max(1, kConvTile / cn);    // tile rows
  Slot tmp[kConvTile];
  for (int oy0 = 0; oy0 < plan.oh; oy0 += rn_max) {
    const int rn = std::min(rn_max, plan.oh - oy0);
    for (int ox0 = 0; ox0 < plan.ow; ox0 += cn) {
      const int tc = std::min(cn, plan.ow - ox0);
      const std::size_t ebase0 =
          static_cast<std::size_t>(oy0) * plan.iw + ox0;
      for (int r = 0; r < plan.oc; ++r) {
        std::int64_t* out_r = out + static_cast<std::size_t>(r) * positions;
        const std::int64_t bias = plan.biases[static_cast<std::size_t>(r)];
        for (int t = 0; t < rn * tc; ++t) tmp[t] = 0;
        const std::size_t row =
            static_cast<std::size_t>(r) * plan.cols_padded;
        for (int c = 0; c < plan.cols_padded; ++c) {
          const std::size_t cell = row + static_cast<std::size_t>(c);
          const std::uint32_t first_idx = idx[cell];
          if (first_idx == plan.zero_base) continue;  // zero-step weight
          const std::int64_t sign = signs[cell];
          // A positive weight accumulates its shifted multiples
          // straight into the tile; a negative one forms the
          // per-position product first, then subtracts it — two's
          // complement makes (product ^ -1) - (-1) == -product exactly.
          Slot prod[kConvTile];
          Slot* dst_tile = sign == 0 ? tmp : prod;
          if (sign != 0) {
            for (int t = 0; t < rn * tc; ++t) prod[t] = 0;
          }
          for (int q = 0; q < plan.planes; ++q) {
            const std::size_t pc = q * stride + cell;
            const std::uint32_t cell_idx = idx[pc];
            if (cell_idx == plan.zero_base) break;  // steps are packed
            const auto sh = static_cast<int>(shifts[pc]);
            for (int ty = 0; ty < rn; ++ty) {
              const Slot* src = multiples + cell_idx + ebase0 +
                                static_cast<std::size_t>(ty) * plan.iw;
              Slot* dst = dst_tile + ty * tc;
              for (int t = 0; t < tc; ++t) dst[t] += src[t] << sh;
            }
          }
          if (sign != 0) {
            for (int t = 0; t < rn * tc; ++t) tmp[t] -= prod[t];
          }
        }
        for (int ty = 0; ty < rn; ++ty) {
          std::int64_t* out_row = out_r +
                                  static_cast<std::size_t>(oy0 + ty) *
                                      plan.ow +
                                  ox0;
          const Slot* src = tmp + ty * tc;
          for (int t = 0; t < tc; ++t) out_row[t] = bias + src[t];
        }
      }
    }
  }
}

}  // namespace

void accumulate_conv_planes(const ConvLayerPlan& plan,
                            const std::int64_t* multiples, std::int64_t* out) {
  conv_planes(plan, multiples, out);
}

void accumulate_conv_planes(const ConvLayerPlan& plan,
                            const std::int32_t* multiples, std::int64_t* out) {
  conv_planes(plan, multiples, out);
}

void exact_conv_blocked(const ConvLayerPlan& plan,
                        const std::int64_t* activations, std::int64_t* out) {
  const std::size_t positions = plan.positions();
  const std::uint32_t* elems = plan.patch_elems.data();
  for (int oy = 0; oy < plan.oh; ++oy) {
    for (int ox = 0; ox < plan.ow; ++ox) {
      const std::size_t base = static_cast<std::size_t>(oy) * plan.iw + ox;
      const std::size_t p = static_cast<std::size_t>(oy) * plan.ow + ox;
      for (int r = 0; r < plan.oc; ++r) {
        const std::int32_t* wrow =
            &plan.weights[static_cast<std::size_t>(r) * plan.cols_padded];
        std::int64_t lanes[kLaneWidth] = {};
        for (int c = 0; c < plan.cols_padded; c += kLaneWidth) {
          for (int l = 0; l < kLaneWidth; ++l) {
            lanes[l] += static_cast<std::int64_t>(wrow[c + l]) *
                        activations[elems[c + l] + base];
          }
        }
        std::int64_t acc = plan.biases[static_cast<std::size_t>(r)];
        for (int l = 0; l < kLaneWidth; ++l) acc += lanes[l];
        out[static_cast<std::size_t>(r) * positions + p] = acc;
      }
    }
  }
}

}  // namespace man::backend::detail
