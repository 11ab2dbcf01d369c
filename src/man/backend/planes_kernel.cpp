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

namespace {

/// Σ_c weights[c] · value(c) over `cols` columns in four independent
/// accumulators, which the compiler can keep in one vector.
template <typename Value>
std::int64_t blocked_dot(const std::int32_t* weights, int cols,
                         Value value) {
  constexpr int kBlock = 4;
  std::int64_t lanes[kBlock] = {};
  const int main = cols / kBlock * kBlock;
  for (int c = 0; c < main; c += kBlock) {
    for (int l = 0; l < kBlock; ++l) {
      lanes[l] += static_cast<std::int64_t>(weights[c + l]) * value(c + l);
    }
  }
  std::int64_t acc = 0;
  for (const std::int64_t lane : lanes) acc += lane;
  for (int c = main; c < cols; ++c) {
    acc += static_cast<std::int64_t>(weights[c]) * value(c);
  }
  return acc;
}

}  // namespace

void exact_dense_blocked(const DenseLayerPlan& plan,
                         const std::int64_t* activations, std::int64_t* out) {
  for (std::size_t r = 0; r < static_cast<std::size_t>(plan.rows); ++r) {
    out[r] = plan.biases[r] +
             blocked_dot(&plan.weights[r * plan.cols], plan.cols,
                         [&](int c) { return activations[c]; });
  }
}

namespace {

/// Positions processed per tile of the conv group walk: big enough to
/// amortize the per-term plan loads across a whole cache line of
/// accumulators, small enough to live on the stack.
constexpr int kConvTile = 64;

// The tile covers up to kConvTile output positions, arranged as several
// output rows × a run of columns: a conv term fires once per output
// position with the same slot, so each term is loaded once per *tile*
// and streamed over every tile position — multi-row tiles matter
// because a large conv stage's plan exceeds L1 and would otherwise be
// re-read once per output row. In the lane-major layout the per-row
// reads are contiguous (base offsets step by one element), so the
// inner loop is an add over adjacent slots — exactly the shape the
// auto-vectorizer eats. Each group's sum is shifted once and added or
// subtracted. Sums run in the slot type: int64, or int32 for a plan
// that passed int32_row_bound(), widened where the bias is added.
template <typename Slot>
void conv_groups(const ConvLayerPlan& plan, const Slot* multiples,
                 std::int64_t* out) {
  const std::size_t positions = plan.positions();
  const std::uint32_t* idx = plan.idx.data();
  const std::uint32_t* begin = plan.group_begin.data();
  const int cn = std::min(plan.ow, kConvTile);       // tile columns
  const int rn_max = std::max(1, kConvTile / cn);    // tile rows
  for (int oy0 = 0; oy0 < plan.oh; oy0 += rn_max) {
    const int rn = std::min(rn_max, plan.oh - oy0);
    for (int ox0 = 0; ox0 < plan.ow; ox0 += cn) {
      const int tc = std::min(cn, plan.ow - ox0);
      const int n = rn * tc;
      const Slot* base =
          multiples + static_cast<std::size_t>(oy0) * plan.iw + ox0;
      for (std::size_t r = 0; r < static_cast<std::size_t>(plan.oc); ++r) {
        Slot acc[kConvTile] = {};
        for (std::size_t g = plan.row_groups[r]; g < plan.row_groups[r + 1];
             ++g) {
          Slot sum[kConvTile];
          for (int i = 0; i < n; ++i) sum[i] = 0;
          for (std::uint32_t t = begin[g]; t < begin[g + 1]; ++t) {
            for (int ty = 0; ty < rn; ++ty) {
              const Slot* src =
                  base + idx[t] + static_cast<std::size_t>(ty) * plan.iw;
              Slot* dst = sum + ty * tc;
              for (int tx = 0; tx < tc; ++tx) dst[tx] += src[tx];
            }
          }
          const auto sh = static_cast<int>(plan.shifts[g]);
          if (plan.sign_masks[g] != 0) {
            for (int i = 0; i < n; ++i) acc[i] -= sum[i] << sh;
          } else {
            for (int i = 0; i < n; ++i) acc[i] += sum[i] << sh;
          }
        }
        for (int ty = 0; ty < rn; ++ty) {
          std::int64_t* dst = out + r * positions +
                              static_cast<std::size_t>(oy0 + ty) * plan.ow +
                              ox0;
          for (int tx = 0; tx < tc; ++tx) {
            dst[tx] = plan.biases[r] + acc[ty * tc + tx];
          }
        }
      }
    }
  }
}

}  // namespace

void accumulate_conv_groups(const ConvLayerPlan& plan,
                            const std::int64_t* multiples, std::int64_t* out) {
  conv_groups(plan, multiples, out);
}

void accumulate_conv_groups(const ConvLayerPlan& plan,
                            const std::int32_t* multiples, std::int64_t* out) {
  conv_groups(plan, multiples, out);
}

void exact_conv_blocked(const ConvLayerPlan& plan,
                        const std::int64_t* activations, std::int64_t* out) {
  const std::size_t positions = plan.positions();
  const std::uint32_t* elems = plan.patch_elems.data();
  for (int oy = 0; oy < plan.oh; ++oy) {
    for (int ox = 0; ox < plan.ow; ++ox) {
      const std::size_t base = static_cast<std::size_t>(oy) * plan.iw + ox;
      const std::size_t p = static_cast<std::size_t>(oy) * plan.ow + ox;
      for (std::size_t r = 0; r < static_cast<std::size_t>(plan.oc); ++r) {
        out[r * positions + p] =
            plan.biases[r] +
            blocked_dot(&plan.weights[r * plan.cols], plan.cols,
                        [&](int c) { return activations[elems[c] + base]; });
      }
    }
  }
}

}  // namespace man::backend::detail
