// The vector backends' loops, each written once over a GCC/Clang
// generic vector type V and instantiated per vector width in
// vector_kernels.cpp: 16 bytes at the default ISA (SSE2, NEON, or
// scalar code where the target has no vectors), 32 bytes under
// MAN_TARGET_AVX2 and 64 bytes under MAN_TARGET_AVX512. Internal to
// vector_kernels.cpp: every template has internal linkage and is
// always inlined, so each copy is compiled for the ISA of the tagged
// function it lands in and no weak symbol can hand an AVX copy to
// portable callers (scripts/check_isa_leak.py).
//
// Bit-identical to the scalar reference: every lane runs the scalar
// ops (wrapping add, logical left shift, negation) on its own output,
// only the commutative summation order differs, and int32 lanes never
// leave int32 (int32_row_bound()). No lane reads outside its row's
// [0, ow) span: a lane that did would sum slots of another lane, whose
// multiples the row bound does not cover, and UBSan instruments
// vector arithmetic too. So rows have no masks, no buffer slack and no
// scalar tail: a row's last column group ends at ow and overlaps the
// one before it, recomputing and rewriting identical values.
#ifndef MAN_BACKEND_VECTOR_KERNELS_H
#define MAN_BACKEND_VECTOR_KERNELS_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "man/backend/layer_plan.h"

namespace man::backend::detail {
namespace {

// One explicit typedef per width: GCC 12 silently ignores
// vector_size(N) on an alias whose N depends on a template parameter.
using I32x2 = std::int32_t __attribute__((vector_size(8)));
using I32x4 = std::int32_t __attribute__((vector_size(16)));
using I32x8 = std::int32_t __attribute__((vector_size(32)));
using I32x16 = std::int32_t __attribute__((vector_size(64)));
using I64x2 = std::int64_t __attribute__((vector_size(16)));
using I64x4 = std::int64_t __attribute__((vector_size(32)));
using I64x8 = std::int64_t __attribute__((vector_size(64)));

/// Per vector type V: Half, what a conv row narrower than V drops to
/// (a 16-byte vector drops to its slot type, one position per lane);
/// for int32 lanes also Part, half of V's lanes, and Wide, those lanes
/// widened to int64.
template <typename V>
struct Lanes;
template <>
struct Lanes<I32x16> {
  using Half = I32x8;
  using Part = I32x8;
  using Wide = I64x8;
};
template <>
struct Lanes<I32x8> {
  using Half = I32x4;
  using Part = I32x4;
  using Wide = I64x4;
};
template <>
struct Lanes<I32x4> {
  using Half = std::int32_t;
  using Part = I32x2;
  using Wide = I64x2;
};
template <>
struct Lanes<I64x8> {
  using Half = I64x4;
};
template <>
struct Lanes<I64x4> {
  using Half = I64x2;
};
template <>
struct Lanes<I64x2> {
  using Half = std::int64_t;
};

/// The sizeof(V) bytes at `src`, any alignment.
template <typename V, typename Slot>
[[gnu::always_inline]] inline void load(V& v, const Slot* src) {
  std::memcpy(&v, src, sizeof v);
}

/// Group g's contribution to `n` accumulators: each sum shifted once,
/// then added, or subtracted for a negative group.
template <typename V>
[[gnu::always_inline]] inline void add_group(V* acc, const V* sum, int n,
                                             const GroupedPlan& plan,
                                             std::size_t g) {
  const auto shift = static_cast<int>(plan.shifts[g]);
  if (plan.sign_masks[g] != 0) {
    for (int i = 0; i < n; ++i) acc[i] -= sum[i] << shift;
  } else {
    for (int i = 0; i < n; ++i) acc[i] += sum[i] << shift;
  }
}

/// bias + acc's lanes, each widened to int64, at dst.
template <typename V>
[[gnu::always_inline]] inline void store_widened(std::int64_t* dst,
                                                 const V& acc,
                                                 std::int64_t bias) {
  if constexpr (std::is_integral_v<V>) {
    *dst = bias + acc;
  } else if constexpr (sizeof(acc[0]) == sizeof(std::int64_t)) {
    const V sum = acc + bias;
    std::memcpy(dst, &sum, sizeof sum);
  } else {
    // Half the lanes at a time, so each int64 vector is V's width.
    using Part = typename Lanes<V>::Part;
    using Wide = typename Lanes<V>::Wide;
    for (std::size_t h = 0; h < 2; ++h) {
      Part part;
      std::memcpy(&part, reinterpret_cast<const char*>(&acc) + h * sizeof part,
                  sizeof part);
      const Wide sum = __builtin_convertvector(part, Wide) + bias;
      std::memcpy(dst + h * (sizeof sum / sizeof *dst), &sum, sizeof sum);
    }
  }
}

/// KernelBackend::accumulate_dense_tile: a row's kDenseTile int32
/// sample lanes are kDenseTile / lanes vectors of V. A term is one idx
/// driving plain loads and adds from the sample-minor tile (no gather,
/// no shift); a group is one shift and one add or subtract per vector.
template <typename V>
[[gnu::always_inline]] inline void dense_tile(const DenseLayerPlan& plan,
                                              const std::int32_t* tile,
                                              std::int64_t* out) {
  constexpr int kLanes = sizeof(V) / sizeof(std::int32_t);
  constexpr int kVecs = kDenseTile / kLanes;
  const std::uint32_t* idx = plan.idx.data();
  const std::uint32_t* begin = plan.group_begin.data();
  for (std::size_t r = 0; r < static_cast<std::size_t>(plan.rows); ++r) {
    V acc[kVecs] = {};
    for (std::size_t g = plan.row_groups[r]; g < plan.row_groups[r + 1]; ++g) {
      V sum[kVecs] = {};
      for (std::uint32_t t = begin[g]; t < begin[g + 1]; ++t) {
        const std::int32_t* src = tile + std::size_t{idx[t]} * kDenseTile;
        for (int v = 0; v < kVecs; ++v) {
          V lanes;
          load(lanes, src + v * kLanes);
          sum[v] += lanes;
        }
      }
      add_group(acc, sum, kVecs, plan, g);
    }
    for (int v = 0; v < kVecs; ++v) {
      store_widened(out + r * kDenseTile + v * kLanes, acc[v],
                    plan.biases[r]);
    }
  }
}

/// One conv register tile: RN output rows from oy0 × CN ∈ {1, 2}
/// column groups of V's lanes, starting at positions ox[0] and
/// ox[CN − 1], for every filter. Consecutive positions of one row read
/// consecutive lane-major slots, so a term is one idx driving RN·CN
/// plain loads and adds into the group sums; RN and CN are
/// compile-time constants so the sums and accumulators stay in
/// registers.
template <typename V, int RN, int CN, typename Slot>
[[gnu::always_inline]] inline void conv_tile(const ConvLayerPlan& plan,
                                             const Slot* multiples,
                                             std::int64_t* out, int oy0,
                                             const int* ox) {
  const std::size_t positions = plan.positions();
  const std::uint32_t* idx = plan.idx.data();
  const std::uint32_t* begin = plan.group_begin.data();
  // Where each tile row's first column group reads position (0,0)'s
  // slots; a term adds its idx, and the second group adds step.
  const Slot* at[RN];
  for (int ty = 0; ty < RN; ++ty) {
    at[ty] = multiples + static_cast<std::size_t>(oy0 + ty) * plan.iw + ox[0];
  }
  const std::size_t step = ox[CN - 1] - ox[0];
  for (std::size_t r = 0; r < static_cast<std::size_t>(plan.oc); ++r) {
    V acc[RN * CN] = {};
    for (std::size_t g = plan.row_groups[r]; g < plan.row_groups[r + 1]; ++g) {
      V sum[RN * CN] = {};
      for (std::uint32_t t = begin[g]; t < begin[g + 1]; ++t) {
        for (int ty = 0; ty < RN; ++ty) {
          for (int tx = 0; tx < CN; ++tx) {
            V m;
            load(m, at[ty] + idx[t] + tx * step);
            sum[ty * CN + tx] += m;
          }
        }
      }
      add_group(acc, sum, RN * CN, plan, g);
    }
    for (int ty = 0; ty < RN; ++ty) {
      std::int64_t* row = out + r * positions +
                          static_cast<std::size_t>(oy0 + ty) * plan.ow;
      for (int tx = 0; tx < CN; ++tx) {
        store_widened(row + ox[tx], acc[ty * CN + tx], plan.biases[r]);
      }
    }
  }
}

/// conv_tile for a runtime row count rn ≤ RN (fewer only in a plan's
/// last row tile).
template <typename V, int RN, int CN, typename Slot>
[[gnu::always_inline]] inline void conv_rows(const ConvLayerPlan& plan,
                                             const Slot* multiples,
                                             std::int64_t* out, int oy0,
                                             int rn, const int* ox) {
  if constexpr (RN > 1) {
    if (rn < RN) {
      conv_rows<V, RN - 1, CN>(plan, multiples, out, oy0, rn, ox);
      return;
    }
  }
  conv_tile<V, RN, CN>(plan, multiples, out, oy0, ox);
}

/// KernelBackend::accumulate_conv (int64 slots) and
/// accumulate_conv_int32 (int32 slots; the caller holds
/// int32_row_bound() ≤ INT32_MAX): tiles of RN rows × two column
/// groups of V, a row's odd last group alone. A row narrower than V
/// runs at V's half width, and one narrower than a 16-byte vector one
/// position per lane.
template <typename V, int RN, typename Slot>
[[gnu::always_inline]] inline void conv(const ConvLayerPlan& plan,
                                        const Slot* multiples,
                                        std::int64_t* out) {
  constexpr int kLanes = sizeof(V) / sizeof(Slot);
  if constexpr (kLanes > 1) {
    if (plan.ow < kLanes) {
      conv<typename Lanes<V>::Half, RN>(plan, multiples, out);
      return;
    }
  }
  const int groups = (plan.ow + kLanes - 1) / kLanes;
  const int last = plan.ow - kLanes;  // where the last group starts
  for (int oy0 = 0; oy0 < plan.oh; oy0 += RN) {
    const int rn = std::min(RN, plan.oh - oy0);
    for (int j = 0; j < groups; j += 2) {
      if (j + 1 < groups) {
        const int ox[2] = {j * kLanes, std::min((j + 1) * kLanes, last)};
        conv_rows<V, RN, 2>(plan, multiples, out, oy0, rn, ox);
      } else {
        conv_rows<V, RN, 1>(plan, multiples, out, oy0, rn, &last);
      }
    }
  }
}

}  // namespace
}  // namespace man::backend::detail

#endif  // MAN_BACKEND_VECTOR_KERNELS_H
