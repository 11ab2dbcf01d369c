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
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

#include "man/backend/kernel_backend.h"
#include "man/backend/layer_plan.h"

namespace man::backend::detail {
namespace {

// One explicit typedef per width: GCC 12 silently ignores
// vector_size(N) on an alias whose N depends on a template parameter.
using I16x4 = std::int16_t __attribute__((vector_size(8)));
using I16x8 = std::int16_t __attribute__((vector_size(16)));
using I16x16 = std::int16_t __attribute__((vector_size(32)));
using I16x32 = std::int16_t __attribute__((vector_size(64)));
using I32x2 = std::int32_t __attribute__((vector_size(8)));
using I32x4 = std::int32_t __attribute__((vector_size(16)));
using I32x8 = std::int32_t __attribute__((vector_size(32)));
using I32x16 = std::int32_t __attribute__((vector_size(64)));
using I64x2 = std::int64_t __attribute__((vector_size(16)));
using I64x4 = std::int64_t __attribute__((vector_size(32)));
using I64x8 = std::int64_t __attribute__((vector_size(64)));
using U16x4 = std::uint16_t __attribute__((vector_size(8)));
using U16x8 = std::uint16_t __attribute__((vector_size(16)));
using U16x16 = std::uint16_t __attribute__((vector_size(32)));
using U64x2 = std::uint64_t __attribute__((vector_size(16)));
using U64x4 = std::uint64_t __attribute__((vector_size(32)));
using U64x8 = std::uint64_t __attribute__((vector_size(64)));
using F32x4 = float __attribute__((vector_size(16)));
using F32x8 = float __attribute__((vector_size(32)));
using F32x16 = float __attribute__((vector_size(64)));

/// Per vector type V: Half, what a conv or pool row narrower than V
/// drops to (a 16-byte vector drops to its lane type, one position per
/// lane); for int32 lanes also Part, half of V's lanes, Wide, those
/// lanes widened to int64, Short, V's lane count of uint16, and Single,
/// V's lane count of float; for the int16 lanes of the dense tile also
/// Part and Wide, half of V's lanes and those widened to int32; for the
/// int64 lanes of the LUT and pool sweep also Narrow and Unsigned, V's
/// lane count of int32 and uint64.
template <typename V>
struct Lanes;
template <>
struct Lanes<I16x32> {
  using Part = I16x16;
  using Wide = I32x16;
};
template <>
struct Lanes<I16x16> {
  using Part = I16x8;
  using Wide = I32x8;
};
template <>
struct Lanes<I16x8> {
  using Part = I16x4;
  using Wide = I32x4;
};
template <>
struct Lanes<I32x16> {
  using Half = I32x8;
  using Part = I32x8;
  using Wide = I64x8;
  using Short = U16x16;
  using Single = F32x16;
};
template <>
struct Lanes<I32x8> {
  using Half = I32x4;
  using Part = I32x4;
  using Wide = I64x4;
  using Short = U16x8;
  using Single = F32x8;
};
template <>
struct Lanes<I32x4> {
  using Half = std::int32_t;
  using Part = I32x2;
  using Wide = I64x2;
  using Short = U16x4;
  using Single = F32x4;
};
template <>
struct Lanes<I64x8> {
  using Half = I64x4;
  using Narrow = I32x8;
  using Unsigned = U64x8;
};
template <>
struct Lanes<I64x4> {
  using Half = I64x2;
  using Narrow = I32x4;
  using Unsigned = U64x4;
};
template <>
struct Lanes<I64x2> {
  using Half = std::int64_t;
  using Narrow = I32x2;
  using Unsigned = U64x2;
};

/// The lane type of V (V itself for the scalar a row drops to).
template <typename V>
struct LaneOf {
  using type = std::remove_cvref_t<decltype(std::declval<V&>()[0])>;
};
template <>
struct LaneOf<std::int32_t> {
  using type = std::int32_t;
};
template <>
struct LaneOf<std::int64_t> {
  using type = std::int64_t;
};
template <typename V>
using Lane = typename LaneOf<V>::type;
template <typename V>
inline constexpr std::size_t kLaneCount = sizeof(V) / sizeof(Lane<V>);

/// The sizeof(V) bytes at `src`, any alignment.
template <typename V, typename T>
[[gnu::always_inline]] inline void load(V& v, const T* src) {
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

/// bias + acc's int32 lanes, each widened to int64, at dst.
template <typename V>
[[gnu::always_inline]] inline void store_widened(std::int64_t* dst,
                                                 const V& acc,
                                                 std::int64_t bias) {
  if constexpr (std::is_integral_v<V>) {
    *dst = bias + acc;
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

/// The lanes [kFirst, kFirst + P's lanes) of v, in registers.
template <std::size_t kFirst, typename P, typename V, std::size_t... I>
[[gnu::always_inline]] inline void slice(P& out, const V& v,
                                         std::index_sequence<I...>) {
  out = __builtin_shufflevector(v, v, (kFirst + I)...);
}

/// `chunk`'s int16 lanes widened to int32, scaled by `factor` and added
/// to acc[0] (its low half) and acc[1] (its high half).
template <typename V, typename W>
[[gnu::always_inline]] inline void widen_scale_add(W* acc, const V& chunk,
                                                   std::int32_t factor) {
  using Part = typename Lanes<V>::Part;
  constexpr std::size_t kHalf = kLaneCount<V> / 2;
  Part lo;
  Part hi;
  slice<0>(lo, chunk, std::make_index_sequence<kHalf>{});
  slice<kHalf>(hi, chunk, std::make_index_sequence<kHalf>{});
  acc[0] += __builtin_convertvector(lo, W) * factor;
  acc[1] += __builtin_convertvector(hi, W) * factor;
}

/// Group g's bank alphabet, shift and sign as one int32 factor,
/// ±alphabets[bank_lanes[g]] · 2^shifts[g]. It wraps only where
/// int32_row_bound() shows the group sums to 0 (an all-zero window),
/// so every product the tile forms with it is exact.
[[gnu::always_inline]] inline std::int32_t group_factor(
    const DenseLayerPlan& plan, std::span<const std::uint8_t> alphabets,
    std::size_t g) {
  const std::int64_t scaled = std::int64_t{alphabets[plan.bank_lanes[g]]}
                              << plan.shifts[g];
  const std::int64_t sign = plan.sign_masks[g];
  return static_cast<std::int32_t>((scaled ^ sign) - sign);
}

/// KernelBackend::accumulate_dense_tile: a row's kDenseTile int16
/// sample lanes are kDenseTile / lanes vectors of V. A term is one idx
/// driving plain loads and adds of its input's staged lanes (no
/// gather) into int16 chunk sums of x. After at most `chunk` terms
/// (int16_tile_chunk() proves they fit) each chunk sum is widened to
/// int32 and added to the row times the group's factor (group_factor:
/// the bank's alphabet, the shift and the sign in one multiply), exact
/// under int32_row_bound(), which bounds every partial sum of a row.
template <typename V>
[[gnu::always_inline]] inline void dense_tile(
    const DenseLayerPlan& plan, std::span<const std::uint8_t> alphabets,
    int chunk, const std::int16_t* tile, std::int64_t* out) {
  using W = typename Lanes<V>::Wide;
  constexpr int kLanes = kLaneCount<V>;
  constexpr int kVecs = kDenseTile / kLanes;
  constexpr int kWide = 2 * kVecs;  // int32 vectors per row
  const auto run = static_cast<std::uint32_t>(std::max(chunk, 1));
  const std::uint32_t* idx = plan.idx.data();
  const std::uint32_t* begin = plan.group_begin.data();
  // Slot c·k + l's input row starts at tile + c·kDenseTile, that is at
  // (slot − l) · stride bytes: each group folds its lane l into its base
  // address, so a term costs one multiply, as cheap as the shift of a
  // per-input index (two more instructions per term, a division by a
  // multiply and shift, cost batch_dense ~20 %). k divides kDenseTile
  // (int16_tile_chunk()).
  const std::uintptr_t stride =
      sizeof(std::int16_t) * kDenseTile / static_cast<std::size_t>(plan.k);
  for (std::size_t r = 0; r < static_cast<std::size_t>(plan.rows); ++r) {
    W acc[kWide] = {};
    for (std::size_t g = plan.row_groups[r]; g < plan.row_groups[r + 1]; ++g) {
      const std::int32_t factor = group_factor(plan, alphabets, g);
      const std::uintptr_t base =
          reinterpret_cast<std::uintptr_t>(tile) - plan.bank_lanes[g] * stride;
      const std::uint32_t end = begin[g + 1];
      for (std::uint32_t t = begin[g]; t < end;) {
        const std::uint32_t stop = end - t > run ? t + run : end;
        V part[kVecs] = {};
        for (; t < stop; ++t) {
          const auto* src = reinterpret_cast<const std::int16_t*>(
              base + std::uintptr_t{idx[t]} * stride);
          for (int v = 0; v < kVecs; ++v) {
            V lanes;
            load(lanes, src + v * kLanes);
            part[v] += lanes;
          }
        }
        for (int v = 0; v < kVecs; ++v) {
          widen_scale_add(acc + 2 * v, part[v], factor);
        }
      }
    }
    for (int v = 0; v < kWide; ++v) {
      store_widened(out + r * kDenseTile + v * (kLanes / 2), acc[v],
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
template <typename V, int RN, int CN>
[[gnu::always_inline]] inline void conv_tile(const ConvLayerPlan& plan,
                                             const std::int32_t* multiples,
                                             std::int64_t* out, int oy0,
                                             const int* ox) {
  const std::size_t positions = plan.positions();
  const std::uint32_t* idx = plan.idx.data();
  const std::uint32_t* begin = plan.group_begin.data();
  // Where each tile row's first column group reads position (0,0)'s
  // slots; a term adds its idx, and the second group adds step.
  const std::int32_t* at[RN];
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
template <typename V, int RN, int CN>
[[gnu::always_inline]] inline void conv_rows(const ConvLayerPlan& plan,
                                             const std::int32_t* multiples,
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

/// KernelBackend::accumulate_conv_int32 (the caller holds
/// int32_row_bound() ≤ INT32_MAX): tiles of RN rows × two column
/// groups of V's int32 lanes, a row's odd last group alone. A row
/// narrower than V runs at V's half width, and one narrower than a
/// 16-byte vector one position per lane.
template <typename V, int RN>
[[gnu::always_inline]] inline void conv(const ConvLayerPlan& plan,
                                        const std::int32_t* multiples,
                                        std::int64_t* out) {
  constexpr int kLanes = sizeof(V) / sizeof(std::int32_t);
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

// ------------------------------------------------------ epilogue sweeps
//
// KernelBackend's epilogue sweeps, each equal to its scalar loop in
// epilogue_sweep.h. The conv boundaries run a row of outputs in
// vectors of consecutive values (int32 lanes for pixels, int64 lanes
// for a LUT and pool over int64 accumulators); a row's last vector
// ends at the row's end, overlapping the one before it (every output
// depends only on its own inputs, so the overlap rewrites identical
// values), and a row narrower than V runs at half width, so no sweep
// reads or writes past a row. Conv staging computes a value's k bank
// outputs in-register as alphabets[l]·x in int32 lanes, exact over a
// window that passes StagingWindow::fits_int32(). The tile boundaries
// run over V's int32 lanes, one lane per sample: a tile's kDenseTile
// samples are kDenseTile / lanes vectors, so there is no tail, and each
// value is narrowed to its int16 tile slot (the tile kernel applies the
// bank to group sums). LUT reads go through a gather
// policy G: LaneGather reads lane by lane; the AVX2 and AVX-512 tiers
// override their vectors with hardware gathers (vector_kernels.cpp).

/// Reads int32 activation LUT entries at V's per-lane indices into
/// V's lanes, one lane at a time.
struct LaneGather {
  template <typename V>
  [[gnu::always_inline]] static void lut(V& out, const std::int32_t* table,
                                         const V& index) {
    if constexpr (std::is_arithmetic_v<V>) {
      out = table[index];
    } else {
      V entries = {};
      for (std::size_t i = 0; i < kLaneCount<V>; ++i) {
        entries[i] = table[index[i]];
      }
      out = entries;
    }
  }
};

/// Whether any lane of `mask` is nonzero.
template <typename V>
[[gnu::always_inline]] inline bool any_lane(const V& mask) {
  if constexpr (std::is_arithmetic_v<V>) {
    return mask != 0;
  } else {
    Lane<V> any = 0;
    for (std::size_t i = 0; i < kLaneCount<V>; ++i) any |= mask[i];
    return any != 0;
  }
}

/// QFormat::quantize in float lanes, exact for every format assign()
/// accepts.
struct FloatQuantize {
  float scale = 0.0f;
  float limit = 0.0f;

  /// False unless a float holds the scale (2^frac_bits) and the limit
  /// lies below 2^24, where the lanes below are exact.
  [[nodiscard]] bool assign(const man::fixed::QFormat& format) {
    scale = static_cast<float>(format.scale());
    limit = static_cast<float>(format.max_raw());
    return static_cast<double>(scale) == format.scale() &&
           format.max_raw() < (std::int32_t{1} << 24);
  }

  /// V's int32 lanes from the floats in `value`. The power-of-two scale
  /// makes the product exact, or ±∞ where the double reference's
  /// finite product clamps to the same limit; after the clamp the
  /// truncation and the fraction are exact, and rounding half away from
  /// zero steps the truncation once where the fraction reaches ±0.5.
  template <typename V, typename F>
  [[gnu::always_inline]] void operator()(V& out, const F& value) const {
    const F bound = F{} + limit;
    F scaled = value * scale;
    scaled = scaled < -bound ? -bound : scaled;
    scaled = bound < scaled ? bound : scaled;
    scaled = value == value ? scaled : F{};
    const V whole = __builtin_convertvector(scaled, V);
    const F fraction = scaled - __builtin_convertvector(whole, F);
    out = whole - (fraction >= 0.5f) + (fraction <= -0.5f);
  }
};

/// An activation LUT's integer address path as the sweeps run it: its
/// RawPath, whose index_scale N − 1 is 2^bits − 1 (a FixedActivationLut
/// holds 2^address_bits entries), so the address multiply is a shift
/// and a subtract.
struct LutPath {
  man::core::FixedActivationLut::RawPath raw;
  int bits = 0;

  /// False when raw's index_scale is not 2^bits − 1.
  [[nodiscard]] bool assign(
      const man::core::FixedActivationLut::RawPath& path) {
    raw = path;
    const auto entries = static_cast<std::uint64_t>(path.index_scale) + 1;
    bits = std::countr_zero(entries);
    return path.index_scale > 0 && std::has_single_bit(entries);
  }

  /// RawPath's table index of int64 lanes W: the clamp, then the exact
  /// integer address (every term non-negative, the LUT's construction
  /// proof keeps it below 2^53, so the shift is logical).
  template <typename W>
  [[gnu::always_inline]] void index(W& out, const W& in) const {
    const W clip = W{} + raw.clip_raw;
    W clamped = in < -clip ? -clip : in;
    clamped = clip < clamped ? clip : clamped;
    const W position = clamped + clip;
    const W address = (position << bits) - position + clip;
    if constexpr (std::is_integral_v<W>) {
      out = address >> raw.index_shift;
    } else {
      using U = typename Lanes<W>::Unsigned;
      out = __builtin_convertvector(
          __builtin_convertvector(address, U) >> raw.index_shift, W);
    }
  }
};

/// FixedActivationLut::RawPath on V's int64 lanes, read through G.
template <typename G, typename V>
[[gnu::always_inline]] inline void apply_lut(V& out, const V& in,
                                             const LutPath& lut) {
  V index;
  lut.index(index, in);
  G::lut(out, lut.raw.table, index);
}

/// Sums of consecutive pairs of the 2n lanes of lo then hi.
template <typename V, std::size_t... I>
[[gnu::always_inline]] inline void pair_sums(V& sum, const V& lo, const V& hi,
                                             std::index_sequence<I...>) {
  sum = __builtin_shufflevector(lo, hi, (2 * I)...) +
        __builtin_shufflevector(lo, hi, (2 * I + 1)...);
}

/// The lanes of lo then hi as one vector of twice the lanes.
template <typename V, typename P, std::size_t... I>
[[gnu::always_inline]] inline void concat(V& out, const P& lo, const P& hi,
                                          std::index_sequence<I...>) {
  out = __builtin_shufflevector(lo, hi, I...);
}

/// A 2×2 pool over V's lanes of consecutive outputs whose windows start
/// at row0 and row1 (the two input rows at the first output's column
/// 2x): each input through the LUT, the windows summed, and the
/// averages rounded to nearest, half away from zero.
template <typename G, typename V>
[[gnu::always_inline]] inline void lut_pool2_vector(V& pooled,
                                                    const std::int64_t* row0,
                                                    const std::int64_t* row1,
                                                    const LutPath& lut) {
  V sum;
  if constexpr (std::is_integral_v<V>) {
    V in[4] = {row0[0], row0[1], row1[0], row1[1]};
    for (V& v : in) apply_lut<G>(v, v, lut);
    sum = in[0] + in[1] + in[2] + in[3];
  } else {
    constexpr std::size_t n = kLaneCount<V>;
    V in[4];
    load(in[0], row0);
    load(in[1], row0 + n);
    load(in[2], row1);
    load(in[3], row1 + n);
    for (V& v : in) apply_lut<G>(v, v, lut);
    // Column sums of the 2n inputs, then each even column plus the
    // odd one after it.
    pair_sums(sum, in[0] + in[2], in[1] + in[3],
              std::make_index_sequence<n>{});
  }
  const V sign = sum >> 63;  // 0 or -1
  const V rounded = (((sum ^ sign) - sign) + 2) >> 2;  // the magnitude
  pooled = (rounded ^ sign) - sign;
}

/// Stages values inside a staging window: as their k bank outputs
/// alphabets[l]·x (conv slots), or as themselves (tile slots). Every
/// sweep runs only over a window that passes fits_int32().
struct Staging {
  StagingWindow window;

  /// V's lanes of values clamped into the window, to `inside`. A value
  /// outside it sets its lane of `miss` and comes back inside it; the
  /// caller then reruns the scalar reference, which throws.
  template <typename V>
  [[gnu::always_inline]] void clamp(V& inside, const V& values,
                                    V& miss) const {
    using L = Lane<V>;
    const V first = V{} + static_cast<L>(window.min_raw);
    const V last = V{} + static_cast<L>(window.max_raw);
    // A lane the clamp moved is a miss (as min/max and xor, so no
    // compare mask is materialized).
    inside = values < first ? first : values;
    inside = last < inside ? last : inside;
    miss |= inside ^ values;
  }

  /// Stages V's lanes of values (int64 or int32), bank output l of lane
  /// j to dst[l·lane_stride + j], as int32 slots, with clamp()'s miss
  /// rule. Inside the window every value and every multiple fits int32
  /// (fits_int32()), so the multiplies run in int32 lanes.
  template <typename V>
  [[gnu::always_inline]] void put(const V& values, std::int32_t* dst,
                                  std::size_t lane_stride, V& miss) const {
    V inside;
    clamp(inside, values, miss);
    if constexpr (std::is_same_v<V, std::int64_t>) {
      multiples(static_cast<std::int32_t>(inside), dst, lane_stride);
    } else if constexpr (sizeof(Lane<V>) == sizeof(std::int64_t)) {
      multiples(__builtin_convertvector(inside, typename Lanes<V>::Narrow),
                dst, lane_stride);
    } else {
      multiples(inside, dst, lane_stride);
    }
  }

  /// alphabets[l]·x of W's int32 lanes to dst[l·lane_stride, …).
  template <typename W>
  [[gnu::always_inline]] void multiples(const W& x, std::int32_t* dst,
                                        std::size_t lane_stride) const {
    for (std::size_t l = 0; l < window.alphabets.size(); ++l) {
      const W multiple = x * std::int32_t{window.alphabets[l]};
      std::memcpy(dst + l * lane_stride, &multiple, sizeof multiple);
    }
  }

  /// V's int32 lanes of values, with clamp()'s miss rule, narrowed to
  /// int16 tile slots at dst: x mod 2^16, which int16_tile_chunk() ≥ 1
  /// proves is x itself inside the window.
  template <typename V>
  [[gnu::always_inline]] void put_inputs(const V& values, std::int16_t* dst,
                                         V& miss) const {
    V inside;
    clamp(inside, values, miss);
    const auto narrow =
        __builtin_convertvector(inside, typename Lanes<V>::Short);
    std::memcpy(dst, &narrow, sizeof narrow);
  }
};

/// KernelBackend::stage_pixels as one row of pixels over V's int32
/// lanes, like a conv row: the last vector overlaps the one before it,
/// and a row narrower than V runs at half width. False when a value
/// missed the window, or when the row is narrower than the narrowest
/// vector (the reference stages it).
template <typename V>
[[gnu::always_inline]] inline bool stage_pixels(
    std::span<const float> pixels, const FloatQuantize& quantizer,
    const Staging& staging, std::int32_t* slots, std::size_t stride) {
  constexpr std::size_t kLanes = kLaneCount<V>;
  const std::size_t n = pixels.size();
  if (n < kLanes) {
    using Half = typename Lanes<V>::Half;
    if constexpr (std::is_arithmetic_v<Half>) {
      return false;
    } else {
      return stage_pixels<Half>(pixels, quantizer, staging, slots, stride);
    }
  }
  V miss = {};
  for (std::size_t i = 0; i < n; i += kLanes) {
    const std::size_t at = std::min(i, n - kLanes);
    typename Lanes<V>::Single floats;
    load(floats, pixels.data() + at);
    V values;
    quantizer(values, floats);
    staging.put(values, slots + at, stride, miss);
  }
  return !any_lane(miss);
}

/// KernelBackend::lut_pool2_stage, row by row. False when a staged
/// value missed the window.
template <typename G, typename V>
[[gnu::always_inline]] inline bool lut_pool2_stage(
    const std::int64_t* in, const Pool2Shape& shape, const LutPath& path,
    const Staging& staging, std::int32_t* slots, std::size_t stride) {
  constexpr std::size_t kLanes = kLaneCount<V>;
  const auto ow = static_cast<std::size_t>(shape.ow);
  if constexpr (kLanes > 1) {
    if (ow < kLanes) {
      return lut_pool2_stage<G, typename Lanes<V>::Half>(in, shape, path,
                                                         staging, slots,
                                                         stride);
    }
  }
  const std::size_t iw = 2 * ow;
  const std::size_t rows = static_cast<std::size_t>(shape.c) * shape.oh;
  const LutPath lut = path;  // by value: no store of the sweep aliases it
  V miss = {};
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int64_t* row0 = in + 2 * r * iw;
    for (std::size_t x = 0; x < ow; x += kLanes) {
      const std::size_t at = std::min(x, ow - kLanes);
      V pooled;
      lut_pool2_vector<G>(pooled, row0 + 2 * at, row0 + iw + 2 * at, lut);
      staging.put(pooled, slots + r * ow + at, stride, miss);
    }
  }
  return !any_lane(miss);
}

/// One round of an in-register transpose: rows a and b, whose indices
/// differ in bit H, swap bit H of the row index with bit H of the lane
/// index — a's lanes with bit H set trade places with b's lanes with it
/// clear.
template <std::size_t H, typename F, std::size_t... J>
[[gnu::always_inline]] inline void swap_lanes(F& a, F& b,
                                              std::index_sequence<J...>) {
  constexpr std::size_t kN = sizeof...(J);
  const F lo =
      __builtin_shufflevector(a, b, (J % (2 * H) < H ? J : kN + J - H)...);
  const F hi =
      __builtin_shufflevector(a, b, (J % (2 * H) < H ? J + H : kN + J)...);
  a = lo;
  b = hi;
}

/// Every row pair (p's row with bit H clear, and that row + H) through
/// one round.
template <std::size_t H, typename F, std::size_t... P>
[[gnu::always_inline]] inline void transpose_round(F* m,
                                                   std::index_sequence<P...>) {
  constexpr std::size_t kN = 2 * sizeof...(P);
  (swap_lanes<H>(m[P / H * 2 * H + P % H], m[P / H * 2 * H + P % H + H],
                 std::make_index_sequence<kN>{}),
   ...);
}

/// The kN × kN matrix of rows m[0, kN) (kN = F's lanes) transposed in
/// registers: log2 kN rounds of kN two-input shuffles.
template <std::size_t H, typename F>
[[gnu::always_inline]] inline void transpose(F* m) {
  transpose_round<H>(m, std::make_index_sequence<kLaneCount<F> / 2>{});
  if constexpr (H > 1) transpose<H / 2>(m);
}

/// KernelBackend::stage_pixels_tile over V's int32 lanes, one sample
/// per lane: the tile's images are read in blocks of V's lane count of
/// elements, each sample's block one contiguous load, and each block of
/// V's lanes of samples is transposed in registers, so row e holds
/// element e of those samples; each row is quantized in float lanes and
/// staged as the element's sample-minor int16 slot row (gathers across
/// the images, n floats apart, cost more than the staging). False when
/// a value missed the window.
template <typename V>
[[gnu::always_inline]] inline bool stage_pixels_tile(
    std::span<const float> pixels, const FloatQuantize& quantizer,
    const Staging& staging, std::int16_t* tile) {
  using F = typename Lanes<V>::Single;
  constexpr std::size_t kLanes = kLaneCount<V>;
  constexpr std::size_t kVecs = kDenseTile / kLanes;
  const std::size_t n = pixels.size() / kDenseTile;
  V miss = {};
  for (std::size_t first = 0; first < n; first += kLanes) {
    const std::size_t width = std::min(kLanes, n - first);
    for (std::size_t v = 0; v < kVecs; ++v) {
      // m[j]: sample v·kLanes + j's elements [first, first + width),
      // zero past the image's end; transposed, m[e]: element first + e.
      F m[kLanes];
      for (std::size_t j = 0; j < kLanes; ++j) {
        const float* src = pixels.data() + (v * kLanes + j) * n + first;
        if (width == kLanes) {
          load(m[j], src);
        } else {
          m[j] = F{};
          std::memcpy(&m[j], src, sizeof(float) * width);
        }
      }
      transpose<kLanes / 2>(m);
      for (std::size_t e = 0; e < width; ++e) {
        V values;
        quantizer(values, m[e]);
        staging.put_inputs(values, tile + (first + e) * kDenseTile + v * kLanes,
                           miss);
      }
    }
  }
  return !any_lane(miss);
}

/// KernelBackend::lut_stage_tile over V's int32 lanes, one sample per
/// lane: each LUT index computed in int64 lanes and narrowed, the
/// entries read in one int32 gather per vector, then staged as the
/// element's sample-minor int16 slot row. False when a value missed the
/// window.
template <typename G, typename V>
[[gnu::always_inline]] inline bool lut_stage_tile(const std::int64_t* acc,
                                                  std::size_t elements,
                                                  const LutPath& path,
                                                  const Staging& staging,
                                                  std::int16_t* tile) {
  constexpr std::size_t kLanes = kLaneCount<V>;
  constexpr std::size_t kVecs = kDenseTile / kLanes;
  using Part = typename Lanes<V>::Part;
  using Wide = typename Lanes<V>::Wide;
  const LutPath lut = path;  // by value: no store of the sweep aliases it
  V miss = {};
  for (std::size_t i = 0; i < elements; ++i) {
    for (std::size_t v = 0; v < kVecs; ++v) {
      const std::int64_t* src = acc + i * kDenseTile + v * kLanes;
      Part half[2];
      for (std::size_t h = 0; h < 2; ++h) {
        Wide wide;
        load(wide, src + h * (kLanes / 2));
        lut.index(wide, wide);
        half[h] = __builtin_convertvector(wide, Part);
      }
      V index;
      concat(index, half[0], half[1], std::make_index_sequence<kLanes>{});
      V entries;
      G::lut(entries, lut.raw.table, index);
      staging.put_inputs(entries, tile + i * kDenseTile + v * kLanes, miss);
    }
  }
  return !any_lane(miss);
}

}  // namespace
}  // namespace man::backend::detail

#endif  // MAN_BACKEND_VECTOR_KERNELS_H
