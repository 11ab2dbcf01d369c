// Explicit SIMD kernel: AVX2, over the (shift, sign) groups of both
// plan kinds. One dense sample walks each group 4-wide in int64 —
// gather the group's pre-computer multiples, sum, shift once, apply
// the sign with xor/sub. A dense batch tile loads each term's
// contiguous int32 sample lanes, 8 per ymm, and a conv plan that fits
// int32 lanes loads 8 consecutive output positions' int32 multiples
// per ymm. Conv plans that do not fit run the portable int64 group
// loop. Bit-identical to the scalar
// reference because every operation (logical left shift,
// two's-complement negation, wrapping add) matches the scalar op
// exactly — on int32 lanes because int32_row_bound() proves no value
// leaves int32 — and only the (commutative) summation order differs.
//
// ISA: this file is built at the default ISA like every other. Only
// the intrinsic kernels carry MAN_TARGET_AVX2 (a per-function
// target("avx2") attribute), and they exist only under the platform
// gate MAN_X86_KERNELS (x86-64, GCC or Clang). The backend methods stay
// untagged, because they also run on CPUs without AVX2, and each makes
// one call into tagged code after the CPUID check. Without
// the gate, or on a CPU that lacks AVX2, the backend stays registered
// and runs the portable loops (shared with the blocked backend),
// so MAN_BACKEND=simd is always safe and always bit-identical.
#include <algorithm>

#include "man/backend/backend_impls.h"
#include "man/backend/planes_kernel.h"

#if MAN_X86_KERNELS
#include <immintrin.h>
#endif

namespace man::backend::detail {

namespace {

#if MAN_X86_KERNELS

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }

MAN_TARGET_AVX2 std::int64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return _mm_extract_epi64(sum, 0) + _mm_extract_epi64(sum, 1);
}

// Per-sample dense kernel: each group's terms gathered 4 int64
// multiples at a time (the last, partial gather lane-masked), shifted
// once, and added with the sign applied as (sum ^ s) − s.
MAN_TARGET_AVX2 void dense_groups_avx2(const DenseLayerPlan& plan,
                                       const std::int64_t* multiples,
                                       std::int64_t* out) {
  const std::uint32_t* idx = plan.idx.data();
  const std::uint32_t* begin = plan.group_begin.data();
  const auto* base = reinterpret_cast<const long long*>(multiples);
  const __m128i lanes = _mm_setr_epi32(0, 1, 2, 3);
  for (std::size_t r = 0; r < static_cast<std::size_t>(plan.rows); ++r) {
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t g = plan.row_groups[r]; g < plan.row_groups[r + 1]; ++g) {
      __m256i sum = _mm256_setzero_si256();
      std::uint32_t t = begin[g];
      for (; t + 4 <= begin[g + 1]; t += 4) {
        const __m128i vidx =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + t));
        sum = _mm256_add_epi64(sum, _mm256_i32gather_epi64(base, vidx, 8));
      }
      if (t < begin[g + 1]) {
        const __m128i mask = _mm_cmpgt_epi32(
            _mm_set1_epi32(static_cast<int>(begin[g + 1] - t)), lanes);
        const __m128i vidx =
            _mm_maskload_epi32(reinterpret_cast<const int*>(idx + t), mask);
        sum = _mm256_add_epi64(
            sum, _mm256_mask_i32gather_epi64(_mm256_setzero_si256(), base,
                                             vidx, _mm256_cvtepi32_epi64(mask),
                                             8));
      }
      sum = _mm256_sll_epi64(sum, _mm_cvtsi64_si128(plan.shifts[g]));
      const __m256i sign = _mm256_set1_epi64x(plan.sign_masks[g]);
      acc = _mm256_add_epi64(
          acc, _mm256_sub_epi64(_mm256_xor_si256(sum, sign), sign));
    }
    out[r] = plan.biases[r] + hsum_epi64(acc);
  }
}

/// int32 lanes of one ymm vector, and ymm vectors per
/// kDenseTile-sample tile.
inline constexpr int kYmmInt32Lanes = 8;
inline constexpr int kTileVecs = kDenseTile / kYmmInt32Lanes;

// Batch-tiled dense kernel: one row at a time, its kDenseTile int32
// sample lanes in kTileVecs ymm accumulators. A term is one scalar idx
// driving kTileVecs plain loads from the sample-minor tile and adds —
// no gather, no shift; a group is one uniform shift and one add or
// subtract per vector. int32_row_bound() proves no lane sum leaves
// int32; the row is widened to int64 before the bias is added.
MAN_TARGET_AVX2 void dense_groups_tile_avx2(const DenseLayerPlan& plan,
                                            const std::int32_t* tile,
                                            std::int64_t* out) {
  const std::uint32_t* idx = plan.idx.data();
  const std::uint32_t* begin = plan.group_begin.data();
  for (std::size_t r = 0; r < static_cast<std::size_t>(plan.rows); ++r) {
    __m256i acc[kTileVecs];
    for (int v = 0; v < kTileVecs; ++v) acc[v] = _mm256_setzero_si256();
    for (std::size_t g = plan.row_groups[r]; g < plan.row_groups[r + 1]; ++g) {
      __m256i sum[kTileVecs];
      for (int v = 0; v < kTileVecs; ++v) sum[v] = _mm256_setzero_si256();
      for (std::uint32_t t = begin[g]; t < begin[g + 1]; ++t) {
        const auto* src = reinterpret_cast<const __m256i*>(
            tile + std::size_t{idx[t]} * kDenseTile);
        for (int v = 0; v < kTileVecs; ++v) {
          sum[v] = _mm256_add_epi32(sum[v], _mm256_loadu_si256(src + v));
        }
      }
      const __m128i sh = _mm_cvtsi64_si128(plan.shifts[g]);
      for (int v = 0; v < kTileVecs; ++v) {
        const __m256i shifted = _mm256_sll_epi32(sum[v], sh);
        acc[v] = plan.sign_masks[g] != 0 ? _mm256_sub_epi32(acc[v], shifted)
                                         : _mm256_add_epi32(acc[v], shifted);
      }
    }
    const __m256i bias = _mm256_set1_epi64x(plan.biases[r]);
    auto* dst = reinterpret_cast<__m256i*>(out + r * kDenseTile);
    for (int v = 0; v < kTileVecs; ++v) {
      const __m256i lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc[v]));
      const __m128i upper = _mm256_extracti128_si256(acc[v], 1);
      const __m256i hi = _mm256_cvtepi32_epi64(upper);
      _mm256_storeu_si256(dst + 2 * v, _mm256_add_epi64(lo, bias));
      _mm256_storeu_si256(dst + 2 * v + 1, _mm256_add_epi64(hi, bias));
    }
  }
}

/// The conv register tile: 3 output rows × 2 column groups, the
/// fastest fixed shape on both LeNet conv plans (two groups at 2–7
/// rows were within ≈ 10 % of it; one group was up to 1.4× slower).
/// Fixed at compile time (docs/backends.md, "Conv register tiles").
inline constexpr int kConvRowTile = 3;
static_assert(ConvLayerPlan::tile_avx2.row_tile == kConvRowTile &&
              ConvLayerPlan::tile_avx2.col_vecs == 2);

// Conv kernel vectorized over output *positions*, not patch columns:
// a conv term fires at every position with the same slot, so
// consecutive positions of one output row share one scalar idx — and
// in the lane-major multiples layout their reads are *contiguous*, so
// a term is a plain load of 8 int32 lanes and an add; no gather, no
// shift. Each term feeds a register-blocked grid of RN output rows ×
// CN column groups before the walk moves on, so the plan streams
// through RN·CN·8 times less often. A group's sums are shifted once
// (_mm256_sll_epi32) and added to or subtracted from the row's
// accumulators. int32_row_bound() proves no lane sum leaves int32, and
// each output is widened to int64 where the bias is added. The last
// column group is lane-masked to `last` positions (1..8), so a row of
// any width needs no scalar tail: masked-out lanes are neither read
// nor written. RN/CN are compile-time constants so the accumulator and
// group-sum arrays live in ymm registers (a full 3 × 2 tile holds 12
// of the 16).
template <int RN, int CN>
MAN_TARGET_AVX2 void conv_tile_avx2(const ConvLayerPlan& plan,
                                    const std::int32_t* multiples,
                                    std::int64_t* out, int oy0, int ox,
                                    int last) {
  const std::size_t positions = plan.positions();
  const std::uint32_t* idx = plan.idx.data();
  const std::uint32_t* begin = plan.group_begin.data();
  const std::int32_t* base =
      multiples + static_cast<std::size_t>(oy0) * plan.iw + ox;
  const __m256i load_mask = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(last), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256i quad = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i store_lo = _mm256_cmpgt_epi64(_mm256_set1_epi64x(last), quad);
  const __m256i store_hi =
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(last - 4), quad);
  for (std::size_t r = 0; r < static_cast<std::size_t>(plan.oc); ++r) {
    __m256i acc[RN * CN];
    for (int i = 0; i < RN * CN; ++i) acc[i] = _mm256_setzero_si256();
    for (std::size_t g = plan.row_groups[r]; g < plan.row_groups[r + 1]; ++g) {
      __m256i sum[RN * CN];
      for (int i = 0; i < RN * CN; ++i) sum[i] = _mm256_setzero_si256();
      for (std::uint32_t t = begin[g]; t < begin[g + 1]; ++t) {
        const std::int32_t* src = base + idx[t];
        for (int ty = 0; ty < RN; ++ty) {
          for (int tx = 0; tx < CN; ++tx) {
            const std::int32_t* p =
                src + static_cast<std::size_t>(ty) * plan.iw +
                static_cast<std::size_t>(tx) * kYmmInt32Lanes;
            const __m256i m =
                tx == CN - 1
                    ? _mm256_maskload_epi32(p, load_mask)
                    : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
            sum[ty * CN + tx] = _mm256_add_epi32(sum[ty * CN + tx], m);
          }
        }
      }
      const __m128i sh = _mm_cvtsi64_si128(plan.shifts[g]);
      for (int i = 0; i < RN * CN; ++i) {
        const __m256i shifted = _mm256_sll_epi32(sum[i], sh);
        acc[i] = plan.sign_masks[g] != 0 ? _mm256_sub_epi32(acc[i], shifted)
                                         : _mm256_add_epi32(acc[i], shifted);
      }
    }
    const __m256i bias = _mm256_set1_epi64x(plan.biases[r]);
    for (int ty = 0; ty < RN; ++ty) {
      for (int tx = 0; tx < CN; ++tx) {
        auto* dst = reinterpret_cast<long long*>(
            out + r * positions +
            static_cast<std::size_t>(oy0 + ty) * plan.ow + ox +
            static_cast<std::size_t>(tx) * kYmmInt32Lanes);
        const __m256i a = acc[ty * CN + tx];
        const __m256i lo = _mm256_add_epi64(
            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(a)), bias);
        const __m256i hi = _mm256_add_epi64(
            _mm256_cvtepi32_epi64(_mm256_extracti128_si256(a, 1)), bias);
        if (tx == CN - 1) {
          _mm256_maskstore_epi64(dst, store_lo, lo);
          _mm256_maskstore_epi64(dst + 4, store_hi, hi);
        } else {
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), lo);
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 4), hi);
        }
      }
    }
  }
}

/// Runtime row count (1..kConvRowTile, fewer only in the last row
/// tile) → compile-time RN for one column width.
template <int CN, int RN = kConvRowTile>
MAN_TARGET_AVX2 void conv_tile_rows_avx2(const ConvLayerPlan& plan,
                                         const std::int32_t* multiples,
                                         std::int64_t* out, int oy0, int ox,
                                         int rn, int last) {
  if constexpr (RN > 1) {
    if (rn < RN) {
      conv_tile_rows_avx2<CN, RN - 1>(plan, multiples, out, oy0, ox, rn,
                                      last);
      return;
    }
  }
  conv_tile_avx2<RN, CN>(plan, multiples, out, oy0, ox, last);
}

/// Every row tile and column group of one plan.
MAN_TARGET_AVX2 void accumulate_conv_avx2(const ConvLayerPlan& plan,
                                          const std::int32_t* multiples,
                                          std::int64_t* out) {
  for (int oy0 = 0; oy0 < plan.oh; oy0 += kConvRowTile) {
    const int rn = std::min(kConvRowTile, plan.oh - oy0);
    int ox = 0;
    // Two groups while more than one group's positions remain; the
    // second (or the lone last) group is masked to what is left.
    for (; plan.ow - ox > kYmmInt32Lanes; ox += 2 * kYmmInt32Lanes) {
      const int last = std::min(plan.ow - ox - kYmmInt32Lanes, kYmmInt32Lanes);
      conv_tile_rows_avx2<2>(plan, multiples, out, oy0, ox, rn, last);
    }
    if (ox < plan.ow) {
      conv_tile_rows_avx2<1>(plan, multiples, out, oy0, ox, rn,
                             plan.ow - ox);
    }
  }
}

#else

bool cpu_has_avx2() { return false; }

#endif  // MAN_X86_KERNELS

class SimdBackend final : public KernelBackend {
 public:

  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kSimd;
  }
  [[nodiscard]] const char* name() const noexcept override { return "simd"; }
  [[nodiscard]] const char* description() const noexcept override {
    return avx2_ ? "AVX2 group gathers and int32 tiles"
                 : "portable fallback (CPU lacks AVX2)";
  }
  [[nodiscard]] bool accelerated() const noexcept override { return avx2_; }

  void accumulate_dense(const DenseLayerPlan& plan,
                        const std::int64_t* multiples,
                        std::int64_t* out) const override {
#if MAN_X86_KERNELS
    if (avx2_) {
      dense_groups_avx2(plan, multiples, out);
      return;
    }
#endif
    accumulate_groups(plan, multiples, out);
  }

  void accumulate_dense_tile(const DenseLayerPlan& plan,
                             const std::int32_t* tile,
                             std::int64_t* out) const override {
#if MAN_X86_KERNELS
    if (avx2_) {
      dense_groups_tile_avx2(plan, tile, out);
      return;
    }
#endif
    accumulate_groups_tile(plan, tile, out);
  }

  void exact_dense(const DenseLayerPlan& plan,
                   const std::int64_t* activations,
                   std::int64_t* out) const override {
    // 64-bit products have no AVX2 multiplier; the blocked loop is
    // already the right shape for the compiler here.
    exact_dense_blocked(plan, activations, out);
  }

  void accumulate_conv(const ConvLayerPlan& plan,
                       const std::int64_t* multiples,
                       std::int64_t* out) const override {
    // Plans that do not fit int32 lanes: the portable int64 loop.
    accumulate_conv_groups(plan, multiples, out);
  }

  void accumulate_conv_int32(const ConvLayerPlan& plan,
                             const std::int32_t* multiples,
                             std::int64_t* out) const override {
#if MAN_X86_KERNELS
    if (avx2_) {
      accumulate_conv_avx2(plan, multiples, out);
      return;
    }
#endif
    accumulate_conv_groups(plan, multiples, out);
  }

  void exact_conv(const ConvLayerPlan& plan,
                  const std::int64_t* activations,
                  std::int64_t* out) const override {
    // Same reasoning as exact_dense: no 64-bit AVX2 multiplier.
    exact_conv_blocked(plan, activations, out);
  }

 private:
  const bool avx2_ = cpu_has_avx2();
};

}  // namespace

const KernelBackend& simd_backend() {
  static const SimdBackend backend;
  return backend;
}

}  // namespace man::backend::detail
