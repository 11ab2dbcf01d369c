// AVX-512 kernel: the AVX2 backend's structure at twice the vector
// width, over the (shift, sign) groups of both plan kinds — 8-lane
// int64 group gathers for one dense sample, one zmm of 16 int32 lanes
// per term for a dense batch tile, and 16 int32 output positions per
// zmm for a conv plan that fits int32 lanes — plus the deeper register
// file (32 zmm) that makes taller row tiles profitable, plus lane
// masking for ragged column groups and row tails (no scalar
// remainder). Conv plans that do not fit run the portable int64 group
// loop. Bit-identical to the scalar reference for the same
// reason the AVX2 kernel is: every operation (logical left shift,
// two's-complement negation, wrapping add) matches the scalar op
// exactly, the int32 lanes never leave int32 (int32_row_bound()), and
// only the commutative summation order differs. AVX-512VNNI is
// deliberately not used: it accelerates int8/int16 dot products, and
// the CSHM datapath is shift-add — there is no multiply to fuse.
//
// ISA: this file is built at the default ISA like every other. Only
// the intrinsic kernels carry MAN_TARGET_AVX512 (a per-function
// target("avx512f,avx512vl") attribute), and they exist only under the
// platform gate MAN_X86_KERNELS (x86-64, GCC or Clang). The backend
// methods stay untagged, because they also run on CPUs without
// AVX-512, and each makes one call into tagged code after the CPUID
// check. Without the gate, or on a CPU that lacks AVX-512F/VL,
// the backend stays registered and runs the portable loops (shared
// with the blocked backend), so MAN_BACKEND=avx512 is always
// safe and always bit-identical.
#include <algorithm>

#include "man/backend/backend_impls.h"
#include "man/backend/planes_kernel.h"

#if MAN_X86_KERNELS
// GCC's own avx512fintrin.h trips -Wmaybe-uninitialized through
// _mm512_undefined_epi32 (GCC PR105593); silence it for the header.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace man::backend::detail {

namespace {

#if MAN_X86_KERNELS

/// int64 lanes of one 512-bit vector.
inline constexpr int kZmmLanes = 8;

bool cpu_has_avx512() {
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
}

// Per-sample dense kernel — dense_groups_avx2 at zmm width: each
// group's terms gathered 8 int64 multiples at a time (the last,
// partial gather lane-masked), shifted once, then added or subtracted.
MAN_TARGET_AVX512 void dense_groups_avx512(const DenseLayerPlan& plan,
                                           const std::int64_t* multiples,
                                           std::int64_t* out) {
  const std::uint32_t* idx = plan.idx.data();
  const std::uint32_t* begin = plan.group_begin.data();
  for (std::size_t r = 0; r < static_cast<std::size_t>(plan.rows); ++r) {
    __m512i acc = _mm512_setzero_si512();
    for (std::size_t g = plan.row_groups[r]; g < plan.row_groups[r + 1]; ++g) {
      __m512i sum = _mm512_setzero_si512();
      std::uint32_t t = begin[g];
      for (; t + kZmmLanes <= begin[g + 1]; t += kZmmLanes) {
        const __m256i vidx =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + t));
        sum = _mm512_add_epi64(sum,
                               _mm512_i32gather_epi64(vidx, multiples, 8));
      }
      if (t < begin[g + 1]) {
        const auto mask = static_cast<__mmask8>((1u << (begin[g + 1] - t)) - 1);
        const __m256i vidx = _mm256_maskz_loadu_epi32(mask, idx + t);
        sum = _mm512_add_epi64(
            sum, _mm512_mask_i32gather_epi64(_mm512_setzero_si512(), mask,
                                             vidx, multiples, 8));
      }
      sum = _mm512_sll_epi64(sum, _mm_cvtsi64_si128(plan.shifts[g]));
      acc = plan.sign_masks[g] != 0 ? _mm512_sub_epi64(acc, sum)
                                    : _mm512_add_epi64(acc, sum);
    }
    out[r] = plan.biases[r] + _mm512_reduce_add_epi64(acc);
  }
}

// Batch-tiled dense kernel — dense_groups_tile_avx2 at zmm width (see
// there for the layout and the int32 proof): kDenseTile int32 sample
// lanes are exactly one zmm, so a term is one scalar idx driving one
// plain load and add, and each row is one accumulator widened to two
// int64 zmm at the end.
MAN_TARGET_AVX512 void dense_groups_tile_avx512(const DenseLayerPlan& plan,
                                                const std::int32_t* tile,
                                                std::int64_t* out) {
  static_assert(kDenseTile == 16, "one zmm of int32 lanes per tile");
  const std::uint32_t* idx = plan.idx.data();
  const std::uint32_t* begin = plan.group_begin.data();
  for (std::size_t r = 0; r < static_cast<std::size_t>(plan.rows); ++r) {
    __m512i acc = _mm512_setzero_si512();
    for (std::size_t g = plan.row_groups[r]; g < plan.row_groups[r + 1]; ++g) {
      __m512i sum = _mm512_setzero_si512();
      for (std::uint32_t t = begin[g]; t < begin[g + 1]; ++t) {
        sum = _mm512_add_epi32(
            sum, _mm512_loadu_si512(tile + std::size_t{idx[t]} * kDenseTile));
      }
      sum = _mm512_sll_epi32(sum, _mm_cvtsi64_si128(plan.shifts[g]));
      acc = plan.sign_masks[g] != 0 ? _mm512_sub_epi32(acc, sum)
                                    : _mm512_add_epi32(acc, sum);
    }
    const __m512i bias = _mm512_set1_epi64(plan.biases[r]);
    std::int64_t* dst = out + r * kDenseTile;
    const __m512i lo = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc));
    const __m512i hi = _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(acc, 1));
    _mm512_storeu_si512(dst, _mm512_add_epi64(lo, bias));
    _mm512_storeu_si512(dst + kZmmLanes, _mm512_add_epi64(hi, bias));
  }
}

/// int32 lanes of one 512-bit vector: output positions per conv
/// column group.
inline constexpr int kZmmInt32Lanes = 16;

/// The conv register tile: 5 output rows × 2 column groups (32 zmm
/// registers carry a deeper row tile than the AVX2 one). On both LeNet
/// conv plans it was among the fastest fixed shapes (3–7 rows within
/// ≈ 10 % of each other); one group was up to 1.3× slower on the
/// 28-column layer. Fixed at compile time (docs/backends.md, "Conv
/// register tiles").
inline constexpr int kConvRowTile512 = 5;
static_assert(ConvLayerPlan::tile_avx512.row_tile == kConvRowTile512 &&
              ConvLayerPlan::tile_avx512.col_vecs == 2);

/// One vectorized tile: RN output rows × CN 16-lane int32 column
/// groups starting at (oy0, ox), every filter — conv_tile_avx2 at zmm
/// width (see there for the layout, the group walk and the int32
/// proof). The last column group is lane-masked to the positions set
/// in `last`, so a row of any width needs no tail kernel: masked-out
/// lanes are neither read nor written, and active lanes run the exact
/// same ops.
template <int RN, int CN>
MAN_TARGET_AVX512 void conv_tile_avx512(const ConvLayerPlan& plan,
                                        const std::int32_t* multiples,
                                        std::int64_t* out, int oy0, int ox,
                                        __mmask16 last) {
  const std::size_t positions = plan.positions();
  const std::uint32_t* idx = plan.idx.data();
  const std::uint32_t* begin = plan.group_begin.data();
  const std::int32_t* base =
      multiples + static_cast<std::size_t>(oy0) * plan.iw + ox;
  const auto store_lo = static_cast<__mmask8>(last & 0xFFu);
  const auto store_hi = static_cast<__mmask8>(last >> 8);
  for (std::size_t r = 0; r < static_cast<std::size_t>(plan.oc); ++r) {
    __m512i acc[RN * CN];
    for (int i = 0; i < RN * CN; ++i) acc[i] = _mm512_setzero_si512();
    for (std::size_t g = plan.row_groups[r]; g < plan.row_groups[r + 1]; ++g) {
      __m512i sum[RN * CN];
      for (int i = 0; i < RN * CN; ++i) sum[i] = _mm512_setzero_si512();
      for (std::uint32_t t = begin[g]; t < begin[g + 1]; ++t) {
        const std::int32_t* src = base + idx[t];
        for (int ty = 0; ty < RN; ++ty) {
          for (int tx = 0; tx < CN; ++tx) {
            const std::int32_t* p =
                src + static_cast<std::size_t>(ty) * plan.iw +
                static_cast<std::size_t>(tx) * kZmmInt32Lanes;
            const __m512i m = tx == CN - 1 ? _mm512_maskz_loadu_epi32(last, p)
                                           : _mm512_loadu_si512(p);
            sum[ty * CN + tx] = _mm512_add_epi32(sum[ty * CN + tx], m);
          }
        }
      }
      const __m128i sh = _mm_cvtsi64_si128(plan.shifts[g]);
      for (int i = 0; i < RN * CN; ++i) {
        const __m512i shifted = _mm512_sll_epi32(sum[i], sh);
        acc[i] = plan.sign_masks[g] != 0 ? _mm512_sub_epi32(acc[i], shifted)
                                         : _mm512_add_epi32(acc[i], shifted);
      }
    }
    const __m512i bias = _mm512_set1_epi64(plan.biases[r]);
    for (int ty = 0; ty < RN; ++ty) {
      for (int tx = 0; tx < CN; ++tx) {
        std::int64_t* dst = out + r * positions +
                            static_cast<std::size_t>(oy0 + ty) * plan.ow + ox +
                            static_cast<std::size_t>(tx) * kZmmInt32Lanes;
        const __m512i a = acc[ty * CN + tx];
        const __m512i lo = _mm512_add_epi64(
            _mm512_cvtepi32_epi64(_mm512_castsi512_si256(a)), bias);
        const __m512i hi = _mm512_add_epi64(
            _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(a, 1)), bias);
        if (tx == CN - 1) {
          _mm512_mask_storeu_epi64(dst, store_lo, lo);
          _mm512_mask_storeu_epi64(dst + kZmmLanes, store_hi, hi);
        } else {
          _mm512_storeu_si512(dst, lo);
          _mm512_storeu_si512(dst + kZmmLanes, hi);
        }
      }
    }
  }
}

/// Runtime row count (1..kConvRowTile512, fewer only in the last row
/// tile) → compile-time RN for one column width.
template <int CN, int RN = kConvRowTile512>
MAN_TARGET_AVX512 void conv_tile_rows_avx512(const ConvLayerPlan& plan,
                                             const std::int32_t* multiples,
                                             std::int64_t* out, int oy0,
                                             int ox, int rn, __mmask16 last) {
  if constexpr (RN > 1) {
    if (rn < RN) {
      conv_tile_rows_avx512<CN, RN - 1>(plan, multiples, out, oy0, ox, rn,
                                        last);
      return;
    }
  }
  conv_tile_avx512<RN, CN>(plan, multiples, out, oy0, ox, last);
}

/// The first `n` (1..16) lanes of a zmm of int32.
__mmask16 first_lanes(int n) {
  return static_cast<__mmask16>((1u << n) - 1u);
}

/// Every row tile and column group of one plan.
MAN_TARGET_AVX512 void accumulate_conv_avx512(const ConvLayerPlan& plan,
                                              const std::int32_t* multiples,
                                              std::int64_t* out) {
  for (int oy0 = 0; oy0 < plan.oh; oy0 += kConvRowTile512) {
    const int rn = std::min(kConvRowTile512, plan.oh - oy0);
    int ox = 0;
    // Two groups while more than one group's positions remain; the
    // second (or the lone last) group is masked to what is left.
    for (; plan.ow - ox > kZmmInt32Lanes; ox += 2 * kZmmInt32Lanes) {
      const __mmask16 last = first_lanes(
          std::min(plan.ow - ox - kZmmInt32Lanes, kZmmInt32Lanes));
      conv_tile_rows_avx512<2>(plan, multiples, out, oy0, ox, rn, last);
    }
    if (ox < plan.ow) {
      conv_tile_rows_avx512<1>(plan, multiples, out, oy0, ox, rn,
                               first_lanes(plan.ow - ox));
    }
  }
}

#else

bool cpu_has_avx512() { return false; }

#endif  // MAN_X86_KERNELS

class Avx512Backend final : public KernelBackend {
 public:

  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kAvx512;
  }
  [[nodiscard]] const char* name() const noexcept override {
    return "avx512";
  }
  [[nodiscard]] const char* description() const noexcept override {
    return avx512_ ? "AVX-512F/VL group gathers and 16-lane int32 tiles"
                   : "portable fallback (CPU lacks AVX-512F/VL)";
  }
  [[nodiscard]] bool accelerated() const noexcept override {
    return avx512_;
  }

  void accumulate_dense(const DenseLayerPlan& plan,
                        const std::int64_t* multiples,
                        std::int64_t* out) const override {
#if MAN_X86_KERNELS
    if (avx512_) {
      dense_groups_avx512(plan, multiples, out);
      return;
    }
#endif
    accumulate_groups(plan, multiples, out);
  }

  void accumulate_dense_tile(const DenseLayerPlan& plan,
                             const std::int32_t* tile,
                             std::int64_t* out) const override {
#if MAN_X86_KERNELS
    if (avx512_) {
      dense_groups_tile_avx512(plan, tile, out);
      return;
    }
#endif
    accumulate_groups_tile(plan, tile, out);
  }

  void exact_dense(const DenseLayerPlan& plan,
                   const std::int64_t* activations,
                   std::int64_t* out) const override {
    // 64-bit products need AVX-512DQ's vpmullq; gating on F/VL only,
    // the blocked loop is the right shape for the compiler here.
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
    if (avx512_) {
      accumulate_conv_avx512(plan, multiples, out);
      return;
    }
#endif
    accumulate_conv_groups(plan, multiples, out);
  }

  void exact_conv(const ConvLayerPlan& plan,
                  const std::int64_t* activations,
                  std::int64_t* out) const override {
    // Same reasoning as exact_dense: no 64-bit multiplier without DQ.
    exact_conv_blocked(plan, activations, out);
  }

 private:
  const bool avx512_ = cpu_has_avx512();
};

}  // namespace

const KernelBackend& avx512_backend() {
  static const Avx512Backend backend;
  return backend;
}

}  // namespace man::backend::detail
