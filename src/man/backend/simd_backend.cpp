// Explicit SIMD kernel: AVX2 over the quartet planes. One dense sample
// runs 4-wide int64 — gather the selected pre-computer multiples,
// variable-shift them into place, apply the sign masks with xor/sub,
// accumulate. A dense batch tile loads each entry's contiguous int32
// sample lanes, 8 per ymm, and a conv plan that fits int32 lanes loads
// 8 consecutive output positions' int32 multiples per ymm. Conv plans
// that do not fit run the portable int64 plane loop. Bit-identical to
// the scalar reference because every operation (logical left shift,
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
// and runs the portable plane loop (shared with the blocked backend),
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

MAN_TARGET_AVX2 void accumulate_planes_avx2(const DenseLayerPlan& plan,
                                            const std::int64_t* multiples,
                                            std::int64_t* out) {
  const std::size_t stride = plan.plane_stride();
  const std::uint32_t* idx = plan.idx.data();
  const std::int64_t* shifts = plan.shifts.data();
  const std::int64_t* signs = plan.sign_masks.data();
  const auto* base = reinterpret_cast<const long long*>(multiples);
  for (int r = 0; r < plan.rows; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    __m256i acc = _mm256_setzero_si256();
    for (int c = 0; c < plan.cols_padded; c += kLaneWidth) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      __m256i product = _mm256_setzero_si256();
      for (int q = 0; q < plan.planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const __m128i vidx = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(idx + pc));
        const __m256i m = _mm256_i32gather_epi64(base, vidx, 8);
        const __m256i sh = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(shifts + pc));
        product = _mm256_add_epi64(product, _mm256_sllv_epi64(m, sh));
      }
      const __m256i sign = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(signs + cell));
      product = _mm256_sub_epi64(_mm256_xor_si256(product, sign), sign);
      acc = _mm256_add_epi64(acc, product);
    }
    out[r] = plan.biases[static_cast<std::size_t>(r)] + hsum_epi64(acc);
  }
}

/// int32 lanes of one ymm vector, and ymm vectors per
/// kDenseTile-sample tile.
inline constexpr int kYmmInt32Lanes = 8;
inline constexpr int kTileVecs = kDenseTile / kYmmInt32Lanes;

// Batch-tiled dense kernel: one row at a time, its kDenseTile int32
// sample lanes in kTileVecs ymm accumulators. A plan entry is one
// scalar idx plus one uniform shift count driving kTileVecs contiguous
// loads from the sample-minor tile — no gather. The sign is applied as
// Σ(p ^ s) − Σs: (p ^ s) − s summed over the columns is exactly that,
// and Σs is a per-row scalar, so each weight costs an xor and an add
// per vector instead of three ops. int32_row_bound() proves no lane
// sum leaves int32; the row is widened to int64 before the bias and
// −Σs are added. P > 0 fixes the plane count at compile time so the
// plane loop unrolls.
template <int P>
MAN_TARGET_AVX2 void dense_tile_avx2(const DenseLayerPlan& plan,
                                     const std::int32_t* tile,
                                     std::int64_t* out) {
  const int planes = P > 0 ? P : plan.planes;
  const std::size_t stride = plan.plane_stride();
  const std::uint32_t* idx = plan.idx.data();
  const std::int64_t* shifts = plan.shifts.data();
  const std::int64_t* signs = plan.sign_masks.data();
  for (int r = 0; r < plan.rows; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    __m256i acc[kTileVecs];
    for (int v = 0; v < kTileVecs; ++v) acc[v] = _mm256_setzero_si256();
    std::int64_t sign_sum = 0;
    for (int c = 0; c < plan.cols; ++c) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      __m256i product[kTileVecs];
      for (int v = 0; v < kTileVecs; ++v) product[v] = _mm256_setzero_si256();
      for (int q = 0; q < planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const auto* src = reinterpret_cast<const __m256i*>(
            tile + std::size_t{idx[pc]} * kDenseTile);
        const __m128i sh = _mm_cvtsi64_si128(shifts[pc]);
        for (int v = 0; v < kTileVecs; ++v) {
          product[v] = _mm256_add_epi32(
              product[v], _mm256_sll_epi32(_mm256_loadu_si256(src + v), sh));
        }
      }
      const std::int64_t sign = signs[cell];
      const __m256i vsign = _mm256_set1_epi32(static_cast<int>(sign));
      for (int v = 0; v < kTileVecs; ++v) {
        acc[v] = _mm256_add_epi32(acc[v], _mm256_xor_si256(product[v], vsign));
      }
      sign_sum += sign;
    }
    const __m256i bias = _mm256_set1_epi64x(
        plan.biases[static_cast<std::size_t>(r)] - sign_sum);
    auto* dst = reinterpret_cast<__m256i*>(
        out + static_cast<std::size_t>(r) * kDenseTile);
    for (int v = 0; v < kTileVecs; ++v) {
      const __m256i lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc[v]));
      const __m128i upper = _mm256_extracti128_si256(acc[v], 1);
      const __m256i hi = _mm256_cvtepi32_epi64(upper);
      _mm256_storeu_si256(dst + 2 * v, _mm256_add_epi64(lo, bias));
      _mm256_storeu_si256(dst + 2 * v + 1, _mm256_add_epi64(hi, bias));
    }
  }
}

/// Plane count → compile-time unrolled plane loop (8- and 12-bit
/// weights have at most 2 and 3 quartets).
MAN_TARGET_AVX2 void accumulate_planes_tile_avx2(const DenseLayerPlan& plan,
                                                 const std::int32_t* tile,
                                                 std::int64_t* out) {
  switch (plan.planes) {
    case 1: dense_tile_avx2<1>(plan, tile, out); break;
    case 2: dense_tile_avx2<2>(plan, tile, out); break;
    case 3: dense_tile_avx2<3>(plan, tile, out); break;
    default: dense_tile_avx2<0>(plan, tile, out); break;
  }
}

/// The conv register tile: 3 output rows × 2 column groups, the
/// fastest fixed shape on both LeNet conv plans (two groups at 2–7
/// rows were within ≈ 10 % of it; one group was up to 1.4× slower).
/// Fixed at compile time (docs/backends.md, "Conv register tiles").
inline constexpr int kConvRowTile = 3;
static_assert(ConvLayerPlan::tile_avx2.row_tile == kConvRowTile &&
              ConvLayerPlan::tile_avx2.col_vecs == 2);

// Conv kernel vectorized over output *positions*, not weight columns:
// a conv weight fires at every position with the same idx/shift/sign,
// so consecutive positions of one output row share one broadcast plan
// entry — and in the lane-major multiples layout their reads are
// *contiguous*, so the inner step is a plain load of 8 int32 lanes
// plus one broadcast-count shift (_mm256_sll_epi32); no gather at all.
// Each plan entry feeds a register-blocked grid of RN output rows × CN
// column groups (one accumulator each) before the walk moves on, so
// the (often L1-exceeding) plan streams through RN·CN·8 times less
// often. Every weight walks all P planes (P fixed at compile time, as
// in dense_tile_avx2): an absent step reads the zero region, which is
// 0 under any shift and any position base, so the walk has no
// data-dependent branch — stopping at each weight's step count instead
// mispredicted enough to cost ≈ 1.4× on LeNet's second conv plan. The
// sign is applied as
// Σ(p ^ s) − Σs, as in dense_tile_avx2; int32_row_bound() proves no
// lane sum leaves int32, and each output is widened to int64 where the
// bias and −Σs are added. The last column group is lane-masked to
// `last` positions (1..8), so a row of any width needs no scalar tail:
// masked-out lanes are neither read nor written.
// RN/CN are compile-time constants so the accumulator/product arrays
// live in ymm registers (a full 3 × 2 tile holds 12 of the 16).
template <int RN, int CN, int P>
MAN_TARGET_AVX2 void conv_tile_avx2(const ConvLayerPlan& plan,
                                    const std::int32_t* multiples,
                                    std::int64_t* out, int oy0, int ox,
                                    int last) {
  const int planes = P > 0 ? P : plan.planes;
  const std::size_t stride = plan.plane_stride();
  const std::size_t positions = plan.positions();
  const std::uint32_t* idx = plan.idx.data();
  const std::int64_t* shifts = plan.shifts.data();
  const std::int64_t* signs = plan.sign_masks.data();
  const std::size_t ebase0 = static_cast<std::size_t>(oy0) * plan.iw + ox;
  const __m256i load_mask = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(last), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const __m256i quad = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i store_lo = _mm256_cmpgt_epi64(_mm256_set1_epi64x(last), quad);
  const __m256i store_hi =
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(last - 4), quad);
  for (int r = 0; r < plan.oc; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    __m256i acc[RN * CN];
    for (int t = 0; t < RN * CN; ++t) acc[t] = _mm256_setzero_si256();
    std::int64_t sign_sum = 0;
    for (int c = 0; c < plan.cols; ++c) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      __m256i product[RN * CN];
      for (int t = 0; t < RN * CN; ++t) product[t] = _mm256_setzero_si256();
      for (int q = 0; q < planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const __m128i sh = _mm_cvtsi32_si128(static_cast<int>(shifts[pc]));
        const std::int32_t* src = multiples + idx[pc] + ebase0;
        for (int ty = 0; ty < RN; ++ty) {
          for (int tx = 0; tx < CN; ++tx) {
            const std::int32_t* p =
                src + static_cast<std::size_t>(ty) * plan.iw +
                static_cast<std::size_t>(tx) * kYmmInt32Lanes;
            const __m256i m =
                tx == CN - 1
                    ? _mm256_maskload_epi32(p, load_mask)
                    : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
            product[ty * CN + tx] = _mm256_add_epi32(
                product[ty * CN + tx], _mm256_sll_epi32(m, sh));
          }
        }
      }
      const std::int64_t sign = signs[cell];
      const __m256i vsign = _mm256_set1_epi32(static_cast<int>(sign));
      for (int t = 0; t < RN * CN; ++t) {
        acc[t] = _mm256_add_epi32(acc[t], _mm256_xor_si256(product[t], vsign));
      }
      sign_sum += sign;
    }
    const __m256i bias = _mm256_set1_epi64x(
        plan.biases[static_cast<std::size_t>(r)] - sign_sum);
    for (int ty = 0; ty < RN; ++ty) {
      for (int tx = 0; tx < CN; ++tx) {
        auto* dst = reinterpret_cast<long long*>(
            out + static_cast<std::size_t>(r) * positions +
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
template <int CN, int P, int RN = kConvRowTile>
MAN_TARGET_AVX2 void conv_tile_rows_avx2(const ConvLayerPlan& plan,
                                         const std::int32_t* multiples,
                                         std::int64_t* out, int oy0, int ox,
                                         int rn, int last) {
  if constexpr (RN > 1) {
    if (rn < RN) {
      conv_tile_rows_avx2<CN, P, RN - 1>(plan, multiples, out, oy0, ox, rn,
                                         last);
      return;
    }
  }
  conv_tile_avx2<RN, CN, P>(plan, multiples, out, oy0, ox, last);
}

/// Every row tile and column group of one plan, at a compile-time
/// plane count P (0: the plan's).
template <int P>
MAN_TARGET_AVX2 void conv_tiles_avx2(const ConvLayerPlan& plan,
                                     const std::int32_t* multiples,
                                     std::int64_t* out) {
  for (int oy0 = 0; oy0 < plan.oh; oy0 += kConvRowTile) {
    const int rn = std::min(kConvRowTile, plan.oh - oy0);
    int ox = 0;
    // Two groups while more than one group's positions remain; the
    // second (or the lone last) group is masked to what is left.
    for (; plan.ow - ox > kYmmInt32Lanes; ox += 2 * kYmmInt32Lanes) {
      const int last = std::min(plan.ow - ox - kYmmInt32Lanes, kYmmInt32Lanes);
      conv_tile_rows_avx2<2, P>(plan, multiples, out, oy0, ox, rn, last);
    }
    if (ox < plan.ow) {
      conv_tile_rows_avx2<1, P>(plan, multiples, out, oy0, ox, rn,
                                plan.ow - ox);
    }
  }
}

/// Plane count → compile-time unrolled plane loop (8- and 12-bit
/// weights have at most 2 and 3 quartets).
MAN_TARGET_AVX2 void accumulate_conv_avx2(const ConvLayerPlan& plan,
                                          const std::int32_t* multiples,
                                          std::int64_t* out) {
  switch (plan.planes) {
    case 1: conv_tiles_avx2<1>(plan, multiples, out); break;
    case 2: conv_tiles_avx2<2>(plan, multiples, out); break;
    case 3: conv_tiles_avx2<3>(plan, multiples, out); break;
    default: conv_tiles_avx2<0>(plan, multiples, out); break;
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
    return avx2_ ? "AVX2 gather/sllv over SoA quartet planes"
                 : "portable fallback (CPU lacks AVX2)";
  }
  [[nodiscard]] bool accelerated() const noexcept override { return avx2_; }

  void accumulate_dense(const DenseLayerPlan& plan,
                        const std::int64_t* multiples,
                        std::int64_t* out) const override {
#if MAN_X86_KERNELS
    if (avx2_) {
      accumulate_planes_avx2(plan, multiples, out);
      return;
    }
#endif
    accumulate_planes(plan, multiples, out);
  }

  void accumulate_dense_tile(const DenseLayerPlan& plan,
                             const std::int32_t* tile,
                             std::int64_t* out) const override {
#if MAN_X86_KERNELS
    if (avx2_) {
      accumulate_planes_tile_avx2(plan, tile, out);
      return;
    }
#endif
    accumulate_planes_tile(plan, tile, out);
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
    accumulate_conv_planes(plan, multiples, out);
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
    accumulate_conv_planes(plan, multiples, out);
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
