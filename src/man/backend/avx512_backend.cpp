// AVX-512 kernel: the AVX2 backend's structure at twice the vector
// width — 8-lane int64 gathers for one dense sample, one zmm of 16
// int32 lanes per plan entry for a dense batch tile, and 16 int32
// output positions per zmm for a conv plan that fits int32 lanes —
// plus the deeper register file (32 zmm) that makes taller row tiles
// profitable, plus lane masking for ragged column groups and row tails
// (no scalar remainder). Conv plans that do not fit run the portable
// int64 plane loop. Bit-identical to the scalar reference for the same
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
// the backend stays registered and runs the portable plane loop
// (shared with the blocked backend), so MAN_BACKEND=avx512 is always
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

MAN_TARGET_AVX512 std::int64_t hsum_epi64_256(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return _mm_extract_epi64(sum, 0) + _mm_extract_epi64(sum, 1);
}

MAN_TARGET_AVX512 void accumulate_planes_avx512(const DenseLayerPlan& plan,
                                                const std::int64_t* multiples,
                                                std::int64_t* out) {
  const std::size_t stride = plan.plane_stride();
  const std::uint32_t* idx = plan.idx.data();
  const std::int64_t* shifts = plan.shifts.data();
  const std::int64_t* signs = plan.sign_masks.data();
  for (int r = 0; r < plan.rows; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    __m512i acc8 = _mm512_setzero_si512();
    __m256i acc4 = _mm256_setzero_si256();
    const int main = plan.cols_padded / kZmmLanes * kZmmLanes;
    for (int c = 0; c < main; c += kZmmLanes) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      __m512i product = _mm512_setzero_si512();
      for (int q = 0; q < plan.planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const __m256i vidx =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + pc));
        const __m512i m = _mm512_i32gather_epi64(vidx, multiples, 8);
        const __m512i sh = _mm512_loadu_si512(shifts + pc);
        product = _mm512_add_epi64(product, _mm512_sllv_epi64(m, sh));
      }
      const __m512i sign = _mm512_loadu_si512(signs + cell);
      product = _mm512_sub_epi64(_mm512_xor_si512(product, sign), sign);
      acc8 = _mm512_add_epi64(acc8, product);
    }
    // cols_padded is a multiple of kLaneWidth (4), not 8 — one ymm
    // pass covers the remainder.
    for (int c = main; c < plan.cols_padded; c += kLaneWidth) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      __m256i product = _mm256_setzero_si256();
      for (int q = 0; q < plan.planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const __m128i vidx =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + pc));
        const __m256i m = _mm256_i32gather_epi64(
            reinterpret_cast<const long long*>(multiples), vidx, 8);
        const __m256i sh =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(shifts + pc));
        product = _mm256_add_epi64(product, _mm256_sllv_epi64(m, sh));
      }
      const __m256i sign =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(signs + cell));
      product = _mm256_sub_epi64(_mm256_xor_si256(product, sign), sign);
      acc4 = _mm256_add_epi64(acc4, product);
    }
    out[r] = plan.biases[static_cast<std::size_t>(r)] +
             _mm512_reduce_add_epi64(acc8) + hsum_epi64_256(acc4);
  }
}

// Batch-tiled dense kernel — dense_tile_avx2 at zmm width (see there
// for the layout, the Σ(p ^ s) − Σs sign argument and the int32
// proof): kDenseTile int32 sample lanes are exactly one zmm, so a plan
// entry is one scalar idx and one uniform shift count driving a single
// plain load, and each row is one accumulator widened to two int64
// zmm at the end.
template <int P>
MAN_TARGET_AVX512 void dense_tile_avx512(const DenseLayerPlan& plan,
                                         const std::int32_t* tile,
                                         std::int64_t* out) {
  static_assert(kDenseTile == 16, "one zmm of int32 lanes per tile");
  const int planes = P > 0 ? P : plan.planes;
  const std::size_t stride = plan.plane_stride();
  const std::uint32_t* idx = plan.idx.data();
  const std::int64_t* shifts = plan.shifts.data();
  const std::int64_t* signs = plan.sign_masks.data();
  for (int r = 0; r < plan.rows; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    __m512i acc = _mm512_setzero_si512();
    std::int64_t sign_sum = 0;
    for (int c = 0; c < plan.cols; ++c) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      __m512i product = _mm512_setzero_si512();
      for (int q = 0; q < planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const std::int32_t* src = tile + std::size_t{idx[pc]} * kDenseTile;
        const __m512i lanes = _mm512_loadu_si512(src);
        const __m128i sh = _mm_cvtsi64_si128(shifts[pc]);
        product = _mm512_add_epi32(product, _mm512_sll_epi32(lanes, sh));
      }
      const std::int64_t sign = signs[cell];
      const __m512i vsign = _mm512_set1_epi32(static_cast<int>(sign));
      acc = _mm512_add_epi32(acc, _mm512_xor_si512(product, vsign));
      sign_sum += sign;
    }
    const __m512i bias = _mm512_set1_epi64(
        plan.biases[static_cast<std::size_t>(r)] - sign_sum);
    std::int64_t* dst = out + static_cast<std::size_t>(r) * kDenseTile;
    const __m512i lo = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc));
    const __m512i hi = _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(acc, 1));
    _mm512_storeu_si512(dst, _mm512_add_epi64(lo, bias));
    _mm512_storeu_si512(dst + kZmmLanes, _mm512_add_epi64(hi, bias));
  }
}

/// Plane count → compile-time unrolled plane loop (8- and 12-bit
/// weights have at most 2 and 3 quartets).
MAN_TARGET_AVX512 void accumulate_planes_tile_avx512(
    const DenseLayerPlan& plan, const std::int32_t* tile, std::int64_t* out) {
  switch (plan.planes) {
    case 1: dense_tile_avx512<1>(plan, tile, out); break;
    case 2: dense_tile_avx512<2>(plan, tile, out); break;
    case 3: dense_tile_avx512<3>(plan, tile, out); break;
    default: dense_tile_avx512<0>(plan, tile, out); break;
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
/// width (see there for the layout, the Σ(p ^ s) − Σs sign form and
/// the int32 proof). The last column group is lane-masked to the
/// positions set in `last`, so a row of any width needs no tail
/// kernel: masked-out lanes are neither read nor written, and active
/// lanes run the exact same ops.
template <int RN, int CN, int P>
MAN_TARGET_AVX512 void conv_tile_avx512(const ConvLayerPlan& plan,
                                        const std::int32_t* multiples,
                                        std::int64_t* out, int oy0, int ox,
                                        __mmask16 last) {
  const int planes = P > 0 ? P : plan.planes;
  const std::size_t stride = plan.plane_stride();
  const std::size_t positions = plan.positions();
  const std::uint32_t* idx = plan.idx.data();
  const std::int64_t* shifts = plan.shifts.data();
  const std::int64_t* signs = plan.sign_masks.data();
  const std::size_t ebase0 = static_cast<std::size_t>(oy0) * plan.iw + ox;
  const auto store_lo = static_cast<__mmask8>(last & 0xFFu);
  const auto store_hi = static_cast<__mmask8>(last >> 8);
  for (int r = 0; r < plan.oc; ++r) {
    const std::size_t row = static_cast<std::size_t>(r) * plan.cols_padded;
    __m512i acc[RN * CN];
    for (int t = 0; t < RN * CN; ++t) acc[t] = _mm512_setzero_si512();
    std::int64_t sign_sum = 0;
    for (int c = 0; c < plan.cols; ++c) {
      const std::size_t cell = row + static_cast<std::size_t>(c);
      __m512i product[RN * CN];
      for (int t = 0; t < RN * CN; ++t) product[t] = _mm512_setzero_si512();
      for (int q = 0; q < planes; ++q) {
        const std::size_t pc = q * stride + cell;
        const __m128i sh = _mm_cvtsi32_si128(static_cast<int>(shifts[pc]));
        const std::int32_t* src = multiples + idx[pc] + ebase0;
        for (int ty = 0; ty < RN; ++ty) {
          for (int tx = 0; tx < CN; ++tx) {
            const std::int32_t* p =
                src + static_cast<std::size_t>(ty) * plan.iw +
                static_cast<std::size_t>(tx) * kZmmInt32Lanes;
            const __m512i m = tx == CN - 1 ? _mm512_maskz_loadu_epi32(last, p)
                                           : _mm512_loadu_si512(p);
            product[ty * CN + tx] = _mm512_add_epi32(
                product[ty * CN + tx], _mm512_sll_epi32(m, sh));
          }
        }
      }
      const std::int64_t sign = signs[cell];
      const __m512i vsign = _mm512_set1_epi32(static_cast<int>(sign));
      for (int t = 0; t < RN * CN; ++t) {
        acc[t] = _mm512_add_epi32(acc[t], _mm512_xor_si512(product[t], vsign));
      }
      sign_sum += sign;
    }
    const __m512i bias = _mm512_set1_epi64(
        plan.biases[static_cast<std::size_t>(r)] - sign_sum);
    for (int ty = 0; ty < RN; ++ty) {
      for (int tx = 0; tx < CN; ++tx) {
        std::int64_t* dst = out + static_cast<std::size_t>(r) * positions +
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
template <int CN, int P, int RN = kConvRowTile512>
MAN_TARGET_AVX512 void conv_tile_rows_avx512(const ConvLayerPlan& plan,
                                             const std::int32_t* multiples,
                                             std::int64_t* out, int oy0,
                                             int ox, int rn, __mmask16 last) {
  if constexpr (RN > 1) {
    if (rn < RN) {
      conv_tile_rows_avx512<CN, P, RN - 1>(plan, multiples, out, oy0, ox, rn,
                                           last);
      return;
    }
  }
  conv_tile_avx512<RN, CN, P>(plan, multiples, out, oy0, ox, last);
}

/// The first `n` (1..16) lanes of a zmm of int32.
__mmask16 first_lanes(int n) {
  return static_cast<__mmask16>((1u << n) - 1u);
}

/// Every row tile and column group of one plan, at a compile-time
/// plane count P (0: the plan's).
template <int P>
MAN_TARGET_AVX512 void conv_tiles_avx512(const ConvLayerPlan& plan,
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
      conv_tile_rows_avx512<2, P>(plan, multiples, out, oy0, ox, rn, last);
    }
    if (ox < plan.ow) {
      conv_tile_rows_avx512<1, P>(plan, multiples, out, oy0, ox, rn,
                                  first_lanes(plan.ow - ox));
    }
  }
}

/// Plane count → compile-time unrolled plane loop (8- and 12-bit
/// weights have at most 2 and 3 quartets).
MAN_TARGET_AVX512 void accumulate_conv_avx512(const ConvLayerPlan& plan,
                                              const std::int32_t* multiples,
                                              std::int64_t* out) {
  switch (plan.planes) {
    case 1: conv_tiles_avx512<1>(plan, multiples, out); break;
    case 2: conv_tiles_avx512<2>(plan, multiples, out); break;
    case 3: conv_tiles_avx512<3>(plan, multiples, out); break;
    default: conv_tiles_avx512<0>(plan, multiples, out); break;
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
    return avx512_ ? "AVX-512F/VL 16-lane int32 position tiles over SoA planes"
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
      accumulate_planes_avx512(plan, multiples, out);
      return;
    }
#endif
    accumulate_planes(plan, multiples, out);
  }

  void accumulate_dense_tile(const DenseLayerPlan& plan,
                             const std::int32_t* tile,
                             std::int64_t* out) const override {
#if MAN_X86_KERNELS
    if (avx512_) {
      accumulate_planes_tile_avx512(plan, tile, out);
      return;
    }
#endif
    accumulate_planes_tile(plan, tile, out);
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
    accumulate_conv_planes(plan, multiples, out);
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
    accumulate_conv_planes(plan, multiples, out);
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
