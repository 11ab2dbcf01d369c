// The vector tiers: vector_kernels.h's loops instantiated at 16 bytes
// (default ISA), 32 bytes (MAN_TARGET_AVX2) and 64 bytes
// (MAN_TARGET_AVX512), plus the two per-sample dense kernels. This is
// the only object that holds AVX code; nothing here runs before
// vector_kernels() has checked CPUID.
#include "man/backend/vector_kernels.h"

#include "man/backend/backend_impls.h"

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

/// Output rows per conv register tile: 3 where the ISA has 16 vector
/// registers, 5 with AVX-512's 32 (docs/backends.md, "Conv register
/// tiles"); always two column groups.
constexpr int kConvRows = 3;
constexpr int kConvRows512 = 5;
static_assert(ConvLayerPlan::tile_avx2.row_tile == kConvRows &&
              ConvLayerPlan::tile_avx2.col_vecs == 2);
static_assert(ConvLayerPlan::tile_avx512.row_tile == kConvRows512 &&
              ConvLayerPlan::tile_avx512.col_vecs == 2);

/// Per-sample dense kernel below AVX-512: each group's int64 multiples
/// summed, shifted once, and added branch-free as (sum ^ s) − s. It
/// beat an AVX2 gather kernel on every SVHN layer (docs/backends.md).
void dense_groups(const DenseLayerPlan& plan, const std::int64_t* multiples,
                  std::int64_t* out) {
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

void dense_tile_16(const DenseLayerPlan& plan, const std::int32_t* tile,
                   std::int64_t* out) {
  dense_tile<I32x4>(plan, tile, out);
}
void conv_16(const ConvLayerPlan& plan, const std::int64_t* multiples,
             std::int64_t* out) {
  conv<I64x2, kConvRows>(plan, multiples, out);
}
void conv_int32_16(const ConvLayerPlan& plan, const std::int32_t* multiples,
                   std::int64_t* out) {
  conv<I32x4, kConvRows>(plan, multiples, out);
}

#if MAN_X86_KERNELS

MAN_TARGET_AVX2 void dense_tile_avx2(const DenseLayerPlan& plan,
                                     const std::int32_t* tile,
                                     std::int64_t* out) {
  dense_tile<I32x8>(plan, tile, out);
}
MAN_TARGET_AVX2 void conv_avx2(const ConvLayerPlan& plan,
                               const std::int64_t* multiples,
                               std::int64_t* out) {
  conv<I64x4, kConvRows>(plan, multiples, out);
}
MAN_TARGET_AVX2 void conv_int32_avx2(const ConvLayerPlan& plan,
                                     const std::int32_t* multiples,
                                     std::int64_t* out) {
  conv<I32x8, kConvRows>(plan, multiples, out);
}

/// int64 lanes of one zmm.
inline constexpr int kZmmLanes = 8;

// Per-sample dense kernel at AVX-512, the one intrinsic kernel left:
// each group's terms gathered 8 int64 multiples at a time (the last,
// partial gather lane-masked), shifted once, then added or subtracted.
// No generic-vector form of a gather was competitive with it.
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

MAN_TARGET_AVX512 void dense_tile_avx512(const DenseLayerPlan& plan,
                                         const std::int32_t* tile,
                                         std::int64_t* out) {
  dense_tile<I32x16>(plan, tile, out);
}
MAN_TARGET_AVX512 void conv_avx512(const ConvLayerPlan& plan,
                                   const std::int64_t* multiples,
                                   std::int64_t* out) {
  conv<I64x8, kConvRows512>(plan, multiples, out);
}
MAN_TARGET_AVX512 void conv_int32_avx512(const ConvLayerPlan& plan,
                                         const std::int32_t* multiples,
                                         std::int64_t* out) {
  conv<I32x16, kConvRows512>(plan, multiples, out);
}

int cpu_bytes() {
  if (__builtin_cpu_supports("avx512f") != 0 &&
      __builtin_cpu_supports("avx512vl") != 0) {
    return 64;
  }
  return __builtin_cpu_supports("avx2") != 0 ? 32 : 16;
}

#else

int cpu_bytes() { return 16; }

#endif  // MAN_X86_KERNELS

constexpr VectorKernels kTiers[] = {
    {16, "portable 16-byte vectors", dense_groups, dense_tile_16, conv_16,
     conv_int32_16},
#if MAN_X86_KERNELS
    {32, "AVX2 32-byte vectors", dense_groups, dense_tile_avx2, conv_avx2,
     conv_int32_avx2},
    {64, "AVX-512F/VL 64-byte vectors and per-sample gathers",
     dense_groups_avx512, dense_tile_avx512, conv_avx512, conv_int32_avx512},
#endif
};

}  // namespace

const VectorKernels& vector_kernels(int cap_bytes) {
  const int bytes = std::min(cap_bytes, cpu_bytes());
  const VectorKernels* widest = &kTiers[0];
  for (const VectorKernels& tier : kTiers) {
    if (tier.bytes <= bytes) widest = &tier;
  }
  return *widest;
}

}  // namespace man::backend::detail
