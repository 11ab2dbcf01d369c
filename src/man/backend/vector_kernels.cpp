// The vector tiers: vector_kernels.h's loops instantiated at 16 bytes
// (default ISA), 32 bytes (MAN_TARGET_AVX2) and 64 bytes
// (MAN_TARGET_AVX512), plus the AVX-512 per-sample dense gather and,
// at the AVX2 and AVX-512 tiers, the four epilogue sweeps with their
// gathers. This is the only object that holds AVX code; nothing here
// runs before vector_kernels() has checked CPUID.
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

void dense_tile_16(const DenseLayerPlan& plan,
                   std::span<const std::uint8_t> alphabets, int chunk,
                   const std::int16_t* tile, std::int64_t* out) {
  dense_tile<I16x8>(plan, alphabets, chunk, tile, out);
}
void conv_int32_16(const ConvLayerPlan& plan, const std::int32_t* multiples,
                   std::int64_t* out) {
  conv<I32x4, kConvRows>(plan, multiples, out);
}

#if MAN_X86_KERNELS

MAN_TARGET_AVX2 void dense_tile_avx2(const DenseLayerPlan& plan,
                                     std::span<const std::uint8_t> alphabets,
                                     int chunk, const std::int16_t* tile,
                                     std::int64_t* out) {
  dense_tile<I16x16>(plan, alphabets, chunk, tile, out);
}
MAN_TARGET_AVX2 void conv_int32_avx2(const ConvLayerPlan& plan,
                                     const std::int32_t* multiples,
                                     std::int64_t* out) {
  conv<I32x8, kConvRows>(plan, multiples, out);
}

/// Hardware gathers of 8 int32 lanes and of 4 int64 lanes (the AVX2
/// tier's vectors, and the AVX-512 tier's half-width conv rows);
/// narrower vectors lane by lane.
struct YmmGather : LaneGather {
  using LaneGather::lut;
  MAN_TARGET_AVX2 static void lut(I64x4& out, const std::int32_t* table,
                                  const I64x4& index) {
    const auto entries = reinterpret_cast<I32x4>(
        _mm256_i64gather_epi32(table, reinterpret_cast<__m256i>(index), 4));
    out = __builtin_convertvector(entries, I64x4);
  }
  MAN_TARGET_AVX2 static void lut(I32x8& out, const std::int32_t* table,
                                  const I32x8& index) {
    out = reinterpret_cast<I32x8>(
        _mm256_i32gather_epi32(table, reinterpret_cast<__m256i>(index), 4));
  }
};

/// int64 lanes of one zmm.
inline constexpr int kZmmLanes = 8;

// Per-sample dense kernel at AVX-512, the one intrinsic kernel left:
// each (shift, sign) run of lane groups gathered 8 int64 multiples at a
// time (the last, partial gather lane-masked), shifted once, then added
// or subtracted. No generic-vector form of a gather was competitive
// with it.
MAN_TARGET_AVX512 void dense_groups_avx512(const DenseLayerPlan& plan,
                                           const std::int64_t* multiples,
                                           std::int64_t* out) {
  const std::uint32_t* idx = plan.idx.data();
  const std::uint32_t* begin = plan.group_begin.data();
  const std::uint32_t* runs = plan.run_groups.data();
  for (std::size_t r = 0; r < static_cast<std::size_t>(plan.rows); ++r) {
    __m512i acc = _mm512_setzero_si512();
    for (std::size_t j = plan.row_runs[r]; j < plan.row_runs[r + 1]; ++j) {
      const std::size_t g = runs[j];
      const std::uint32_t end = begin[runs[j + 1]];
      __m512i sum = _mm512_setzero_si512();
      std::uint32_t t = begin[g];
      for (; t + kZmmLanes <= end; t += kZmmLanes) {
        const __m256i vidx =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + t));
        sum = _mm512_add_epi64(sum,
                               _mm512_i32gather_epi64(vidx, multiples, 8));
      }
      if (t < end) {
        const auto mask = static_cast<__mmask8>((1u << (end - t)) - 1);
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

/// The AVX-512 tier's table reads: a full vector's lanes in one
/// hardware gather (8 int64 or 16 int32; no DQ instruction: the tier
/// targets AVX-512F/VL/BW), a half-width one in an AVX2 gather, narrower
/// ones lane by lane.
struct ZmmGather : YmmGather {
  using YmmGather::lut;
  MAN_TARGET_AVX512 static void lut(
      I64x8& out, const std::int32_t* table, const I64x8& index) {
    const auto entries =
        reinterpret_cast<I32x8>(_mm512_i64gather_epi32(
            reinterpret_cast<__m512i>(index), table, 4));
    out = __builtin_convertvector(entries, I64x8);
  }
  MAN_TARGET_AVX512 static void lut(
      I32x16& out, const std::int32_t* table, const I32x16& index) {
    out = reinterpret_cast<I32x16>(
        _mm512_i32gather_epi32(reinterpret_cast<__m512i>(index), table, 4));
  }
};

using man::core::PrecomputerCache;
using RawPath = man::core::FixedActivationLut::RawPath;

// The epilogue sweeps decline (return false) where they do not run
// exactly: the table has no window (an unconfigured one, span 0), a
// staged value missed the table's window, a conv sweep's table lacks
// the in-register proof, the LUT's scale is not 2^bits − 1, or float
// lanes cannot quantize the pixel format exactly.
template <typename V>
[[gnu::always_inline]] inline bool row_pixels(
    std::span<const float> pixels, const man::fixed::QFormat& format,
    const PrecomputerCache::View& table, std::int32_t* slots,
    std::size_t stride) {
  FloatQuantize quantizer;
  return table.alphabets != nullptr && quantizer.assign(format) &&
         stage_pixels<V>(pixels, quantizer, Staging{table}, slots, stride);
}
template <typename G, typename V>
[[gnu::always_inline]] inline bool lut_pool2(
    const std::int64_t* in, const Pool2Shape& shape, const RawPath& raw,
    const PrecomputerCache::View& table, std::int32_t* slots,
    std::size_t stride) {
  LutPath lut;
  return table.alphabets != nullptr && lut.assign(raw) &&
         lut_pool2_stage<G, V>(in, shape, lut, Staging{table}, slots, stride);
}
template <typename V>
[[gnu::always_inline]] inline bool tile_pixels(
    std::span<const float> pixels, const man::fixed::QFormat& format,
    const PrecomputerCache::View& table, std::int16_t* tile) {
  FloatQuantize quantizer;
  return table.span != 0 && quantizer.assign(format) &&
         stage_pixels_tile<V>(pixels, quantizer, Staging{table}, tile);
}
template <typename G, typename V>
[[gnu::always_inline]] inline bool tile_lut(const std::int64_t* acc,
                                            std::size_t elements,
                                            const RawPath& raw,
                                            const PrecomputerCache::View& table,
                                            std::int16_t* tile) {
  LutPath lut;
  return table.span != 0 && lut.assign(raw) &&
         lut_stage_tile<G, V>(acc, elements, lut, Staging{table}, tile);
}

MAN_TARGET_AVX512 bool stage_pixels_avx512(
    std::span<const float> pixels, const man::fixed::QFormat& format,
    const PrecomputerCache::View& table, std::int32_t* slots,
    std::size_t stride) {
  return row_pixels<I32x16>(pixels, format, table, slots, stride);
}
MAN_TARGET_AVX512 bool lut_pool2_stage_avx512(
    const std::int64_t* in, const Pool2Shape& shape, const RawPath& raw,
    const PrecomputerCache::View& table, std::int32_t* slots,
    std::size_t stride) {
  return lut_pool2<ZmmGather, I64x8>(in, shape, raw, table, slots, stride);
}
MAN_TARGET_AVX512 bool stage_pixels_tile_avx512(
    std::span<const float> pixels, const man::fixed::QFormat& format,
    const PrecomputerCache::View& table, std::int16_t* tile) {
  return tile_pixels<I32x16>(pixels, format, table, tile);
}
MAN_TARGET_AVX512 bool lut_stage_tile_avx512(
    const std::int64_t* acc, std::size_t elements, const RawPath& raw,
    const PrecomputerCache::View& table, std::int16_t* tile) {
  return tile_lut<ZmmGather, I32x16>(acc, elements, raw, table, tile);
}

MAN_TARGET_AVX2 bool stage_pixels_avx2(
    std::span<const float> pixels, const man::fixed::QFormat& format,
    const PrecomputerCache::View& table, std::int32_t* slots,
    std::size_t stride) {
  return row_pixels<I32x8>(pixels, format, table, slots, stride);
}
MAN_TARGET_AVX2 bool lut_pool2_stage_avx2(
    const std::int64_t* in, const Pool2Shape& shape, const RawPath& raw,
    const PrecomputerCache::View& table, std::int32_t* slots,
    std::size_t stride) {
  return lut_pool2<YmmGather, I64x4>(in, shape, raw, table, slots, stride);
}
MAN_TARGET_AVX2 bool stage_pixels_tile_avx2(
    std::span<const float> pixels, const man::fixed::QFormat& format,
    const PrecomputerCache::View& table, std::int16_t* tile) {
  return tile_pixels<I32x8>(pixels, format, table, tile);
}
MAN_TARGET_AVX2 bool lut_stage_tile_avx2(const std::int64_t* acc,
                                         std::size_t elements,
                                         const RawPath& raw,
                                         const PrecomputerCache::View& table,
                                         std::int16_t* tile) {
  return tile_lut<YmmGather, I32x8>(acc, elements, raw, table, tile);
}

MAN_TARGET_AVX512 void dense_tile_avx512(
    const DenseLayerPlan& plan, std::span<const std::uint8_t> alphabets,
    int chunk, const std::int16_t* tile, std::int64_t* out) {
  dense_tile<I16x32>(plan, alphabets, chunk, tile, out);
}
MAN_TARGET_AVX512 void conv_int32_avx512(const ConvLayerPlan& plan,
                                         const std::int32_t* multiples,
                                         std::int64_t* out) {
  conv<I32x16, kConvRows512>(plan, multiples, out);
}

int cpu_bytes() {
  // BW for the dense tile's int16 lanes (vpaddw and vpmovsxwd on zmm).
  if (__builtin_cpu_supports("avx512f") != 0 &&
      __builtin_cpu_supports("avx512vl") != 0 &&
      __builtin_cpu_supports("avx512bw") != 0) {
    return 64;
  }
  return __builtin_cpu_supports("avx2") != 0 ? 32 : 16;
}

#else

int cpu_bytes() { return 16; }

#endif  // MAN_X86_KERNELS

constexpr VectorKernels kTiers[] = {
    // The portable tier has no epilogue sweeps: at 16 bytes the conv
    // sweeps ran 1.2–1.3× slower than the reference (SSE2 has no 64-bit
    // compares, shifts or gathers), and SSE2 has no int32 multiply for
    // the in-register multiples.
    {16, "portable 16-byte vectors", nullptr, dense_tile_16, conv_int32_16,
     nullptr, nullptr, nullptr, nullptr},
#if MAN_X86_KERNELS
    {32, "AVX2 32-byte vectors and gathers", nullptr, dense_tile_avx2,
     conv_int32_avx2, stage_pixels_avx2, lut_pool2_stage_avx2,
     stage_pixels_tile_avx2, lut_stage_tile_avx2},
    {64, "AVX-512F/VL/BW 64-byte vectors and gathers", dense_groups_avx512,
     dense_tile_avx512, conv_int32_avx512, stage_pixels_avx512,
     lut_pool2_stage_avx512, stage_pixels_tile_avx512, lut_stage_tile_avx512},
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
