// Multi-backend ASM accumulation: the inner MAC loop of the
// fixed-point engine abstracted behind a KernelBackend interface, so
// the same compiled plans — the (shift, sign) groups of a dense or conv
// plan — run on the extracted scalar reference or on the vector
// backend, all under one bit-exactness contract (every backend must
// produce accumulators identical to the scalar reference; the Fig 9
// replay gate enforces this in CI). The vector backend writes each
// loop once over a generic vector type and instantiates it per vector
// width: 16 bytes at the default ISA, 32 for AVX2, 64 for AVX-512.
//
// Selection: resolve() picks, in precedence order, a programmatic
// override (BatchOptions::backend), the MAN_BACKEND environment
// variable (scalar|blocked|simd|avx512; auto/unset defers), then CPU
// feature detection (the widest vector tier CPUID reports).
#ifndef MAN_BACKEND_KERNEL_BACKEND_H
#define MAN_BACKEND_KERNEL_BACKEND_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>

#include "man/backend/layer_plan.h"
#include "man/core/activation.h"
#include "man/fixed/qformat.h"

namespace man::backend {

/// The input of a 2×2 average pool: c channel-major planes of 2·oh
/// rows × 2·ow int64 values. Pooled value (ch, y, x) is value
/// (ch·oh + y)·ow + x of the output.
struct Pool2Shape {
  int c = 0;
  int oh = 0;
  int ow = 0;
};

/// How a synapse stage stages its inputs: the pre-computer bank is
/// linear, so its output l of input x is alphabets[l]·x, and every
/// staged x must lie in [min_raw, max_raw] — the plan's staging window
/// for a stage fed activation-format values, all of int64 for one fed
/// raw accumulators.
struct StagingWindow {
  std::int64_t min_raw = 0;
  std::int64_t max_raw = -1;  ///< below min_raw: the window is empty
  std::span<const std::uint8_t> alphabets;  ///< the bank's k alphabets

  /// Throws std::out_of_range when x lies outside the window.
  void check(std::int64_t x) const {
    if (x < min_raw || x > max_raw) throw_outside(x);
  }

  /// True when the window is not empty and every alphabets[l]·x of it
  /// fits int32: X·max(a) ≤ INT32_MAX, X = max(|min_raw|, |max_raw|).
  /// The sweeps decline every other window.
  [[nodiscard]] bool fits_int32() const noexcept {
    constexpr std::uint64_t kMax = std::numeric_limits<std::int32_t>::max();
    const auto magnitude = [](std::int64_t v) {
      const auto u = static_cast<std::uint64_t>(v);
      return v < 0 ? 0 - u : u;
    };
    const std::uint64_t x = std::max(magnitude(min_raw), magnitude(max_raw));
    std::uint64_t a = 1;
    for (const std::uint8_t alphabet : alphabets) {
      a = std::max<std::uint64_t>(a, alphabet);
    }
    return min_raw <= max_raw && x <= kMax && x * a <= kMax;
  }

 private:
  /// check()'s throw, out of line.
  [[noreturn]] void throw_outside(std::int64_t x) const;
};

/// Registered accumulation kernels. The three vector kinds are caps:
/// each runs the widest vector tier at or below its cap that CPUID
/// reports.
enum class BackendKind {
  kScalar,   ///< extracted reference loop, one row at a time over the
             ///< groups (a conv row once per output position)
  kBlocked,  ///< the portable tier: 16-byte vectors at the default
             ///< ISA, the only vector code that runs off x86-64
  kSimd,     ///< AVX2's 32-byte vectors (portable without AVX2)
  kAvx512,   ///< AVX-512F/VL/BW's 64-byte vectors (AVX2's without
             ///< AVX-512F/VL/BW, portable without either)
};

/// One implementation of the inner accumulation loops and, where it
/// has them, of the stage boundaries' epilogue sweeps: a conv network's
/// first two (pixels into conv lanes; LUT, 2×2 pool, conv lanes) and a
/// dense batch tile's (a tile's pixels into its sample-minor slots; its
/// accumulators through a LUT into the next tile's). Stateless and
/// thread-safe: instances are process-wide singletons obtained via
/// backend_for()/resolve().
class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  [[nodiscard]] virtual BackendKind kind() const noexcept = 0;
  /// Stable lowercase identifier ("scalar", "blocked", "simd",
  /// "avx512") — the MAN_BACKEND spelling and the EngineStats backend
  /// label.
  [[nodiscard]] virtual const char* name() const noexcept = 0;
  /// Human-readable variant description (for a vector backend, the
  /// tier live on this CPU under its cap).
  [[nodiscard]] virtual const char* description() const noexcept = 0;
  /// True when this backend runs a vector tier above the portable one
  /// (AVX2 or AVX-512). Every registered backend is always *runnable*.
  [[nodiscard]] virtual bool accelerated() const noexcept = 0;

  /// ASM accumulation for one dense stage, group by group:
  /// out[r] = biases[r] + Σ_g ±(Σ_t multiples[idx[t]]) << shifts[g].
  /// `multiples` holds plan.padded_multiples() slots (cols × k bank
  /// outputs, k-strided). The AVX-512 tier gathers; every other
  /// backend runs the scalar reference's walk.
  virtual void accumulate_dense(const DenseLayerPlan& plan,
                                const std::int64_t* multiples,
                                std::int64_t* out) const = 0;

  /// accumulate_dense over a tile of kDenseTile samples at once, laid
  /// out sample-minor in int16 lanes: input c of sample b lives at
  /// tile[c·kDenseTile + b] (plan.cols × kDenseTile values, the inputs
  /// themselves, not their bank outputs; term t reads input idx[t] / k),
  /// and row r of sample b lands at out[r·kDenseTile + b]. Each term is
  /// read once per tile and adds kDenseTile contiguous lanes — one
  /// 64-byte vector, two 32-byte or four 16-byte ones — so vector
  /// kernels use plain loads where the per-sample kernel gathers. A group's terms are summed in int16
  /// runs of at most `chunk` terms, each run widened into the group's
  /// int32 sum Σx; the bank is applied to that sum, a·Σx with a =
  /// alphabets[plan.bank_lanes[g]], then shifted and added to the row
  /// (or subtracted) in int32, and each row is widened to int64 before
  /// the bias is added. `alphabets` are the stage's k bank alphabets.
  /// Callers must hold 1 ≤ chunk ≤ int16_tile_chunk(plan) and
  /// int32_row_bound(plan, alphabets) ≤ INT32_MAX for the staged inputs
  /// (FixedNetwork tiles only such plans); the scalar reference
  /// accumulates in int64 regardless. Bit-identical to kDenseTile
  /// accumulate_dense calls.
  virtual void accumulate_dense_tile(const DenseLayerPlan& plan,
                                     std::span<const std::uint8_t> alphabets,
                                     int chunk, const std::int16_t* tile,
                                     std::int64_t* out) const = 0;

  /// ASM accumulation for one conv stage, group by group: for every
  /// filter r and output position p = (oy, ox),
  ///   out[r·P + p] = biases[r] + Σ_g ±(Σ_t
  ///       multiples[idx[t] + oy·iw + ox]) << shifts[g]
  /// (the position base is in element units — the lane-major layout
  /// strides by elements, not by k). `multiples` holds
  /// plan.padded_multiples() slots — k lanes of ic·ih·iw bank
  /// outputs. FixedNetwork calls it only for plans that do not fit
  /// int32 lanes (a stage fed raw accumulators, or one that fails the
  /// row bound), so it is not virtual: every backend runs the scalar
  /// reference's walk (scalar_backend.cpp).
  void accumulate_conv(const ConvLayerPlan& plan,
                       const std::int64_t* multiples,
                       std::int64_t* out) const;

  /// accumulate_conv over int32 multiples: the same lane-major layout
  /// and output. The vector backend runs 4, 8 or 16 consecutive output
  /// positions per vector (by tier), sums each group and the filter in
  /// int32, and widens each output to int64 where the bias is added;
  /// it tiles positions by one fixed register tile per tier, and a
  /// row's last vector ends at ow, overlapping the one before it, so
  /// no read leaves the row. Callers must hold int32_row_bound(plan,
  /// ...) ≤ INT32_MAX for the staged inputs (FixedNetwork routes only
  /// such plans here); the scalar reference accumulates in int64
  /// regardless. Bit-identical to accumulate_conv on the same values.
  virtual void accumulate_conv_int32(const ConvLayerPlan& plan,
                                     const std::int32_t* multiples,
                                     std::int64_t* out) const = 0;

  // Epilogue sweeps: stage boundaries, each one pass that equals the
  // reference loops of epilogue_sweep.h, which FixedNetwork runs
  // whenever a sweep returns false. Conv staging writes value x's k
  // bank outputs alphabets[l]·x lane-major as int32: lane l of value o
  // at slots[l·stride + o] (the accumulate_conv_int32 layout). Tile
  // staging writes element i of sample b itself, sample-minor as int16,
  // at tile[i·kDenseTile + b] (the accumulate_dense_tile layout);
  // callers hold int16_tile_chunk() ≥ 1, which proves every value in
  // the window fits. A sweep returns true, or returns false, its output
  // unspecified, where it does not run exactly (docs/backends.md lists
  // the declines: a window that fails StagingWindow::fits_int32() is
  // one, a staged value outside the window another). The base class
  // declines every case, so the scalar backend has no sweeps.

  /// Each pixel quantized to `format` (QFormat::quantize) and staged
  /// through `window`, pixel i as value i.
  [[nodiscard]] virtual bool stage_pixels(
      std::span<const float> /*pixels*/, const man::fixed::QFormat& /*format*/,
      const StagingWindow& /*window*/, std::int32_t* /*slots*/,
      std::size_t /*stride*/) const {
    return false;
  }

  /// Every input through `lut`, then each 2×2 window summed and its
  /// average rounded to nearest, half away from zero; pooled value o
  /// staged through `window` as value o.
  [[nodiscard]] virtual bool lut_pool2_stage(
      const std::int64_t* /*in*/, const Pool2Shape& /*shape*/,
      const man::core::FixedActivationLut::RawPath& /*lut*/,
      const StagingWindow& /*window*/, std::int32_t* /*slots*/,
      std::size_t /*stride*/) const {
    return false;
  }

  /// A tile's images: `pixels` holds kDenseTile samples of n values
  /// each, sample after sample; pixel i of sample b is quantized to
  /// `format` and staged, inside `window`, as element i of sample b.
  [[nodiscard]] virtual bool stage_pixels_tile(
      std::span<const float> /*pixels*/, const man::fixed::QFormat& /*format*/,
      const StagingWindow& /*window*/, std::int16_t* /*tile*/) const {
    return false;
  }

  /// A tile's accumulators through `lut`: acc[i·kDenseTile + b] (row i
  /// of sample b, `elements` rows, as accumulate_dense_tile writes
  /// them) is staged, inside `window`, as element i of sample b.
  [[nodiscard]] virtual bool lut_stage_tile(
      const std::int64_t* /*acc*/, std::size_t /*elements*/,
      const man::core::FixedActivationLut::RawPath& /*lut*/,
      const StagingWindow& /*window*/, std::int16_t* /*tile*/) const {
    return false;
  }
};

/// The process-wide instance of one backend kind.
[[nodiscard]] const KernelBackend& backend_for(BackendKind kind);

/// Every registered backend (all four kinds are always registered;
/// simd and avx512 may run a narrower tier than their cap).
[[nodiscard]] std::span<const KernelBackend* const> all_backends();

/// Best backend for this CPU: the cap of the widest tier CPUID
/// reports — avx512 with AVX-512F/VL/BW, else simd with AVX2, blocked
/// otherwise.
[[nodiscard]] BackendKind detect_best_backend();

/// Parses a MAN_BACKEND spelling ("scalar", "blocked", "simd",
/// "avx512"); throws std::invalid_argument on anything else.
[[nodiscard]] BackendKind parse_backend(std::string_view name);

/// The MAN_BACKEND environment override, if set. Unset, empty, or
/// "auto" yield nullopt; an unknown value throws
/// std::invalid_argument.
[[nodiscard]] std::optional<BackendKind> env_backend_override();

/// Selection with full precedence: `programmatic` beats MAN_BACKEND
/// beats detect_best_backend().
[[nodiscard]] BackendKind resolve_backend(
    std::optional<BackendKind> programmatic = std::nullopt);

/// resolve_backend() + backend_for() in one call.
[[nodiscard]] const KernelBackend& resolve(
    std::optional<BackendKind> programmatic = std::nullopt);

/// Backend names for diagnostics ("scalar|blocked|simd|avx512").
[[nodiscard]] std::string_view to_string(BackendKind kind) noexcept;

}  // namespace man::backend

#endif  // MAN_BACKEND_KERNEL_BACKEND_H
