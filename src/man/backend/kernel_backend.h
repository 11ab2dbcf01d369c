// Multi-backend quartet accumulation: the inner MAC loop of the
// fixed-point engine abstracted behind a KernelBackend interface, so
// the same compiled DenseLayerPlan can run on the extracted scalar
// reference, an auto-vectorizable blocked-scalar kernel, or explicit
// AVX2/AVX-512 SIMD kernels — all under one bit-exactness contract
// (every backend must produce accumulators identical to the scalar
// reference; the Fig 9 replay gate enforces this in CI).
//
// Selection: resolve() picks, in precedence order, a programmatic
// override (BatchOptions::backend), the MAN_BACKEND environment
// variable (scalar|blocked|simd|avx512; auto/unset defers), then CPU
// feature detection (AVX-512 when live, else AVX2-accelerated SIMD,
// blocked otherwise).
#ifndef MAN_BACKEND_KERNEL_BACKEND_H
#define MAN_BACKEND_KERNEL_BACKEND_H

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "man/backend/layer_plan.h"

namespace man::backend {

/// Registered quartet-accumulation kernels.
enum class BackendKind {
  kScalar,   ///< extracted reference loop, one weight at a time
             ///< over the SoA planes
  kBlocked,  ///< branch-free blocked-scalar loop over the SoA planes
  kSimd,     ///< AVX2 intrinsics (portable plane loop off x86-64 or
             ///< when the CPU lacks AVX2)
  kAvx512,   ///< AVX-512F/VL intrinsics, 16-lane int32 position
             ///< tiles for conv (portable plane loop off x86-64 or
             ///< when the CPU lacks AVX-512F/VL)
};

/// One implementation of the inner accumulation loops. Stateless and
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
  /// Human-readable variant description (e.g. which SIMD path is
  /// live on this CPU).
  [[nodiscard]] virtual const char* description() const noexcept = 0;
  /// True when this backend runs its accelerated code path (the SIMD
  /// backend reports false when it falls back to the portable loop).
  /// Every registered backend is always *runnable*.
  [[nodiscard]] virtual bool accelerated() const noexcept = 0;

  /// ASM quartet accumulation for one dense stage:
  /// out[r] = biases[r] + Σ_c sign · Σ_q multiples[idx] << shift.
  /// `multiples` holds plan.padded_multiples() slots (cols × k bank
  /// outputs plus the trailing zero slot, which must be 0).
  virtual void accumulate_dense(const DenseLayerPlan& plan,
                                const std::int64_t* multiples,
                                std::int64_t* out) const = 0;

  /// accumulate_dense over a tile of kDenseTile samples at once, laid
  /// out sample-minor in int32 lanes: slot s of sample b lives at
  /// tile[s·kDenseTile + b] (plan.padded_multiples() × kDenseTile
  /// values; the zero slot's kDenseTile lanes must be 0), and row r of
  /// sample b lands at out[r·kDenseTile + b]. Each plan entry is read
  /// once per tile and drives kDenseTile contiguous lanes — one zmm or
  /// two ymm — so the plan indices stay unchanged (the kernel scales
  /// them by kDenseTile) and vector kernels use plain loads where the
  /// per-sample kernel gathers. Products and Σ (p ^ sign) accumulate in
  /// int32; each row is widened to int64 before the bias and −Σ sign
  /// are added. Callers must hold int32_row_bound(plan, ...) ≤
  /// INT32_MAX for the staged inputs (FixedNetwork tiles only such
  /// plans); the scalar reference accumulates in int64 regardless.
  /// Bit-identical to kDenseTile accumulate_dense calls.
  virtual void accumulate_dense_tile(const DenseLayerPlan& plan,
                                     const std::int32_t* tile,
                                     std::int64_t* out) const = 0;

  /// Conventional exact dense stage:
  /// out[r] = biases[r] + Σ_c weights[r][c] · activations[c].
  virtual void exact_dense(const DenseLayerPlan& plan,
                           const std::int64_t* activations,
                           std::int64_t* out) const = 0;

  /// ASM quartet accumulation for one conv stage: for every filter r
  /// and output position p = (oy, ox),
  ///   out[r·P + p] = biases[r] + Σ_c sign · Σ_q
  ///       multiples[idx + oy·iw + ox] << shift
  /// (the position base is in element units — the lane-major layout
  /// strides by elements, not by k). `multiples` holds
  /// plan.padded_multiples() slots — k planes of ic·ih·iw bank
  /// outputs plus the trailing zero region, which must be 0.
  /// FixedNetwork calls it only for plans that do not fit int32
  /// lanes; the vector backends run the portable plane loop here.
  virtual void accumulate_conv(const ConvLayerPlan& plan,
                               const std::int64_t* multiples,
                               std::int64_t* out) const = 0;

  /// accumulate_conv over int32 multiples: the same lane-major layout,
  /// zero region and output. Vector kernels run 8 (ymm) or 16 (zmm)
  /// consecutive output positions per vector, accumulate products and
  /// Σ (p ^ sign) in int32, and widen each output to int64 where the
  /// bias and −Σ sign are added; they tile positions by one fixed
  /// register tile per ISA. Callers must hold int32_row_bound(plan,
  /// ...) ≤ INT32_MAX for the staged inputs (FixedNetwork routes only
  /// such plans here); the scalar reference accumulates in int64
  /// regardless. Bit-identical to accumulate_conv on the same values.
  virtual void accumulate_conv_int32(const ConvLayerPlan& plan,
                                     const std::int32_t* multiples,
                                     std::int64_t* out) const = 0;

  /// Conventional exact conv stage over the degenerate single-multiple
  /// plane: out[r·P + p] = biases[r] + Σ_c weights[r][c] ·
  /// activations[patch_elems[c] + oy·iw + ox].
  virtual void exact_conv(const ConvLayerPlan& plan,
                          const std::int64_t* activations,
                          std::int64_t* out) const = 0;
};

/// The process-wide instance of one backend kind.
[[nodiscard]] const KernelBackend& backend_for(BackendKind kind);

/// Every registered backend (all four kinds are always registered;
/// the SIMD/AVX-512 entries may be running their portable fallback).
[[nodiscard]] std::span<const KernelBackend* const> all_backends();

/// Best backend for this CPU: AVX-512 when its accelerated path
/// is live, else SIMD when accelerated, blocked otherwise.
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
