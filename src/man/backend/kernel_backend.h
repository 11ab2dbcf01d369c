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

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "man/backend/layer_plan.h"

namespace man::backend {

/// Registered accumulation kernels. The three vector kinds are caps:
/// each runs the widest vector tier at or below its cap that CPUID
/// reports.
enum class BackendKind {
  kScalar,   ///< extracted reference loop, one row at a time over the
             ///< groups (a conv row once per output position)
  kBlocked,  ///< the portable tier: 16-byte vectors at the default
             ///< ISA, the only vector code that runs off x86-64
  kSimd,     ///< AVX2's 32-byte vectors (portable without AVX2)
  kAvx512,   ///< AVX-512F/VL's 64-byte vectors (AVX2's without
             ///< AVX-512F/VL, portable without either)
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
  /// Human-readable variant description (for a vector backend, the
  /// tier live on this CPU under its cap).
  [[nodiscard]] virtual const char* description() const noexcept = 0;
  /// True when this backend runs a vector tier above the portable one
  /// (AVX2 or AVX-512). Every registered backend is always *runnable*.
  [[nodiscard]] virtual bool accelerated() const noexcept = 0;

  /// ASM accumulation for one dense stage, group by group:
  /// out[r] = biases[r] + Σ_g ±(Σ_t multiples[idx[t]]) << shifts[g].
  /// `multiples` holds plan.padded_multiples() slots (cols × k bank
  /// outputs, k-strided).
  virtual void accumulate_dense(const DenseLayerPlan& plan,
                                const std::int64_t* multiples,
                                std::int64_t* out) const = 0;

  /// accumulate_dense over a tile of kDenseTile samples at once, laid
  /// out sample-minor in int32 lanes: slot s of sample b lives at
  /// tile[s·kDenseTile + b] (plan.padded_multiples() × kDenseTile
  /// values), and row r of sample b lands at out[r·kDenseTile + b].
  /// Each term is read once per tile and adds kDenseTile contiguous
  /// lanes — one 64-byte vector, two 32-byte or four 16-byte ones — so
  /// the plan indices stay unchanged
  /// (the kernel scales them by kDenseTile) and vector kernels use
  /// plain loads where the per-sample kernel gathers. Group sums and
  /// the row accumulate in int32; each group is shifted once, and each
  /// row is widened to int64 before the bias is added. Callers must
  /// hold int32_row_bound(plan, ...) ≤
  /// INT32_MAX for the staged inputs (FixedNetwork tiles only such
  /// plans); the scalar reference accumulates in int64 regardless.
  /// Bit-identical to kDenseTile accumulate_dense calls.
  virtual void accumulate_dense_tile(const DenseLayerPlan& plan,
                                     const std::int32_t* tile,
                                     std::int64_t* out) const = 0;

  /// ASM accumulation for one conv stage, group by group: for every
  /// filter r and output position p = (oy, ox),
  ///   out[r·P + p] = biases[r] + Σ_g ±(Σ_t
  ///       multiples[idx[t] + oy·iw + ox]) << shifts[g]
  /// (the position base is in element units — the lane-major layout
  /// strides by elements, not by k). `multiples` holds
  /// plan.padded_multiples() slots — k lanes of ic·ih·iw bank
  /// outputs. FixedNetwork calls it only for plans that do not fit
  /// int32 lanes. The vector backend runs accumulate_conv_int32's
  /// register tiles over int64 lanes here: one template serves both.
  virtual void accumulate_conv(const ConvLayerPlan& plan,
                               const std::int64_t* multiples,
                               std::int64_t* out) const = 0;

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
};

/// The process-wide instance of one backend kind.
[[nodiscard]] const KernelBackend& backend_for(BackendKind kind);

/// Every registered backend (all four kinds are always registered;
/// simd and avx512 may run a narrower tier than their cap).
[[nodiscard]] std::span<const KernelBackend* const> all_backends();

/// Best backend for this CPU: the cap of the widest tier CPUID
/// reports — avx512 with AVX-512F/VL, else simd with AVX2, blocked
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
