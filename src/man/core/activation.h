// Activation functions, in both floating point (training) and
// LUT-based fixed point (the hardware processing engine). The paper's
// neurons are soft-limiting (§II); hardware implementations realize
// sigmoid/tanh as a small ROM lookup, which is what FixedActivationLut
// models.
#ifndef MAN_CORE_ACTIVATION_H
#define MAN_CORE_ACTIVATION_H

#include <cstdint>
#include <string>
#include <vector>

#include "man/fixed/qformat.h"

namespace man::core {

/// Supported activation nonlinearities.
enum class ActivationKind {
  kIdentity,
  kSigmoid,  ///< logistic 1/(1+e^-x)
  kTanh,
  kRelu,
};

/// Float-domain evaluation (used by training).
[[nodiscard]] double activate(ActivationKind kind, double x) noexcept;

/// Derivative expressed in terms of the *output* y = activate(x),
/// which is how backprop consumes it (sigmoid': y(1-y), tanh': 1-y²,
/// relu': y>0, identity': 1).
[[nodiscard]] double activate_derivative_from_output(ActivationKind kind,
                                                     double y) noexcept;

[[nodiscard]] std::string to_string(ActivationKind kind);

/// ROM-lookup activation for the fixed-point engine.
///
/// The input (a wide accumulator value in `input_format`) is saturated
/// to a clip range, quantized to an address, and mapped through a
/// table precomputed from the float function; the entry is the output
/// in `output_format`. This reproduces the value-discretization a
/// hardware LUT introduces, so engine results carry the same error
/// sources as the RTL.
///
/// Address arithmetic runs on an **integer-only fast path** whenever
/// exact equivalence with the original double round-trip can be
/// established at construction (clip·2^frac integral, power-of-two
/// clip so the position division is exact, and a bit budget keeping
/// every intermediate double exact — then the derived clamp window +
/// multiply/divide index formula is additionally probe-verified at
/// every bucket seam). Otherwise apply_raw() falls back to the
/// reference double path; either way the returned entries are
/// bit-identical, which the exhaustive differential test locks down.
class FixedActivationLut {
 public:
  /// `address_bits` table entries cover inputs in [-clip, +clip]
  /// (clip chosen so sigmoid/tanh saturate: 8.0).
  FixedActivationLut(ActivationKind kind, man::fixed::QFormat input_format,
                     man::fixed::QFormat output_format, int address_bits = 10,
                     double clip = 8.0);

  [[nodiscard]] ActivationKind kind() const noexcept { return kind_; }
  [[nodiscard]] const man::fixed::QFormat& input_format() const noexcept {
    return input_format_;
  }
  [[nodiscard]] const man::fixed::QFormat& output_format() const noexcept {
    return output_format_;
  }
  [[nodiscard]] std::size_t table_size() const noexcept {
    return table_.size();
  }

  /// Maps a raw accumulator value (in input_format scaling, but
  /// allowed to exceed its range — the LUT clips) to the raw output.
  [[nodiscard]] std::int32_t apply_raw(
      std::int64_t accumulator_raw) const noexcept {
    if (integer_path_) {
      if (accumulator_raw <= raw_clamp_lo_) return table_.front();
      if (accumulator_raw >= raw_clamp_hi_) return table_.back();
      // round-half-up of (raw + C)·(N-1) / 2C, all exact in int64 —
      // the bit-for-bit image of lround(position · (N-1)). 2C is a
      // power of two and the numerator is positive inside the clamp,
      // so the division is a shift.
      const std::int64_t index =
          ((accumulator_raw + clip_raw_) * index_scale_ + clip_raw_) >>
          index_shift_;
      return table_[static_cast<std::size_t>(index)];
    }
    return apply_raw_reference(accumulator_raw);
  }

  /// The original double round-trip (resolution multiply, clamp,
  /// position, lround) — the reference the integer path must equal
  /// bit for bit. Public so differential tests can compare the two
  /// paths over the entire reachable accumulator range.
  [[nodiscard]] std::int32_t apply_raw_reference(
      std::int64_t accumulator_raw) const noexcept;

  /// True when apply_raw() runs the integer-only index arithmetic.
  [[nodiscard]] bool integer_path_enabled() const noexcept {
    return integer_path_;
  }
  /// Raw-domain clamp window of the integer path: inputs ≤ lo map to
  /// table.front(), ≥ hi to table.back(). Meaningful only when
  /// integer_path_enabled().
  [[nodiscard]] std::int64_t raw_clamp_lo() const noexcept {
    return raw_clamp_lo_;
  }
  [[nodiscard]] std::int64_t raw_clamp_hi() const noexcept {
    return raw_clamp_hi_;
  }
  [[nodiscard]] double clip() const noexcept { return clip_; }

  /// Float convenience: dequantized apply_raw(quantize(x)).
  [[nodiscard]] double apply(double x) const noexcept;

 private:
  /// Derives the integer index arithmetic and enables it when exact
  /// equivalence with the double path is provable (and seam-verified).
  void build_integer_path();

  ActivationKind kind_;
  man::fixed::QFormat input_format_;
  man::fixed::QFormat output_format_;
  double clip_;
  std::vector<std::int32_t> table_;
  // Integer fast path (valid when integer_path_):
  bool integer_path_ = false;
  std::int64_t clip_raw_ = 0;      ///< C = clip · 2^frac (exact)
  int index_shift_ = 0;            ///< log2(2C)
  std::int64_t index_scale_ = 0;   ///< N - 1
  std::int64_t raw_clamp_lo_ = 0;  ///< -C
  std::int64_t raw_clamp_hi_ = 0;  ///< +C
};

}  // namespace man::core

#endif  // MAN_CORE_ACTIVATION_H
