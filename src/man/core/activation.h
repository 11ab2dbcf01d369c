// Activation functions, in both floating point (training) and
// LUT-based fixed point (the hardware processing engine). The paper's
// neurons are soft-limiting (§II); hardware implementations realize
// sigmoid/tanh as a small ROM lookup, which is what FixedActivationLut
// models.
#ifndef MAN_CORE_ACTIVATION_H
#define MAN_CORE_ACTIVATION_H

#include <algorithm>
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
/// Address arithmetic is integer-only: the constructor proves it
/// equal to the original double round-trip (clip·2^frac a power-of-two
/// integer, so the position division is exact, and a bit budget that
/// keeps every intermediate double exact), probes every bucket seam,
/// and throws std::invalid_argument when either fails. Every LUT the
/// engine and Neuron build (clip 8.0, 10 address bits) is provable; the
/// double path survives only as apply_raw_reference(), the test
/// oracle the exhaustive differential test compares against.
class FixedActivationLut {
 public:
  /// `address_bits` table entries cover inputs in [-clip, +clip]
  /// (clip chosen so sigmoid/tanh saturate: 8.0). Throws
  /// std::invalid_argument when the integer address path cannot be
  /// proven equal to apply_raw_reference() for these parameters.
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

  /// The integer address path by value: apply_raw()'s arithmetic over
  /// a pointer to the table, for loops that keep it in registers
  /// (stores through an int32 or int64 pointer cannot alias a copy).
  /// Valid while the LUT lives.
  struct RawPath {
    const std::int32_t* table;
    std::int64_t clip_raw;     ///< C = clip · 2^frac (exact)
    std::int64_t index_scale;  ///< N - 1
    int index_shift;           ///< log2(2C)

    [[nodiscard]] std::int32_t operator()(
        std::int64_t accumulator_raw) const noexcept {
      // Branch-free clamp to [-C, +C]: the edges index 0 and N-1
      // exactly, as the saturated inputs beyond them must.
      const std::int64_t clamped =
          std::min(std::max(accumulator_raw, -clip_raw), clip_raw);
      // round-half-up of (raw + C)·(N-1) / 2C, all exact in int64 —
      // the bit-for-bit image of lround(position · (N-1)). 2C is a
      // power of two and the numerator is non-negative inside the
      // clamp, so the division is a shift.
      const std::int64_t index =
          ((clamped + clip_raw) * index_scale + clip_raw) >> index_shift;
      return table[index];
    }
  };
  [[nodiscard]] RawPath raw_path() const noexcept {
    return RawPath{table_.data(), clip_raw_, index_scale_, index_shift_};
  }

  /// Maps a raw accumulator value (in input_format scaling, but
  /// allowed to exceed its range — the LUT clips) to the raw output.
  [[nodiscard]] std::int32_t apply_raw(
      std::int64_t accumulator_raw) const noexcept {
    return raw_path()(accumulator_raw);
  }

  /// The original double round-trip (resolution multiply, clamp,
  /// position, lround) — the reference the integer path must equal
  /// bit for bit. Test oracle only: public so differential tests can
  /// compare the two paths over the entire reachable accumulator
  /// range.
  [[nodiscard]] std::int32_t apply_raw_reference(
      std::int64_t accumulator_raw) const noexcept;

  /// Raw-domain clamp window of the integer path: inputs ≤ lo map to
  /// table.front(), ≥ hi to table.back().
  [[nodiscard]] std::int64_t raw_clamp_lo() const noexcept {
    return -clip_raw_;
  }
  [[nodiscard]] std::int64_t raw_clamp_hi() const noexcept {
    return clip_raw_;
  }
  [[nodiscard]] double clip() const noexcept { return clip_; }

  /// Float convenience: dequantized apply_raw(quantize(x)).
  [[nodiscard]] double apply(double x) const noexcept;

 private:
  /// Derives the integer index arithmetic; false when exact
  /// equivalence with the double path is not provable or a seam probe
  /// disagrees.
  [[nodiscard]] bool build_integer_path();

  ActivationKind kind_;
  man::fixed::QFormat input_format_;
  man::fixed::QFormat output_format_;
  double clip_;
  std::vector<std::int32_t> table_;
  // Integer address path:
  std::int64_t clip_raw_ = 0;      ///< C = clip · 2^frac (exact)
  int index_shift_ = 0;            ///< log2(2C)
  std::int64_t index_scale_ = 0;   ///< N - 1
};

}  // namespace man::core

#endif  // MAN_CORE_ACTIVATION_H
