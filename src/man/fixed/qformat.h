// Signed fixed-point Q-format arithmetic: the numeric substrate of the
// hardware "processing engine" (paper §V). Weights are 8- or 12-bit
// two's-complement words; inputs are 8-bit; accumulation is wide.
//
// A QFormat describes a signed fixed-point encoding with `total_bits`
// bits overall (one of which is the sign) and `frac_bits` bits of
// fraction: real value = stored_integer / 2^frac_bits.
//
// The range is deliberately *symmetric*: [-(2^(n-1)-1), +(2^(n-1)-1)].
// Excluding -2^(n-1) keeps |w| within n-1 magnitude bits, which the ASM
// datapath requires (it multiplies the absolute value and applies the
// sign afterwards — paper §IV.A).
#ifndef MAN_FIXED_QFORMAT_H
#define MAN_FIXED_QFORMAT_H

#include <algorithm>
#include <cstdint>
#include <string>

namespace man::fixed {

/// Description of a signed fixed-point format (see file comment).
class QFormat {
 public:
  /// Constructs a format with `total_bits` in [2, 31] and
  /// `frac_bits` in [0, total_bits - 1]. Throws std::invalid_argument
  /// outside those ranges.
  QFormat(int total_bits, int frac_bits);

  /// Paper defaults: 8-bit weights are Q1.6, 12-bit weights are Q1.10
  /// (1 sign bit, 1 integer bit, rest fraction; range ±~1.98).
  [[nodiscard]] static QFormat weight8() { return QFormat(8, 6); }
  [[nodiscard]] static QFormat weight12() { return QFormat(12, 10); }
  /// Inputs are normalized pixel intensities in [0,1): Q0.8 stored in
  /// a signed 16-bit lane (sign always 0 for image data).
  [[nodiscard]] static QFormat input8() { return QFormat(9, 8); }

  [[nodiscard]] int total_bits() const noexcept { return total_bits_; }
  [[nodiscard]] int frac_bits() const noexcept { return frac_bits_; }
  [[nodiscard]] int integer_bits() const noexcept {
    return total_bits_ - frac_bits_ - 1;
  }

  /// Largest representable stored integer: 2^(total_bits-1) - 1.
  [[nodiscard]] std::int32_t max_raw() const noexcept { return max_raw_; }
  /// Smallest representable stored integer: -(2^(total_bits-1) - 1)
  /// (symmetric range; see file comment).
  [[nodiscard]] std::int32_t min_raw() const noexcept { return -max_raw_; }

  /// Real-value bounds.
  [[nodiscard]] double max_value() const noexcept {
    return static_cast<double>(max_raw_) / scale_;
  }
  [[nodiscard]] double min_value() const noexcept { return -max_value(); }
  /// Quantization step 2^-frac_bits.
  [[nodiscard]] double resolution() const noexcept { return 1.0 / scale_; }

  /// Quantizes a real value: round-to-nearest (ties away from zero),
  /// saturating to the representable range; NaN maps to 0. Clamping
  /// first keeps scaled ± 0.5 inside int32, so the truncating
  /// conversion equals floor(scaled + 0.5) / ceil(scaled - 0.5) bit
  /// for bit without a libm call (the engine quantizes every pixel).
  [[nodiscard]] std::int32_t quantize(double value) const noexcept {
    if (value != value) return 0;  // NaN
    const double limit = static_cast<double>(max_raw_);
    const double scaled = std::clamp(value * scale_, -limit, limit);
    return static_cast<std::int32_t>(scaled + (scaled >= 0.0 ? 0.5 : -0.5));
  }

  /// Reconstructs the real value of a stored integer.
  [[nodiscard]] double dequantize(std::int32_t raw) const noexcept {
    return static_cast<double>(raw) / scale_;
  }

  /// Round-trip: quantize then dequantize (the representable value
  /// nearest to `value`).
  [[nodiscard]] double round_trip(double value) const noexcept {
    return dequantize(quantize(value));
  }

  /// Saturates a wide integer to this format's raw range.
  [[nodiscard]] std::int32_t saturate(std::int64_t raw) const noexcept;

  /// e.g. "Q1.6 (8b)".
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const QFormat& a, const QFormat& b) noexcept {
    return a.total_bits_ == b.total_bits_ && a.frac_bits_ == b.frac_bits_;
  }

 private:
  int total_bits_;
  int frac_bits_;
  std::int32_t max_raw_;
  double scale_;
};

/// Rescales a product of two fixed-point numbers into a target format:
/// value semantics of (a_raw * b_raw) have frac = a.frac + b.frac; the
/// result is shifted (with round-to-nearest) into `target` and saturated.
[[nodiscard]] std::int32_t rescale_product(std::int64_t product_raw,
                                           const QFormat& a, const QFormat& b,
                                           const QFormat& target) noexcept;

}  // namespace man::fixed

#endif  // MAN_FIXED_QFORMAT_H
