#include "man/fixed/qformat.h"

#include <cmath>
#include <stdexcept>

namespace man::fixed {

QFormat::QFormat(int total_bits, int frac_bits)
    : total_bits_(total_bits), frac_bits_(frac_bits) {
  if (total_bits < 2 || total_bits > 31) {
    throw std::invalid_argument("QFormat: total_bits must be in [2,31], got " +
                                std::to_string(total_bits));
  }
  if (frac_bits < 0 || frac_bits > total_bits - 1) {
    throw std::invalid_argument(
        "QFormat: frac_bits must be in [0,total_bits-1], got " +
        std::to_string(frac_bits));
  }
  max_raw_ = (std::int32_t{1} << (total_bits - 1)) - 1;
  scale_ = std::ldexp(1.0, frac_bits);
}

std::int32_t QFormat::saturate(std::int64_t raw) const noexcept {
  if (raw > max_raw_) return max_raw_;
  if (raw < -static_cast<std::int64_t>(max_raw_)) return -max_raw_;
  return static_cast<std::int32_t>(raw);
}

std::string QFormat::to_string() const {
  // Built incrementally: GCC 12's -Wrestrict misfires on long
  // operator+ chains of std::string temporaries.
  std::string out = "Q";
  out += std::to_string(integer_bits());
  out += '.';
  out += std::to_string(frac_bits_);
  out += " (";
  out += std::to_string(total_bits_);
  out += "b)";
  return out;
}

std::int32_t rescale_product(std::int64_t product_raw, const QFormat& a,
                             const QFormat& b, const QFormat& target) noexcept {
  const int shift = a.frac_bits() + b.frac_bits() - target.frac_bits();
  std::int64_t value = product_raw;
  if (shift > 0) {
    // Round-to-nearest: add half the discarded weight before shifting.
    const std::int64_t half = std::int64_t{1} << (shift - 1);
    value = (value >= 0) ? ((value + half) >> shift)
                         : -((-value + half) >> shift);
  } else if (shift < 0) {
    value <<= -shift;
  }
  return target.saturate(value);
}

}  // namespace man::fixed
