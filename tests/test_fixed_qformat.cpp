// Fixed-point Q-format arithmetic (paper §V numeric contract).
#include "man/fixed/qformat.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "man/util/rng.h"

namespace man::fixed {
namespace {

TEST(QFormat, PaperDefaultFormats) {
  const QFormat w8 = QFormat::weight8();
  EXPECT_EQ(w8.total_bits(), 8);
  EXPECT_EQ(w8.frac_bits(), 6);
  EXPECT_EQ(w8.max_raw(), 127);
  EXPECT_EQ(w8.min_raw(), -127);  // symmetric range
  EXPECT_NEAR(w8.max_value(), 127.0 / 64.0, 1e-12);
  EXPECT_NEAR(w8.resolution(), 1.0 / 64.0, 1e-12);

  const QFormat w12 = QFormat::weight12();
  EXPECT_EQ(w12.total_bits(), 12);
  EXPECT_EQ(w12.frac_bits(), 10);
  EXPECT_EQ(w12.max_raw(), 2047);

  EXPECT_EQ(QFormat::input8().max_raw(), 255);
}

TEST(QFormat, RejectsBadParameters) {
  EXPECT_THROW(QFormat(1, 0), std::invalid_argument);
  EXPECT_THROW(QFormat(32, 0), std::invalid_argument);
  EXPECT_THROW(QFormat(8, 8), std::invalid_argument);
  EXPECT_THROW(QFormat(8, -1), std::invalid_argument);
}

TEST(QFormat, QuantizeRoundsToNearest) {
  const QFormat fmt(8, 6);  // step 1/64
  EXPECT_EQ(fmt.quantize(0.0), 0);
  EXPECT_EQ(fmt.quantize(1.0 / 64.0), 1);
  EXPECT_EQ(fmt.quantize(1.4 / 64.0), 1);
  EXPECT_EQ(fmt.quantize(1.6 / 64.0), 2);
  EXPECT_EQ(fmt.quantize(-1.6 / 64.0), -2);
  // Half away from zero.
  EXPECT_EQ(fmt.quantize(1.5 / 64.0), 2);
  EXPECT_EQ(fmt.quantize(-1.5 / 64.0), -2);
}

TEST(QFormat, QuantizeSaturates) {
  const QFormat fmt(8, 6);
  EXPECT_EQ(fmt.quantize(100.0), 127);
  EXPECT_EQ(fmt.quantize(-100.0), -127);
  EXPECT_EQ(fmt.quantize(std::nan("")), 0);
}

// The quantizer before it dropped libm: floor/ceil of scaled ± 0.5,
// then saturation. QFormat::quantize clamps first and truncates; the
// two must agree bit for bit on every double.
std::int32_t quantize_with_floor(const QFormat& fmt, double value) {
  if (std::isnan(value)) return 0;
  const double scaled = std::ldexp(value, fmt.frac_bits());
  const double rounded = scaled >= 0.0 ? std::floor(scaled + 0.5)
                                       : std::ceil(scaled - 0.5);
  if (rounded >= static_cast<double>(fmt.max_raw())) return fmt.max_raw();
  if (rounded <= static_cast<double>(fmt.min_raw())) return fmt.min_raw();
  return static_cast<std::int32_t>(rounded);
}

TEST(QFormat, QuantizeMatchesTheFloorCeilFormula) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const QFormat& fmt : {QFormat(8, 6), QFormat(12, 10), QFormat(16, 8),
                             QFormat::input8()}) {
    const double step = fmt.resolution();
    std::vector<double> values = {0.0,  -0.0, std::nan(""), inf,
                                  -inf, 1e300, -1e300,
                                  0.49999999999999994, -0.49999999999999994,
                                  0.49999999999999994 * step,
                                  -0.49999999999999994 * step};
    // Ties at ±k.5 steps, across and past the range.
    for (int k = 0; k <= fmt.max_raw() + 2; ++k) {
      values.push_back((k + 0.5) * step);
      values.push_back(-(k + 0.5) * step);
    }
    // The nextafter neighbours of ±0.5 steps and of both range edges.
    for (const double edge : {0.5, 1.5, fmt.max_raw() - 0.5,
                              fmt.max_raw() + 0.5}) {
      for (const double sign : {1.0, -1.0}) {
        const double mid = sign * edge * step;
        values.push_back(std::nextafter(mid, inf));
        values.push_back(std::nextafter(mid, -inf));
        values.push_back(mid);
      }
    }
    man::util::Rng rng(2024 + static_cast<std::uint64_t>(fmt.total_bits()));
    const double span = 1.5 * fmt.max_value();
    for (int i = 0; i < 1'000'000; ++i) {
      values.push_back(rng.next_double_in(-span, span));
    }
    for (const double value : values) {
      ASSERT_EQ(fmt.quantize(value), quantize_with_floor(fmt, value))
          << fmt.to_string() << " value=" << value;
    }
  }
  // The largest double below half a step: scaled + 0.5 rounds up to
  // 1.0 in double, so it quantizes to 1 under both formulas.
  EXPECT_EQ(QFormat(8, 6).quantize(0.49999999999999994 / 64.0), 1);
  EXPECT_EQ(QFormat(8, 6).quantize(-0.49999999999999994 / 64.0), -1);
}

TEST(QFormat, RoundTripIsIdentityOnGrid) {
  const QFormat fmt(8, 6);
  for (int raw = -127; raw <= 127; ++raw) {
    const double value = fmt.dequantize(raw);
    EXPECT_EQ(fmt.quantize(value), raw);
    EXPECT_EQ(fmt.round_trip(value), value);
  }
}

TEST(QFormat, RoundTripErrorBoundedByHalfStep) {
  const QFormat fmt(12, 10);
  for (double v = -1.9; v <= 1.9; v += 0.0137) {
    EXPECT_LE(std::abs(fmt.round_trip(v) - v), fmt.resolution() / 2 + 1e-12);
  }
}

TEST(QFormat, SaturateClampsWideValues) {
  const QFormat fmt(8, 6);
  EXPECT_EQ(fmt.saturate(1000), 127);
  EXPECT_EQ(fmt.saturate(-1000), -127);
  EXPECT_EQ(fmt.saturate(55), 55);
}

TEST(QFormat, ToStringDescribesFormat) {
  EXPECT_EQ(QFormat(8, 6).to_string(), "Q1.6 (8b)");
  EXPECT_EQ(QFormat(12, 10).to_string(), "Q1.10 (12b)");
}

TEST(RescaleProduct, ShiftsWithRounding) {
  const QFormat a(8, 6), b(9, 8);
  const QFormat target(16, 8);
  // product frac = 14, target frac = 8 -> shift right 6 w/ rounding.
  EXPECT_EQ(rescale_product(64, a, b, target), 1);    // 64 >> 6 = 1
  EXPECT_EQ(rescale_product(95, a, b, target), 1);    // round down (95 < 96)
  EXPECT_EQ(rescale_product(96, a, b, target), 2);    // round to nearest (up)
  EXPECT_EQ(rescale_product(-96, a, b, target), -2);  // symmetric
}

TEST(RescaleProduct, SaturatesAtTargetRange) {
  const QFormat a(8, 6), b(9, 8);
  const QFormat target(8, 0);
  EXPECT_EQ(rescale_product(1LL << 40, a, b, target), target.max_raw());
  EXPECT_EQ(rescale_product(-(1LL << 40), a, b, target), target.min_raw());
}

TEST(RescaleProduct, UpshiftWhenTargetFinner) {
  const QFormat a(4, 0), b(4, 0);
  const QFormat target(16, 4);
  EXPECT_EQ(rescale_product(3, a, b, target), 48);  // 3 << 4
}

}  // namespace
}  // namespace man::fixed
