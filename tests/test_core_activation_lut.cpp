// Differential lock-down of the integer-only FixedActivationLut fast
// path against the seed double round-trip (apply_raw_reference): the
// two must agree bit for bit on every raw accumulator value the
// engine can feed the LUT. The sweeps below are exhaustive over the
// clamp window (everything beyond it is saturated and spot-checked
// out to the extremes) for every activation kind × accumulator
// QFormat × address_bits combination the registered apps use, plus
// seam/boundary coverage for formats outside that set and the
// constructor's rejection of LUTs whose integer path is unprovable.
#include "man/core/activation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "man/util/rng.h"

namespace man::core {
namespace {

using man::fixed::QFormat;

// Accumulator formats the apps reach: QFormat(30, wfrac + afrac) with
// 8-bit weights (Q1.6 × Q0.8 -> frac 14) and 12-bit weights
// (Q1.10 × Q0.8 -> frac 18); the engine's LUT output format is the
// activation format and address_bits is the default 10.
QFormat acc8() { return QFormat(30, 14); }
QFormat acc12() { return QFormat(30, 18); }

// Exhaustive agreement over [lo, hi] plus saturation samples outside.
void expect_identical_over(const FixedActivationLut& lut, std::int64_t lo,
                           std::int64_t hi) {
  for (std::int64_t raw = lo; raw <= hi; ++raw) {
    ASSERT_EQ(lut.apply_raw(raw), lut.apply_raw_reference(raw))
        << "raw=" << raw;
  }
  // Beyond the window everything saturates; probe out to the widest
  // accumulators the engine can produce and the int64 extremes.
  for (std::int64_t raw :
       {hi + 1, hi + 7, std::int64_t{1} << 29, std::int64_t{1} << 40,
        std::numeric_limits<std::int64_t>::max()}) {
    ASSERT_EQ(lut.apply_raw(raw), lut.apply_raw_reference(raw))
        << "raw=" << raw;
    ASSERT_EQ(lut.apply_raw(-raw), lut.apply_raw_reference(-raw))
        << "raw=" << -raw;
  }
}

TEST(FixedActivationLutInteger, ExhaustiveOverAppCombinations) {
  const QFormat out = QFormat::input8();
  for (const QFormat& acc : {acc8(), acc12()}) {
    for (ActivationKind kind :
         {ActivationKind::kTanh, ActivationKind::kSigmoid,
          ActivationKind::kRelu, ActivationKind::kIdentity}) {
      const FixedActivationLut lut(kind, acc, out, /*address_bits=*/10);
      // The window is [-8·2^frac, +8·2^frac]; sweep a margin past it.
      expect_identical_over(lut, lut.raw_clamp_lo() - 1024,
                            lut.raw_clamp_hi() + 1024);
    }
  }
}

// Every bucket seam of every app combination: the index formula's
// rounding must tip at exactly the same raw value as lround. (The
// exhaustive sweep above covers these too; this test names the
// failure mode precisely when it regresses.)
TEST(FixedActivationLutInteger, BucketSeamsAndClampEdges) {
  const QFormat out = QFormat::input8();
  for (const QFormat& acc : {acc8(), acc12()}) {
    const FixedActivationLut lut(ActivationKind::kTanh, acc, out, 10);
    const std::int64_t c = lut.raw_clamp_hi();
    const auto n_minus_1 =
        static_cast<std::int64_t>(lut.table_size()) - 1;
    for (std::int64_t i = 1; i <= n_minus_1; ++i) {
      // Raw value nearest the half-way point between buckets i-1, i.
      const auto seam = static_cast<std::int64_t>(
          ((2 * i - 1) * c + n_minus_1 / 2) / n_minus_1 - c);
      for (std::int64_t raw = seam - 2; raw <= seam + 2; ++raw) {
        ASSERT_EQ(lut.apply_raw(raw), lut.apply_raw_reference(raw))
            << "seam " << i << " raw=" << raw;
      }
    }
    for (std::int64_t delta = -2; delta <= 2; ++delta) {
      EXPECT_EQ(lut.apply_raw(-c + delta), lut.apply_raw_reference(-c + delta));
      EXPECT_EQ(lut.apply_raw(c + delta), lut.apply_raw_reference(c + delta));
    }
    EXPECT_EQ(lut.apply_raw(lut.raw_clamp_lo() - 1), lut.apply_raw(-c));
    EXPECT_EQ(lut.apply_raw(lut.raw_clamp_hi() + 1), lut.apply_raw(c));
  }
}

// The branch-free clamp: -C indexes entry 0 and +C entry N-1, so
// everything beyond them (one past each edge, and the int64 extremes,
// where an unclamped index would overflow) saturates exactly as the
// double path does.
TEST(FixedActivationLutInteger, ClampSaturatesAtTheInt64Extremes) {
  const QFormat out = QFormat::input8();
  for (const ActivationKind kind :
       {ActivationKind::kTanh, ActivationKind::kSigmoid,
        ActivationKind::kRelu, ActivationKind::kIdentity}) {
    for (const QFormat& acc : {acc8(), acc12()}) {
      const FixedActivationLut lut(kind, acc, out, 10);
      const std::int64_t c = lut.raw_clamp_hi();
      ASSERT_EQ(lut.raw_clamp_lo(), -c);
      const std::int32_t low = lut.apply_raw_reference(-c);
      const std::int32_t high = lut.apply_raw_reference(c);
      for (const std::int64_t raw :
           {std::numeric_limits<std::int64_t>::min(), -(c + 1), -c}) {
        EXPECT_EQ(lut.apply_raw(raw), low) << "raw=" << raw;
        EXPECT_EQ(lut.apply_raw(raw), lut.apply_raw_reference(raw))
            << "raw=" << raw;
      }
      for (const std::int64_t raw :
           {c, c + 1, std::numeric_limits<std::int64_t>::max()}) {
        EXPECT_EQ(lut.apply_raw(raw), high) << "raw=" << raw;
        EXPECT_EQ(lut.apply_raw(raw), lut.apply_raw_reference(raw))
            << "raw=" << raw;
      }
    }
  }
}

// Non-default address widths and coarse/fine fraction counts stay
// bit-identical too (exhaustive where the window is small, seam-dense
// sampling otherwise).
TEST(FixedActivationLutInteger, NonDefaultAddressBitsAndFormats) {
  const QFormat out = QFormat::input8();
  for (int address_bits : {4, 8, 12}) {
    for (const QFormat& acc :
         {QFormat(30, 6), QFormat(30, 14), QFormat(16, 10)}) {
      const FixedActivationLut lut(ActivationKind::kSigmoid, acc, out,
                                   address_bits);
      const std::int64_t window = lut.raw_clamp_hi() - lut.raw_clamp_lo();
      if (window <= (1 << 16)) {
        expect_identical_over(lut, lut.raw_clamp_lo() - 64,
                              lut.raw_clamp_hi() + 64);
      } else {
        man::util::Rng rng(77);
        for (int probe = 0; probe < 50000; ++probe) {
          const std::int64_t raw = rng.next_in(lut.raw_clamp_lo() - 1024,
                                               lut.raw_clamp_hi() + 1024);
          ASSERT_EQ(lut.apply_raw(raw), lut.apply_raw_reference(raw))
              << "raw=" << raw;
        }
      }
    }
  }
}

// A clip that is not a power of two breaks the exactness proof (the
// position division is no longer a shift): the constructor must
// reject the LUT rather than run a slower double path in production.
TEST(FixedActivationLutInteger, NonPowerOfTwoClipIsRejected) {
  EXPECT_THROW(FixedActivationLut(ActivationKind::kTanh, acc8(),
                                  QFormat::input8(), 10, /*clip=*/6.0),
               std::invalid_argument);
}

// A fractional clip whose raw-domain edge is not an integer
// (clip·2^frac < 1) is rejected too.
TEST(FixedActivationLutInteger, SubResolutionClipIsRejected) {
  EXPECT_THROW(FixedActivationLut(ActivationKind::kIdentity, QFormat(8, 0),
                                  QFormat::input8(), 4, /*clip=*/0.25),
               std::invalid_argument);
}

// Power-of-two clips other than the default 8.0 are provable too.
TEST(FixedActivationLutInteger, AlternatePowerOfTwoClips) {
  for (double clip : {2.0, 4.0, 16.0}) {
    const FixedActivationLut lut(ActivationKind::kTanh, QFormat(24, 10),
                                 QFormat::input8(), 8, clip);
    expect_identical_over(lut, lut.raw_clamp_lo() - 256,
                          lut.raw_clamp_hi() + 256);
  }
}

}  // namespace
}  // namespace man::core
