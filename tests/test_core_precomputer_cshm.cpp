// Pre-computer bank structure (paper §III) and CSHM sharing (Fig 3).
#include "man/core/cshm_unit.h"
#include "man/core/precomputer_bank.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "man/fixed/qformat.h"
#include "man/util/rng.h"

namespace man::core {
namespace {

TEST(PrecomputerBank, ComputesExactMultiples) {
  const PrecomputerBank bank(AlphabetSet::full());
  for (std::int64_t input : {0LL, 1LL, -3LL, 100LL, -255LL, 4096LL}) {
    const auto multiples = bank.compute(input);
    ASSERT_EQ(multiples.size(), 8u);
    int expected = 1;
    for (std::size_t i = 0; i < multiples.size(); ++i, expected += 2) {
      EXPECT_EQ(multiples[i], expected * input)
          << "alphabet " << expected << " input " << input;
    }
  }
}

// Structural adder counts: {1} needs none, each further alphabet in
// the ladder costs exactly one shift-add given its predecessors.
TEST(PrecomputerBank, LadderAdderCounts) {
  EXPECT_EQ(PrecomputerBank(AlphabetSet::man()).adder_count(), 0);
  EXPECT_EQ(PrecomputerBank(AlphabetSet::two()).adder_count(), 1);
  EXPECT_EQ(PrecomputerBank(AlphabetSet::four()).adder_count(), 3);
  EXPECT_EQ(PrecomputerBank(AlphabetSet::full()).adder_count(), 7);
}

TEST(PrecomputerBank, BusCountEqualsAlphabetCount) {
  // Paper: "the number of communication buses ... is proportional to
  // the number of alphabets".
  for (std::size_t n = 1; n <= 8; ++n) {
    EXPECT_EQ(PrecomputerBank(AlphabetSet::first_n(n)).bus_count(),
              static_cast<int>(n));
  }
}

// Sparse sets that cannot be built in one step from {1} still
// synthesize correctly (via an intermediate helper multiple).
TEST(PrecomputerBank, SparseSetSynthesis) {
  const PrecomputerBank bank(AlphabetSet{1, 11});
  const auto multiples = bank.compute(7);
  ASSERT_EQ(multiples.size(), 2u);
  EXPECT_EQ(multiples[0], 7);
  EXPECT_EQ(multiples[1], 77);
  EXPECT_GE(bank.adder_count(), 1);
}

TEST(PrecomputerBank, AllSingletonSetsSynthesize) {
  for (int a = 1; a <= 15; a += 2) {
    const PrecomputerBank bank(AlphabetSet{a});
    EXPECT_EQ(bank.multiple_of(a, 13), 13 * a) << "alphabet " << a;
  }
}

TEST(PrecomputerBank, MultipleOfRejectsForeignAlphabet) {
  const PrecomputerBank bank(AlphabetSet::two());
  EXPECT_THROW((void)bank.multiple_of(5, 10), std::invalid_argument);
}

TEST(PrecomputerBank, CountsAdderActivations) {
  const PrecomputerBank bank(AlphabetSet::four());
  OpCounts counts;
  (void)bank.compute(42, counts);
  EXPECT_EQ(counts.precomputer_adds, 3u);
}

// --- PrecomputerCache: eagerly filled read-only table ---

// Every row of the table over the paper's activation window equals
// the bank's own multiples, for every alphabet-set size.
TEST(PrecomputerCacheTable, RowsMatchBankOverTheActivationWindow) {
  const man::fixed::QFormat window = man::fixed::QFormat::input8();
  for (std::size_t n = 1; n <= 8; ++n) {
    const PrecomputerBank bank(AlphabetSet::first_n(n));
    PrecomputerCache table(bank);
    table.configure_range(window.min_raw(), window.max_raw());
    OpCounts counts;
    for (std::int64_t v = window.min_raw(); v <= window.max_raw(); ++v) {
      const std::int64_t* row = table.lookup(v, counts);
      const auto expected = bank.compute(v);
      ASSERT_EQ(std::vector<std::int64_t>(row, row + n), expected)
          << "n=" << n << " input " << v;
    }
    // The bank ran when the table filled, not per lookup.
    EXPECT_EQ(counts.precomputer_adds, 0u);
  }
}

TEST(PrecomputerCacheTable, OutOfWindowLookupThrows) {
  const PrecomputerBank bank(AlphabetSet::two());
  OpCounts counts;
  const PrecomputerCache unconfigured(bank);
  EXPECT_THROW((void)unconfigured.lookup(0, counts), std::out_of_range);

  PrecomputerCache table(bank);
  table.configure_range(-10, 10);
  EXPECT_EQ(table.lookup(-10, counts)[1], -30);
  EXPECT_EQ(table.lookup(10, counts)[1], 30);
  // Extreme inputs must not wrap into the window.
  for (const std::int64_t input :
       {std::int64_t{-11}, std::int64_t{11},
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_THROW((void)table.lookup(input, counts), std::out_of_range)
        << "input " << input;
  }
}

TEST(PrecomputerCacheTable, RejectsBadWindows) {
  const PrecomputerBank bank(AlphabetSet::four());
  PrecomputerCache unbound;
  EXPECT_THROW(unbound.configure_range(0, 1), std::logic_error);
  PrecomputerCache table(bank);
  EXPECT_THROW(table.configure_range(1, 0), std::invalid_argument);
  EXPECT_THROW(
      table.configure_range(
          0, static_cast<std::int64_t>(PrecomputerCache::kMaxFlatSpan)),
      std::invalid_argument);
}

// Lookups never read the bank, so a filled table copied away from it
// keeps serving after the bank is gone.
TEST(PrecomputerCacheTable, FilledTableOutlivesItsBank) {
  PrecomputerCache copy;
  {
    const PrecomputerBank bank(AlphabetSet::full());
    PrecomputerCache table(bank);
    table.configure_range(-3, 3);
    copy = table;
  }
  OpCounts counts;
  const std::int64_t* row = copy.lookup(-3, counts);
  EXPECT_EQ(row[0], -3);
  EXPECT_EQ(row[7], -45);
}

// The bank is linear: its output l of x is alphabets[l]·x, for every
// odd alphabet subset of {1,…,15} AlphabetSet accepts, over the 6-, 8-
// and 10-fraction-bit activation windows and raw-accumulator
// magnitudes out to ±2^40. FixedNetwork stages by this rule.
TEST(PrecomputerBank, OutputsAreAlphabetTimesInputForEveryAlphabetSubset) {
  std::vector<std::int64_t> inputs;
  for (const man::fixed::QFormat format :
       {man::fixed::QFormat(8, 6), man::fixed::QFormat::input8(),
        man::fixed::QFormat(12, 10)}) {
    for (std::int64_t x = format.min_raw(); x <= format.max_raw(); ++x) {
      inputs.push_back(x);
    }
  }
  constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
  for (const std::int64_t magnitude :
       {kInt32Max, kInt32Max + 1, std::int64_t{1} << 40}) {
    for (const std::int64_t d : {-1, 0, 1}) {
      inputs.push_back(magnitude + d);
      inputs.push_back(-magnitude - d);
    }
  }
  std::int64_t out[8];
  OpCounts counts;
  for (unsigned mask = 1; mask < 256; ++mask) {
    std::vector<int> values;
    for (int bit = 0; bit < 8; ++bit) {
      if ((mask >> bit) & 1u) values.push_back(2 * bit + 1);
    }
    const PrecomputerBank bank{AlphabetSet(values)};
    const auto alphabets = bank.alphabet_set().alphabets();
    ASSERT_EQ(std::vector<int>(alphabets.begin(), alphabets.end()), values);
    for (const std::int64_t x : inputs) {
      bank.compute_into(x, out, counts);
      for (std::size_t l = 0; l < values.size(); ++l) {
        ASSERT_EQ(out[l], std::int64_t{alphabets[l]} * x)
            << bank.alphabet_set().to_string() << " x=" << x;
      }
    }
  }
}

// The structural network is a valid schedule for every odd alphabet
// subset of {1,…,15}: each step reads only multiples already available
// (1, or an earlier step's result), its (a<<sa) ± (b<<sb) equals its
// result, and every alphabet of the set is produced.
TEST(PrecomputerBank, StepsReadOnlyAvailableMultiplesForEveryAlphabetSubset) {
  for (unsigned mask = 1; mask < 256; ++mask) {
    std::vector<int> values;
    for (int bit = 0; bit < 8; ++bit) {
      if ((mask >> bit) & 1u) values.push_back(2 * bit + 1);
    }
    const PrecomputerBank bank{AlphabetSet(values)};
    SCOPED_TRACE(bank.alphabet_set().to_string());
    std::vector<int> available{1};
    for (const PrecomputeStep& step : bank.steps()) {
      const auto has = [&](int v) {
        return std::find(available.begin(), available.end(), v) !=
               available.end();
      };
      ASSERT_TRUE(has(step.operand_a)) << "reads " << step.operand_a;
      ASSERT_TRUE(has(step.operand_b)) << "reads " << step.operand_b;
      ASSERT_FALSE(has(step.result)) << "rebuilds " << step.result;
      const int lhs = step.operand_a << step.shift_a;
      const int rhs = step.operand_b << step.shift_b;
      ASSERT_EQ(step.subtract ? lhs - rhs : lhs + rhs, step.result);
      available.push_back(step.result);
    }
    for (const int v : values) {
      EXPECT_NE(std::find(available.begin(), available.end(), v),
                available.end())
          << "never produces " << v;
    }
  }
}

TEST(CshmUnit, SharesOneBankActivationAcrossLanes) {
  CshmUnit unit(QuartetLayout::bits8(), AlphabetSet::four(), 4);
  const std::vector<int> weights{3, -5, 48, 0};
  const auto products = unit.process(100, weights);
  ASSERT_EQ(products.size(), 4u);
  EXPECT_EQ(products[0], 300);
  EXPECT_EQ(products[1], -500);
  EXPECT_EQ(products[2], 4800);
  EXPECT_EQ(products[3], 0);
  // One input processed => exactly one bank activation (3 adders).
  EXPECT_EQ(unit.stats().inputs_processed, 1u);
  EXPECT_EQ(unit.stats().products_computed, 4u);
  EXPECT_EQ(unit.stats().ops.precomputer_adds, 3u);
}

TEST(CshmUnit, RejectsMoreWeightsThanLanes) {
  CshmUnit unit(QuartetLayout::bits8(), AlphabetSet::two(), 2);
  const std::vector<int> weights{1, 2, 3};
  EXPECT_THROW((void)unit.process(5, weights), std::invalid_argument);
}

TEST(CshmUnit, ProcessColumnHandlesArbitraryWeightCounts) {
  CshmUnit unit(QuartetLayout::bits8(), AlphabetSet::two(), 4);
  man::util::Rng rng(3);
  const WeightConstraint wc(QuartetLayout::bits8(), AlphabetSet::two());
  std::vector<int> weights;
  for (int i = 0; i < 10; ++i) {
    const auto& rep = wc.representable();
    const int mag = rep[static_cast<std::size_t>(
        rng.next_below(rep.size()))];
    weights.push_back(rng.next_bool() ? mag : -mag);
  }
  const auto products = unit.process_column(37, weights);
  ASSERT_EQ(products.size(), weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_EQ(products[i], static_cast<std::int64_t>(weights[i]) * 37);
  }
  EXPECT_EQ(unit.stats().inputs_processed, 1u);
  EXPECT_EQ(unit.stats().products_computed, 10u);
}

TEST(CshmUnit, StatsAccumulateAndReset) {
  CshmUnit unit(QuartetLayout::bits8(), AlphabetSet::man(), 4);
  const std::vector<int> weights{1, 2};
  (void)unit.process(5, weights);
  (void)unit.process(6, weights);
  EXPECT_EQ(unit.stats().inputs_processed, 2u);
  EXPECT_EQ(unit.stats().products_computed, 4u);
  unit.reset_stats();
  EXPECT_EQ(unit.stats().inputs_processed, 0u);
  EXPECT_EQ(unit.stats().products_computed, 0u);
}

TEST(CshmUnit, RejectsBadLaneCount) {
  EXPECT_THROW(CshmUnit(QuartetLayout::bits8(), AlphabetSet::man(), 0),
               std::invalid_argument);
  EXPECT_THROW(CshmUnit(QuartetLayout::bits8(), AlphabetSet::man(), 65),
               std::invalid_argument);
}

}  // namespace
}  // namespace man::core
