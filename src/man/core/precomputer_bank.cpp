#include "man/core/precomputer_bank.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace man::core {

PrecomputerBank::PrecomputerBank(AlphabetSet set) : set_(std::move(set)) {
  build_structural_network();
}

void PrecomputerBank::build_structural_network() {
  // Greedy synthesis: alphabets are built in ascending order; each new
  // alphabet is expressed as (b << sb) ± (c << sc) over the multiples
  // already available ({1} plus earlier alphabets). Every alphabet in
  // [3,15] is reachable in one such step once its predecessors exist,
  // and in at most two steps from {1} alone; the search below covers
  // both cases.
  std::vector<int> available{1};
  for (Alphabet a : set_.alphabets()) {
    const int target = a;
    if (target == 1) continue;

    const auto try_two_operand = [&](int& out_b, int& out_sb, int& out_c,
                                     int& out_sc, bool& out_sub) {
      for (int b : available) {
        for (int sb = 0; (b << sb) <= 2 * AlphabetSet::kMaxAlphabetValue;
             ++sb) {
          for (int c : available) {
            for (int sc = 0; (c << sc) <= 2 * AlphabetSet::kMaxAlphabetValue;
                 ++sc) {
              if ((b << sb) + (c << sc) == target) {
                out_b = b; out_sb = sb; out_c = c; out_sc = sc;
                out_sub = false;
                return true;
              }
              if ((b << sb) - (c << sc) == target) {
                out_b = b; out_sb = sb; out_c = c; out_sc = sc;
                out_sub = true;
                return true;
              }
            }
          }
        }
      }
      return false;
    };

    int b = 0, sb = 0, c = 0, sc = 0;
    bool sub = false;
    if (try_two_operand(b, sb, c, sc, sub)) {
      steps_.push_back(PrecomputeStep{target, b, sb, c, sc, sub});
      available.push_back(target);
      continue;
    }
    // Two-step fallback (only reachable for sparse sets like {1,11}
    // where no single combination of available multiples works):
    // synthesize an intermediate odd helper first.
    bool placed = false;
    for (int helper = 3; helper <= AlphabetSet::kMaxAlphabetValue && !placed;
         helper += 2) {
      if (std::find(available.begin(), available.end(), helper) !=
          available.end()) {
        continue;
      }
      // helper must itself be one step from available.
      std::vector<int> extended = available;
      int hb = 0, hsb = 0, hc = 0, hsc = 0;
      bool hsub = false;
      const int saved_target = target;
      // Try helper construction.
      const auto build = [&](int tgt, std::vector<int>& avail, int& ob,
                             int& osb, int& oc, int& osc, bool& osub) {
        for (int bb : avail) {
          for (int sbb = 0; (bb << sbb) <= 2 * AlphabetSet::kMaxAlphabetValue;
               ++sbb) {
            for (int cc : avail) {
              for (int scc = 0;
                   (cc << scc) <= 2 * AlphabetSet::kMaxAlphabetValue; ++scc) {
                if ((bb << sbb) + (cc << scc) == tgt) {
                  ob = bb; osb = sbb; oc = cc; osc = scc; osub = false;
                  return true;
                }
                if ((bb << sbb) - (cc << scc) == tgt) {
                  ob = bb; osb = sbb; oc = cc; osc = scc; osub = true;
                  return true;
                }
              }
            }
          }
        }
        return false;
      };
      if (!build(helper, extended, hb, hsb, hc, hsc, hsub)) continue;
      extended.push_back(helper);
      int tb = 0, tsb = 0, tc = 0, tsc = 0;
      bool tsub = false;
      if (!build(saved_target, extended, tb, tsb, tc, tsc, tsub)) continue;
      steps_.push_back(PrecomputeStep{helper, hb, hsb, hc, hsc, hsub});
      steps_.push_back(PrecomputeStep{saved_target, tb, tsb, tc, tsc, tsub});
      available.push_back(helper);
      available.push_back(saved_target);
      placed = true;
    }
    if (!placed) {
      throw std::logic_error("PrecomputerBank: cannot synthesize alphabet " +
                             std::to_string(target));
    }
  }
}

std::vector<std::int64_t> PrecomputerBank::compute(std::int64_t input) const {
  OpCounts scratch;
  return compute(input, scratch);
}

std::vector<std::int64_t> PrecomputerBank::compute(std::int64_t input,
                                                   OpCounts& counts) const {
  std::vector<std::int64_t> out(set_.size());
  compute_into(input, out.data(), counts);
  return out;
}

void PrecomputerBank::compute_into(std::int64_t input, std::int64_t* out,
                                   OpCounts& counts) const {
  // Evaluate the structural network exactly as hardware would: each
  // step reads previously produced multiples, shifts, and adds.
  std::int64_t multiples_by_value[AlphabetSet::kMaxAlphabetValue + 1] = {};
  multiples_by_value[1] = input;
  for (const PrecomputeStep& step : steps_) {
    const std::int64_t lhs = multiples_by_value[step.operand_a]
                             << step.shift_a;
    const std::int64_t rhs = multiples_by_value[step.operand_b]
                             << step.shift_b;
    multiples_by_value[step.result] = step.subtract ? lhs - rhs : lhs + rhs;
    counts.precomputer_adds += 1;
  }
  std::size_t i = 0;
  for (Alphabet a : set_.alphabets()) out[i++] = multiples_by_value[a];
}

std::int64_t PrecomputerBank::multiple_of(int alphabet,
                                          std::int64_t input) const {
  if (!set_.contains(alphabet)) {
    throw std::invalid_argument("PrecomputerBank: alphabet " +
                                std::to_string(alphabet) + " not in set " +
                                set_.to_string());
  }
  OpCounts scratch;
  const auto multiples = compute(input, scratch);
  const auto alphabets = set_.alphabets();
  for (std::size_t i = 0; i < alphabets.size(); ++i) {
    if (alphabets[i] == alphabet) return multiples[i];
  }
  throw std::logic_error("PrecomputerBank: alphabet lookup failed");
}

void PrecomputerCache::configure_range(std::int64_t min_raw,
                                       std::int64_t max_raw) {
  if (bank_ == nullptr) {
    throw std::logic_error(
        "PrecomputerCache: configure_range on unbound cache");
  }
  if (min_raw > max_raw) {
    throw std::invalid_argument(
        "PrecomputerCache: empty range [" + std::to_string(min_raw) + ", " +
        std::to_string(max_raw) + "]");
  }
  const std::uint64_t span = static_cast<std::uint64_t>(max_raw) -
                             static_cast<std::uint64_t>(min_raw) + 1;
  if (span > kMaxFlatSpan) {
    throw std::invalid_argument(
        "PrecomputerCache: range spans " + std::to_string(span) +
        " values, cap is " + std::to_string(kMaxFlatSpan));
  }
  const std::size_t k = bank_->alphabet_set().size();
  std::vector<std::int64_t> table(static_cast<std::size_t>(span) * k);
  OpCounts discard;
  for (std::uint64_t offset = 0; offset < span; ++offset) {
    bank_->compute_into(min_raw + static_cast<std::int64_t>(offset),
                        table.data() + offset * k, discard);
  }
  // The in-register proof: every entry is its alphabet times the input
  // and fits int32, so a sweep may multiply in int32 lanes instead. An
  // input outside int32 fails it before the multiply could overflow
  // (every alphabet is at least 1).
  constexpr std::int64_t kLo = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kHi = std::numeric_limits<std::int32_t>::max();
  const auto alphabets = bank_->alphabet_set().alphabets();
  bool in_register = true;
  for (std::uint64_t offset = 0; offset < span && in_register; ++offset) {
    const std::int64_t x = min_raw + static_cast<std::int64_t>(offset);
    in_register = x >= kLo && x <= kHi;
    for (std::size_t l = 0; l < k && in_register; ++l) {
      const std::int64_t entry = table[offset * k + l];
      in_register = entry == std::int64_t{alphabets[l]} * x && entry >= kLo &&
                    entry <= kHi;
    }
  }
  table_ = std::move(table);
  alphabets_.clear();
  if (in_register) alphabets_.assign(alphabets.begin(), alphabets.end());
  min_raw_ = min_raw;
  span_ = span;
  k_ = k;
}

void PrecomputerCache::throw_out_of_window(std::int64_t input,
                                           std::uint64_t span) {
  throw std::out_of_range(
      "PrecomputerCache: input " + std::to_string(input) +
      " outside the table window of " + std::to_string(span) + " values");
}

}  // namespace man::core
