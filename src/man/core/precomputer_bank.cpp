#include "man/core/precomputer_bank.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace man::core {

namespace {

/// One two-operand step (b << sb) ± (c << sc) == target over the
/// `available` multiples: the first hit in (b, sb, c, sc) order, the
/// sum tried before the difference.
std::optional<PrecomputeStep> one_step(int target,
                                       const std::vector<int>& available) {
  constexpr int kLimit = 2 * AlphabetSet::kMaxAlphabetValue;
  for (int b : available) {
    for (int sb = 0; (b << sb) <= kLimit; ++sb) {
      for (int c : available) {
        for (int sc = 0; (c << sc) <= kLimit; ++sc) {
          if ((b << sb) + (c << sc) == target) {
            return PrecomputeStep{target, b, sb, c, sc, false};
          }
          if ((b << sb) - (c << sc) == target) {
            return PrecomputeStep{target, b, sb, c, sc, true};
          }
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace

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
    if (const auto step = one_step(target, available)) {
      steps_.push_back(*step);
      available.push_back(target);
      continue;
    }
    // Two-step fallback (only reachable for sparse sets like {1,11}
    // where no single combination of available multiples works):
    // synthesize an intermediate odd helper first, itself one step
    // from the available multiples.
    bool placed = false;
    for (int helper = 3; helper <= AlphabetSet::kMaxAlphabetValue && !placed;
         helper += 2) {
      if (std::find(available.begin(), available.end(), helper) !=
          available.end()) {
        continue;
      }
      const auto helper_step = one_step(helper, available);
      if (!helper_step) continue;
      std::vector<int> extended = available;
      extended.push_back(helper);
      const auto target_step = one_step(target, extended);
      if (!target_step) continue;
      steps_.push_back(*helper_step);
      steps_.push_back(*target_step);
      available.push_back(helper);
      available.push_back(target);
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
  table_ = std::move(table);
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
