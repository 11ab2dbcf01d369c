// Pre-computer bank: generates the alphabet multiples a·I of the
// multiplier input I (paper §III, Figs 2-3). In hardware each alphabet
// beyond 1 costs shift-and-add/sub stages; the bank's outputs are
// broadcast over one bus per alphabet to the ASM lanes that share it.
//
// The emulation computes the exact multiples, and additionally derives
// the *structural* adder network a synthesizer would build (used by the
// hardware cost model): each alphabet is formed from already-available
// multiples by a minimal number of two-operand add/sub steps, e.g.
//   3I = (I<<1) + I     5I = (I<<2) + I     7I = (I<<3) - I
//   9I = (I<<3) + I     11I = (3I<<1) + 5I  13I = (5I<<1) + 3I
//   15I = (I<<4) - I
// so the full 8-alphabet set needs 7 adders, {1,3} needs 1, {1} none.
#ifndef MAN_CORE_PRECOMPUTER_BANK_H
#define MAN_CORE_PRECOMPUTER_BANK_H

#include <cstdint>
#include <vector>

#include "man/core/alphabet_set.h"
#include "man/core/op_counts.h"

namespace man::core {

/// One shift-add step of the structural alphabet network.
struct PrecomputeStep {
  int result;        ///< alphabet value produced (odd, 3..15)
  int operand_a;     ///< available multiple (1 or earlier alphabet)
  int shift_a;       ///< left shift applied to operand_a
  int operand_b;     ///< second operand (0 when unused)
  int shift_b;       ///< left shift applied to operand_b
  bool subtract;     ///< result = (a<<sa) - (b<<sb) instead of +
};

/// Emulates the pre-computer bank for one alphabet set.
class PrecomputerBank {
 public:
  explicit PrecomputerBank(AlphabetSet set);

  [[nodiscard]] const AlphabetSet& alphabet_set() const noexcept {
    return set_;
  }

  /// The multiples a·I for every alphabet a, in set order. Counts one
  /// adder activation per structural step into `counts` when given.
  [[nodiscard]] std::vector<std::int64_t> compute(std::int64_t input) const;
  [[nodiscard]] std::vector<std::int64_t> compute(std::int64_t input,
                                                  OpCounts& counts) const;

  /// Allocation-free variant: writes alphabet_set().size() multiples
  /// into `out` (caller-sized). The workhorse behind PrecomputerCache
  /// and the engine's staging of raw-accumulator inputs.
  void compute_into(std::int64_t input, std::int64_t* out,
                    OpCounts& counts) const;

  /// a·I for a single alphabet; throws std::invalid_argument if a is
  /// not in the set.
  [[nodiscard]] std::int64_t multiple_of(int alphabet,
                                         std::int64_t input) const;

  /// Number of two-operand add/sub units in the structural network.
  [[nodiscard]] int adder_count() const noexcept {
    return static_cast<int>(steps_.size());
  }

  /// Number of broadcast buses out of the bank (== number of
  /// alphabets; paper: "the number of communication buses ... is
  /// proportional to the number of alphabets").
  [[nodiscard]] int bus_count() const noexcept {
    return static_cast<int>(set_.size());
  }

  /// The structural shift-add schedule (for inspection and the hw
  /// model).
  [[nodiscard]] const std::vector<PrecomputeStep>& steps() const noexcept {
    return steps_;
  }

 private:
  void build_structural_network();

  AlphabetSet set_;
  std::vector<PrecomputeStep> steps_;
};

/// Read-only table of one bank's outputs over a raw input window
/// [min_raw, max_raw], modelling a CSHM bank whose inputs are bounded
/// quantized activations: configure_range() evaluates the bank once
/// per value of the window, after which a lookup is a subtract, a
/// bounds check and an indexed load. FixedNetwork builds one per ASM
/// synapse stage at construction and every worker reads it at once
/// (lookups are const and write nothing). The adder activity of the
/// fill is not billed per lookup: the engine charges the static
/// every-unit-fires activity per inference instead, so its stats do
/// not depend on how staging is arranged.
class PrecomputerCache {
 public:
  PrecomputerCache() = default;
  /// The bank must outlive configure_range(); lookups never read it,
  /// so a filled table may be copied or moved away from its bank.
  explicit PrecomputerCache(const PrecomputerBank& bank) : bank_(&bank) {}

  /// Fills the table with the bank's multiples of every input in
  /// [min_raw, max_raw] (inclusive), replacing any earlier window.
  /// Throws std::logic_error on an unbound cache and
  /// std::invalid_argument when min_raw > max_raw or the window spans
  /// more than kMaxFlatSpan values (the table is meant for bounded
  /// quantized activation ranges, not arbitrary 64-bit streams).
  /// Also proves, row by row, that every entry is alphabets[l]·x and
  /// fits int32; View::alphabets is set only when it holds.
  void configure_range(std::int64_t min_raw, std::int64_t max_raw);

  /// Pointer to the bank's alphabet_set().size() multiples of `input`,
  /// valid until the next configure_range(). Throws std::out_of_range
  /// when `input` lies outside the window (or none is configured).
  /// Charges nothing to `counts`: the bank ran when the table filled.
  [[nodiscard]] const std::int64_t* lookup(std::int64_t input,
                                           OpCounts& /*counts*/) const {
    return view().lookup(input);
  }

  /// The table as plain values, for sweeps that read its rows
  /// directly (the kernel backends' epilogue sweeps). Valid until the
  /// next configure_range(); a sweep checks every input against
  /// [min_raw, min_raw + span) and throws what lookup() throws.
  struct View {
    const std::int64_t* rows = nullptr;  ///< span rows of k multiples
    std::int64_t min_raw = 0;
    std::uint64_t span = 0;  ///< 0 = no window configured
    std::size_t k = 0;
    /// The bank's k alphabets when configure_range() proved every row
    /// of the window is alphabets[l]·x in int32 (so a sweep may compute
    /// the multiples in-register instead of reading rows); null when
    /// that proof failed or no window is configured.
    const std::int32_t* alphabets = nullptr;

    /// PrecomputerCache::lookup().
    [[nodiscard]] const std::int64_t* lookup(std::int64_t input) const {
      // Subtraction in uint64 is wrap-safe for any input; a wrapped
      // offset fails the span check.
      const std::uint64_t offset = static_cast<std::uint64_t>(input) -
                                   static_cast<std::uint64_t>(min_raw);
      if (offset >= span) throw_out_of_window(input, span);
      return rows + offset * k;
    }
  };
  [[nodiscard]] View view() const noexcept {
    return View{table_.data(), min_raw_, span_, k_,
                alphabets_.empty() ? nullptr : alphabets_.data()};
  }

  /// Widest window configure_range() accepts (64 MiB of rows at
  /// k = 8) — far above any quantized activation format's span.
  static constexpr std::uint64_t kMaxFlatSpan = std::uint64_t{1} << 20;

 private:
  [[noreturn]] static void throw_out_of_window(std::int64_t input,
                                              std::uint64_t span);

  const PrecomputerBank* bank_ = nullptr;
  std::vector<std::int64_t> table_;  ///< span_ rows of k_ multiples
  /// View::alphabets' storage: empty unless the int32 proof held.
  std::vector<std::int32_t> alphabets_;
  std::int64_t min_raw_ = 0;
  std::uint64_t span_ = 0;  ///< 0 = no window configured
  std::size_t k_ = 0;
};

}  // namespace man::core

#endif  // MAN_CORE_PRECOMPUTER_BANK_H
