// Execution plans for the synapse stages: one grouped layout for dense
// and conv stages alike, read by every backend (the scalar reference
// included) and saved as-is in plan artifacts.
//
// The paper's neuron sums ±(a·x) << s over every weight's quartets. A
// row's shifts and signs take only a few values, so a plan adds first
// and scales once: it groups each row's terms by (shift, sign) and
// stores
//   row_groups[r]  : row r's first group (rows + 1 offsets)
//   group_begin[g] : group g's first term (groups + 1 offsets)
//   shifts[g], sign_masks[g] : the group's left shift and sign (0/-1)
//   idx[t]         : term t's slot in the multiples buffer
// so out[r] = bias[r] + Σ_g ±(Σ_t multiples[idx[t]]) << shifts[g]: one
// load and add per term, one shift and one add or subtract per group,
// 4 bytes per term and no padding or absent entries. A dense row is an
// output neuron and its slots are c·k + lane; a conv row is a filter,
// its slots are lane-major patch elements at output position (0,0),
// and the kernels add each position's base offset to every read. A
// dense row's groups are also split by bank lane (bank_lanes[g]), so
// the batch tile, which stages each input x once, reads input idx / k
// and scales each group's Σx by alphabets[bank_lanes[g]] (the bank is
// linear: a·Σx = Σ a·x); one sample sums each (shift, sign) run of
// lane groups as one group (run_groups).
#ifndef MAN_BACKEND_LAYER_PLAN_H
#define MAN_BACKEND_LAYER_PLAN_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace man::backend {

/// Contiguous read-mostly plan storage with two modes: *owned* (a
/// plain vector, as the builders fill it) or *borrowed* (a raw
/// pointer into storage someone else keeps alive — an mmap'ed
/// artifact blob). Kernels only ever read through data()/operator[]
/// const, so they cannot tell the modes apart; mutation (assign and
/// the non-const operator[]) is for builders and is valid only in
/// owned mode. A borrowed array never outlives its backing mapping:
/// FixedNetwork pins the mapping for the life of the engine.
template <typename T>
class PlanArray {
 public:
  PlanArray() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): vectors are the
  // builders' native currency; plans assign them directly.
  PlanArray(std::vector<T> values) { *this = std::move(values); }

  PlanArray(const PlanArray& other)
      : owned_(other.owned_), size_(other.size_), borrowed_(other.borrowed_) {
    data_ = borrowed_ ? other.data_ : owned_.data();
  }
  PlanArray(PlanArray&& other) noexcept { *this = std::move(other); }
  PlanArray& operator=(const PlanArray& other) {
    if (this != &other) {
      owned_ = other.owned_;
      size_ = other.size_;
      borrowed_ = other.borrowed_;
      data_ = borrowed_ ? other.data_ : owned_.data();
    }
    return *this;
  }
  PlanArray& operator=(PlanArray&& other) noexcept {
    if (this != &other) {
      owned_ = std::move(other.owned_);
      size_ = other.size_;
      borrowed_ = other.borrowed_;
      data_ = borrowed_ ? other.data_ : owned_.data();
      other.owned_.clear();
      other.data_ = nullptr;
      other.size_ = 0;
      other.borrowed_ = false;
    }
    return *this;
  }
  PlanArray& operator=(std::vector<T> values) {
    owned_ = std::move(values);
    data_ = owned_.data();
    size_ = owned_.size();
    borrowed_ = false;
    return *this;
  }

  /// Borrowed mode: a read-only view of `n` elements at `data`. The
  /// caller owns the storage and must keep it alive and immutable for
  /// the array's lifetime.
  [[nodiscard]] static PlanArray borrow(const T* data, std::size_t n) noexcept {
    PlanArray array;
    array.data_ = data;
    array.size_ = n;
    array.borrowed_ = true;
    return array;
  }

  /// Owned-mode fill (builders); drops any borrowed view.
  void assign(std::size_t n, const T& value) {
    owned_.assign(n, value);
    data_ = owned_.data();
    size_ = n;
    borrowed_ = false;
  }

  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool borrowed() const noexcept { return borrowed_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  /// Element mutation — owned mode only (builders run before any
  /// borrow exists; borrowed storage is immutable by contract).
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return owned_[i]; }

 private:
  std::vector<T> owned_;
  const T* data_ = nullptr;
  std::size_t size_ = 0;
  bool borrowed_ = false;
};

/// One select/shift step of a compiled ASM weight (paper Fig 4: one
/// quartet = one pre-computer lane selected, shifted into place).
/// build_asm() input only: plans keep the groups built from it.
struct AsmStep {
  std::uint8_t lane;   ///< index into the bank's alphabet outputs
  std::uint8_t shift;  ///< total left shift
};

/// Flattened schedule of one weight: steps[step_begin..+step_count).
struct AsmWeight {
  std::uint32_t step_begin = 0;
  std::uint8_t step_count = 0;
  bool negative = false;
};

/// Shifts a plan may carry: [0, kMaxShift). Weights are at most 31
/// bits wide, so no compiled step shifts further.
inline constexpr int kMaxShift = 32;

/// Samples per batch tile of the dense tile kernels
/// (KernelBackend::accumulate_dense_tile). The tile is sample-minor:
/// input c of sample b sits at tile[c·kDenseTile + b] as an int16
/// (int16_tile_chunk() proves every staged input fits), so every term
/// is read once per tile and adds kDenseTile contiguous lanes — one
/// 64-byte line and vector. Rows come out int64 at
/// out[r·kDenseTile + b]. A fixed constant, not a knob: BatchRunner
/// cuts a batch into whole-tile ranges, so a 64-sample serving batch
/// forms two tiles.
inline constexpr int kDenseTile = 32;

/// Register tile of one vectorized conv kernel
/// (KernelBackend::accumulate_conv_int32 and accumulate_conv):
/// row_tile output rows × col_vecs column groups of one vector each.
/// Each vector tier runs one compile-time tile
/// (ConvLayerPlan::tile_avx2 reports the 16- and 32-byte tiers',
/// tile_avx512 the 64-byte tier's); every tile is bit-identical to the
/// scalar reference, only speed differs.
struct ConvTileShape {
  int row_tile = 0;  ///< output rows per tile
  int col_vecs = 0;  ///< vector column groups per tile
};

/// What both plan kinds share: the alphabet count, the biases, the
/// (shift, sign) groups and the staging window. Every synapse stage
/// has one: a conventional (exact-multiplier) layer is an ASM layer
/// over the full alphabet set, which encodes every quartet. Plans are
/// built once per layer when a network is lowered (owned arrays —
/// they cannot dangle into engine internals) or reconstructed from an
/// mmap'ed plan artifact (borrowed arrays pointing into the mapping,
/// which the loading engine keeps alive).
struct GroupedPlan {
  int k = 0;  ///< alphabet count (bank outputs per input)

  /// Biases at product scale, one per row.
  PlanArray<std::int64_t> biases;

  /// Grouped terms (every backend walks these). Row r owns groups
  /// [row_groups[r], row_groups[r+1]), group g owns terms
  /// [group_begin[g], group_begin[g+1]) and adds
  /// (Σ multiples[idx[t]]) << shifts[g], subtracted when
  /// sign_masks[g] is -1. build_asm() orders a row's groups by
  /// (shift, sign) (a dense row's then by bank lane) and a group's
  /// terms by idx.
  PlanArray<std::uint32_t> row_groups;   ///< rows + 1 offsets
  PlanArray<std::uint32_t> group_begin;  ///< groups + 1 offsets
  PlanArray<std::int64_t> shifts;        ///< per group, < kMaxShift
  PlanArray<std::int64_t> sign_masks;    ///< per group, 0 or -1
  PlanArray<std::uint32_t> idx;          ///< per term, a multiples slot

  /// Staging window: the activation QFormat's raw range
  /// [in_min_raw, in_max_raw], which quantized pixels, LUT outputs and
  /// pool averages stay inside. Set on every plan when a network is
  /// lowered and checked by the FixedNetwork constructor. Every stage
  /// stages its bank outputs as alphabets[l]·x through a
  /// StagingWindow: a stage whose inputs lie in this window checks
  /// them against it, and int32_row_bound() bounds the inputs by it; a
  /// stage fed raw accumulators (no LUT in front) stages through a
  /// window of all of int64 and never runs int32 lanes. min > max (the
  /// default, hand-built plans only) means no window: such a plan
  /// never runs int32 lanes.
  std::int64_t in_min_raw = 0;
  std::int64_t in_max_raw = -1;
  [[nodiscard]] bool has_input_range() const noexcept {
    return in_min_raw <= in_max_raw;
  }
};

/// Plan of one dense stage: row r is output neuron r and term t names
/// the k-strided slot idx[t] = c·k + l < cols·k of input c's lane l, the
/// lane of its group, bank_lanes[g]. A row's lane groups of one (shift,
/// sign) are consecutive, lanes ascending: one sample's walk sums such
/// a run in one pass (its multiples are k-strided, input c's lane l at
/// c·k + l), while the batch tile stages x once per input and scales
/// each group's sum by its lane's alphabet.
struct DenseLayerPlan : GroupedPlan {
  int rows = 0;  ///< output neurons
  int cols = 0;  ///< input features
  /// Per group, the bank lane (< k) all its terms select.
  PlanArray<std::uint8_t> bank_lanes;
  /// One sample's (shift, sign) runs: run j covers groups
  /// [run_groups[j], run_groups[j + 1]), the consecutive groups of one
  /// row that share a shift and sign, and row r owns runs
  /// [row_runs[r], row_runs[r + 1]). Derived from the groups by
  /// link_runs(), never serialized.
  PlanArray<std::uint32_t> row_runs;    ///< rows + 1 offsets
  PlanArray<std::uint32_t> run_groups;  ///< runs + 1 offsets

  /// Slots one sample's multiples buffer must provide: cols × k bank
  /// outputs.
  [[nodiscard]] std::size_t padded_multiples() const noexcept {
    return static_cast<std::size_t>(cols) * k;
  }

  /// The bank lane of group g's term slot `slot`, or -1 when the slot
  /// is not below cols·k, is not on the group's lane (slot mod k), or
  /// the group's lane is not below k.
  [[nodiscard]] int term_lane(std::size_t g,
                              std::uint32_t slot) const noexcept {
    return slot < padded_multiples() && bank_lanes[g] < k &&
                   slot % static_cast<std::uint32_t>(k) == bank_lanes[g]
               ? bank_lanes[g]
               : -1;
  }

  /// Fills row_runs and run_groups from row_groups, shifts and
  /// sign_masks. build_asm() calls it, and so must anything else that
  /// sets a plan's groups.
  void link_runs();

  /// Builds the plan for one ASM layer from the compiled schedule,
  /// which it consumes: `asm_weights` has rows × cols entries whose
  /// steps index `steps`; `k` is the bank's alphabet count. Throws
  /// std::invalid_argument on a step whose lane is not below k or
  /// whose shift is not below kMaxShift.
  [[nodiscard]] static DenseLayerPlan build_asm(
      int rows, int cols, int k, std::vector<AsmWeight> asm_weights,
      std::vector<AsmStep> steps, std::vector<std::int64_t> biases);
};

/// Plan of one valid-padding stride-1 conv stage: row r is filter r,
/// its columns are the ic·K·K patch elements. The filter slides over
/// the input, so a term slot is a patch element *at output position
/// (0,0)* and kernels add the position base oy·iw + ox to every read.
/// Unlike the dense path's k-strided element-major staging, the conv
/// multiples buffer is *lane-major* (all elements' a₀ multiples, then
/// all a₁, ...): slot lane·ic·ih·iw + element. A conv term fires at
/// every output position with the same lane, so consecutive positions
/// read consecutive slots — vector kernels use plain loads where an
/// element-major layout would need gathers.
struct ConvLayerPlan : GroupedPlan {
  int oc = 0;          ///< filters / output channels
  int ic = 0;          ///< input channels
  int kernel = 0;      ///< square kernel size K
  int ih = 0, iw = 0;  ///< input geometry (per channel)
  int oh = 0, ow = 0;  ///< output geometry (= ih-K+1, iw-K+1)
  int cols = 0;        ///< patch size ic·K·K

  /// The fixed register tiles of the vector conv kernels
  /// (vector_kernels.cpp static_asserts its own against these),
  /// and tiles_tuned, always false: nothing measures or writes a tile
  /// at run time. Kept only for perfbench's conv_tiles provenance; they
  /// go in the next benchmark change, with conv_autotune.h.
  static constexpr ConvTileShape tile_avx2{3, 2};
  static constexpr ConvTileShape tile_avx512{5, 2};
  static constexpr bool tiles_tuned = false;

  /// Output positions per filter (out has oc · positions() slots,
  /// channel-major).
  [[nodiscard]] std::size_t positions() const noexcept {
    return static_cast<std::size_t>(oh) * ow;
  }

  /// Input elements per sample (ic · ih · iw).
  [[nodiscard]] std::size_t input_elems() const noexcept {
    return static_cast<std::size_t>(ic) * ih * iw;
  }

  /// Largest per-position base offset added to any read (element
  /// units — the lane-major layout strides by elements, not by k).
  [[nodiscard]] std::size_t max_position_base() const noexcept {
    return static_cast<std::size_t>(oh - 1) * iw + (ow - 1);
  }

  /// Slots the lane-major multiples buffer must provide: k lanes of
  /// ic·ih·iw bank outputs.
  [[nodiscard]] std::size_t padded_multiples() const noexcept {
    return input_elems() * k;
  }

  /// The bank lane term slot `slot` reads (slot / (ic·ih·iw)), or -1
  /// when a read at slot + oy·iw + ox would leave that lane for some
  /// output position (any group: conv groups mix lanes).
  [[nodiscard]] int term_lane(std::size_t /*g*/,
                              std::uint32_t slot) const noexcept {
    const std::size_t elems = input_elems();
    return slot < padded_multiples() &&
                   slot % elems + max_position_base() < elems
               ? static_cast<int>(slot / elems)
               : -1;
  }

  /// Builds the plan for one ASM conv from the compiled schedule,
  /// which it consumes: `asm_weights` has oc × ic·K·K entries whose
  /// steps index `steps`; `k` is the bank's alphabet count. Throws
  /// like DenseLayerPlan::build_asm.
  [[nodiscard]] static ConvLayerPlan build_asm(
      int oc, int ic, int kernel, int ih, int iw, int k,
      std::vector<AsmWeight> asm_weights, std::vector<AsmStep> steps,
      std::vector<std::int64_t> biases);
};

/// What int32_row_bound() saturates at: one past INT32_MAX.
inline constexpr std::int64_t kInt32RowOverflow = std::int64_t{1} << 31;

/// The no-overflow proof behind the int32 kernels: the dense batch
/// tile (KernelBackend::accumulate_dense_tile) and int32 conv lanes
/// (KernelBackend::accumulate_conv_int32). Lane l of the stage's bank
/// stages alphabets[l] · x, and every input x lies in the staging
/// window, |x| ≤ X = max(|in_min_raw|, |in_max_raw|). Term t of group g
/// then selects a(t) · x, with a(t) = alphabets[term_lane(g, idx[t])]
/// (a dense group's lane, a conv slot's).
///
/// Row r's bound is
///   B_r = Σ_g (Σ_{t in g} X · a(t)) << shifts[g].
/// Every partial sum of a group's terms, that sum shifted, and every
/// running sum of the row lies in [-B_r, B_r]: the kernels add and
/// subtract exact values, with no sign trick. A dense group's terms
/// share one a, so the bound covers a · Σx too, which the tile forms
/// from the sum of the staged inputs. A conv read adds the position
/// base oy·iw + ox, which keeps it in its slot's lane (term_lane()
/// checks), so one row bound covers every output position.
///
/// Returns the largest B_r, or X · max(alphabets) when a staged slot
/// is larger, saturated at kInt32RowOverflow; plans without a staging
/// window, shifts outside [0, 30] and terms without a lane give
/// kInt32RowOverflow. A plan fits int32 lanes when the result is at
/// most INT32_MAX. O(plan terms); derived, never serialized.
[[nodiscard]] std::int64_t int32_row_bound(
    const DenseLayerPlan& plan, std::span<const std::uint8_t> alphabets);
[[nodiscard]] std::int64_t int32_row_bound(
    const ConvLayerPlan& plan, std::span<const std::uint8_t> alphabets);

/// The no-overflow proof behind the int16 slots of the dense batch
/// tile, which stages every input x itself (|x| ≤ X as for
/// int32_row_bound()): a run of at most
///   C = ⌊INT16_MAX / X⌋
/// terms sums in int16 lanes without leaving [-INT16_MAX, INT16_MAX].
/// accumulate_dense_tile adds at most C terms in int16, then widens
/// that chunk sum into the group's int32 sum Σx, which it scales by the
/// group's alphabet (int32_row_bound() covers a · Σx). Returns C, or 0
/// when an input does not fit int16 or k does not divide kDenseTile
/// (the tile kernels find input idx / k as (idx − lane) · kDenseTile / k;
/// the apps' 1, 2, 4 and 8 alphabets all divide it), and the stage then
/// runs per sample: plans without a staging window, with X > INT16_MAX
/// or with k outside {1, 2, 4, 8, 16, 32}. O(1); derived, never
/// serialized. For the apps' 8-bit activations (X = 255) C is 128,
/// whatever the alphabets.
[[nodiscard]] int int16_tile_chunk(const DenseLayerPlan& plan);

}  // namespace man::backend

#endif  // MAN_BACKEND_LAYER_PLAN_H
