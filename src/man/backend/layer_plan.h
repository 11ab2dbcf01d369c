// Structure-of-arrays execution plan for one dense synapse stage: the
// compiled select/shift schedule as contiguous quartet planes — the
// plan's one layout, read by every backend (the scalar reference
// included) and saved as-is in plan artifacts — laid out so the inner
// accumulation loop is branch-free and SIMD-friendly.
//
// Per quartet plane q and weight w the plan stores
//   idx[q][w]   : offset into the padded pre-computer multiples array
//                 (absent quartets point at a trailing always-zero slot)
//   shift[q][w] : total left shift of that quartet's alphabet multiple
// and per weight a sign mask m (0 or -1) so the signed contribution is
// (product ^ m) - m — exact two's-complement negation, no branch.
// Weight columns are padded to a multiple of kLaneWidth so vector
// kernels never need a scalar tail; padding entries read the zero slot
// and carry sign mask 0, contributing nothing.
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
/// build_asm() input only: plans keep the planes built from it.
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

/// SIMD lane width the planes are padded for (int64 lanes of one
/// 256-bit vector).
inline constexpr int kLaneWidth = 4;

/// Samples per batch tile of the dense tile kernels
/// (KernelBackend::accumulate_dense_tile). The tile is sample-minor:
/// slot s of sample b sits at tile[s·kDenseTile + b] as an int32
/// (int32_row_bound() proves the plan's sums fit), so every plan
/// entry is read once per tile and applied to kDenseTile contiguous
/// lanes — one zmm, two ymm, one 64-byte line. Rows come out int64 at
/// out[r·kDenseTile + b]. A fixed constant, not a knob: a wider tile
/// would tile even fewer serving micro-batches, of which only a full
/// 64-sample batch on 4 workers shards into 16-sample ranges
/// (BatchRunner::run_sharded splits 32 samples into 4 × 8 and 48 into
/// 4 × 12).
inline constexpr int kDenseTile = 16;

/// Register tile of one vectorized int32 conv kernel
/// (KernelBackend::accumulate_conv_int32): row_tile output rows ×
/// col_vecs column groups of int32 lanes (8 per ymm, 16 per zmm). Each
/// ISA runs one compile-time tile (ConvLayerPlan::tile_avx2 /
/// tile_avx512 report them); every tile is bit-identical to the
/// scalar reference, only speed differs.
struct ConvTileShape {
  int row_tile = 0;  ///< output rows per tile
  int col_vecs = 0;  ///< vector column groups per tile
};

/// Self-contained per-layer plan consumed by KernelBackend
/// implementations. Built once per dense layer when a network is
/// lowered (owned arrays — it cannot dangle into engine internals) or
/// reconstructed from an mmap'ed plan artifact (borrowed arrays
/// pointing into the mapping, which the loading engine keeps alive).
struct DenseLayerPlan {
  int rows = 0;         ///< output neurons
  int cols = 0;         ///< input features
  int cols_padded = 0;  ///< cols rounded up to kLaneWidth
  int k = 0;            ///< alphabet count (bank outputs per input)
  int planes = 0;       ///< max step count over all weights
  bool exact = false;   ///< conventional layer: use `weights`, no planes

  /// Exact path: quantized weights, row-major rows × cols.
  PlanArray<std::int32_t> weights;
  /// Biases at product scale, one per row (both paths).
  PlanArray<std::int64_t> biases;

  /// ASM path, SoA planes (every backend walks these).
  /// Plane-major: entry for plane q, row r, column c lives at
  /// q * rows * cols_padded + r * cols_padded + c. A weight's steps
  /// are packed from plane 0; its first zero-slot entry ends it.
  PlanArray<std::uint32_t> idx;
  PlanArray<std::int64_t> shifts;
  /// Per-weight sign masks, rows × cols_padded (0 or -1).
  PlanArray<std::int64_t> sign_masks;
  /// Index of the always-zero multiples slot (== cols * k).
  std::uint32_t zero_slot = 0;

  /// Staging window: the activation QFormat's raw range
  /// [in_min_raw, in_max_raw], which quantized pixels, LUT outputs and
  /// pool averages stay inside. Set on every plan when a network is
  /// lowered and checked by the FixedNetwork constructor. A stage
  /// whose inputs lie in it stages from the engine's table of bank
  /// outputs over the window, and int32_row_bound() bounds the
  /// inputs by it; a stage fed raw accumulators (no LUT in front)
  /// stages straight from its bank and never runs int32 lanes. min >
  /// max (the default, hand-built plans only) means no window: such a
  /// plan never runs int32 lanes.
  std::int64_t in_min_raw = 0;
  std::int64_t in_max_raw = -1;
  [[nodiscard]] bool has_input_range() const noexcept {
    return in_min_raw <= in_max_raw;
  }

  /// Slots the multiples buffer must provide: cols × k bank outputs
  /// plus the trailing zero slot.
  [[nodiscard]] std::size_t padded_multiples() const noexcept {
    return static_cast<std::size_t>(cols) * k + 1;
  }

  /// Entries per quartet plane.
  [[nodiscard]] std::size_t plane_stride() const noexcept {
    return static_cast<std::size_t>(rows) * cols_padded;
  }

  /// Builds the plan for one exact (conventional-multiplier) layer.
  [[nodiscard]] static DenseLayerPlan build_exact(
      int rows, int cols, std::vector<std::int32_t> weights,
      std::vector<std::int64_t> biases);

  /// Builds the plan for one ASM layer from the compiled schedule,
  /// which it consumes: `asm_weights` has rows × cols entries whose
  /// steps index `steps`; `k` is the bank's alphabet count.
  [[nodiscard]] static DenseLayerPlan build_asm(
      int rows, int cols, int k, std::vector<AsmWeight> asm_weights,
      std::vector<AsmStep> steps, std::vector<std::int64_t> biases);
};

/// Self-contained plan for one valid-padding stride-1 conv stage —
/// the dense plan generalized by one degree of freedom: the filter
/// patch slides over the input, so every (plane, filter, column)
/// cell stores the multiples offset of its patch element *at output
/// position (0,0)* and kernels add a per-position base offset
/// (oy·iw + ox) to every read. Unlike the dense path's k-strided
/// element-major staging, the conv multiples buffer is *lane-major*
/// (all elements' a₀ multiples, then all a₁, ...): a conv weight
/// fires at every output position with the same lane, so consecutive
/// positions read consecutive slots — vector kernels use plain loads
/// where an element-major layout would need gathers. Rather than
/// branch on absent quartets, their cells point at `zero_base` and
/// the buffer carries a zero *region* wide enough that zero_base plus
/// any position base still reads 0 (the dense plan's always-zero-slot
/// idea, stretched to cover the slide).
///
/// Exact (conventional-multiplier) convs use a degenerate
/// single-multiple plane: `patch_elems` indexes the activations
/// themselves (one "multiple" per element, no shift), and kernels
/// multiply by the quantized weight instead of walking quartets.
struct ConvLayerPlan {
  int oc = 0;           ///< filters / output channels
  int ic = 0;           ///< input channels
  int kernel = 0;       ///< square kernel size K
  int ih = 0, iw = 0;   ///< input geometry (per channel)
  int oh = 0, ow = 0;   ///< output geometry (= ih-K+1, iw-K+1)
  int cols = 0;         ///< patch size ic·K·K
  int cols_padded = 0;  ///< cols rounded up to kLaneWidth
  int k = 0;            ///< alphabet count (bank outputs per element)
  int planes = 0;       ///< max step count over all weights
  bool exact = false;   ///< conventional layer: weights × gathered acts

  /// Exact path: quantized weights, oc × cols_padded (padding 0).
  PlanArray<std::int32_t> weights;
  /// Biases at product scale, one per filter (both paths).
  PlanArray<std::int64_t> biases;
  /// Degenerate single-multiple plane: input element offset of each
  /// padded patch column at output position (0,0); padding columns
  /// read element 0 under weight 0.
  PlanArray<std::uint32_t> patch_elems;

  /// ASM path, SoA planes, laid out exactly like the dense plan with
  /// rows ≡ oc: entry for plane q, filter r, column c lives at
  /// q · oc · cols_padded + r · cols_padded + c. Offsets index the
  /// lane-major multiples buffer (lane · ic·ih·iw + patch element);
  /// kernels add the position base oy·iw + ox. Steps are packed from
  /// plane 0; a weight's first zero_base entry ends it.
  PlanArray<std::uint32_t> idx;
  PlanArray<std::int64_t> shifts;
  /// Per-weight sign masks, oc × cols_padded (0 or -1).
  PlanArray<std::int64_t> sign_masks;
  /// First slot of the always-zero region (== k · ic·ih·iw).
  std::uint32_t zero_base = 0;

  /// Staging window, exactly as in DenseLayerPlan: the activation
  /// format's raw range (min > max, the default, means none). A stage
  /// whose inputs lie in it and whose plan passes int32_row_bound()
  /// stages int32 multiples and runs accumulate_conv_int32.
  std::int64_t in_min_raw = 0;
  std::int64_t in_max_raw = -1;

  [[nodiscard]] bool has_input_range() const noexcept {
    return in_min_raw <= in_max_raw;
  }

  /// The fixed register tile of the AVX2 and AVX-512 int32 conv
  /// kernels (each kernel file static_asserts its own against these),
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

  /// Slots the lane-major multiples buffer must provide: k planes of
  /// ic·ih·iw bank outputs plus a zero region covering zero_base +
  /// every position base.
  [[nodiscard]] std::size_t padded_multiples() const noexcept {
    return zero_base + max_position_base() + 1;
  }

  /// Entries per quartet plane.
  [[nodiscard]] std::size_t plane_stride() const noexcept {
    return static_cast<std::size_t>(oc) * cols_padded;
  }

  /// Builds the plan for one exact (conventional-multiplier) conv.
  /// `weights` is oc × ic × K × K row-major (the Conv2D layout).
  [[nodiscard]] static ConvLayerPlan build_exact(
      int oc, int ic, int kernel, int ih, int iw,
      std::vector<std::int32_t> weights, std::vector<std::int64_t> biases);

  /// Builds the plan for one ASM conv from the compiled schedule,
  /// which it consumes: `asm_weights` has oc × ic·K·K entries whose
  /// steps index `steps`; `k` is the bank's alphabet count.
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
/// window, |x| ≤ X = max(|in_min_raw|, |in_max_raw|). Slot idx then
/// holds a(idx) · x, with a(idx) = alphabets[idx % k] in the dense
/// plan's k-strided layout and alphabets[idx / (ic·ih·iw)] in the conv
/// plan's lane-major one; the zero slot or zero region holds 0. A conv
/// read adds the position base oy·iw + ox, which keeps it in its
/// slot's lane (checked), so one row bound covers every output
/// position. Row r's bound is
///   B_r = Σ_c Σ_q X · a(idx) << shift  +  (negative weights in row r).
/// Every shifted multiple, weight product p and partial Σ (p ^ sign)
/// of row r lies in [-B_r, B_r] (p ^ -1 = -p - 1 adds at most one per
/// negative weight). Returns the largest B_r, or X · max(alphabets)
/// when a staged slot is larger, saturated at kInt32RowOverflow;
/// exact plans, plans without a staging window, shifts outside
/// [0, 30] and slots past the zero slot/region base give
/// kInt32RowOverflow. A plan fits int32 lanes when the result is at
/// most INT32_MAX. O(plan entries); derived, never serialized.
[[nodiscard]] std::int64_t int32_row_bound(
    const DenseLayerPlan& plan, std::span<const std::uint8_t> alphabets);
[[nodiscard]] std::int64_t int32_row_bound(
    const ConvLayerPlan& plan, std::span<const std::uint8_t> alphabets);

}  // namespace man::backend

#endif  // MAN_BACKEND_LAYER_PLAN_H
