// The fixed-point "processing engine" (paper §V): bit-accurate integer
// forward propagation of a trained network through ASM/MAN/conventional
// multiplier datapaths, with per-layer alphabet schemes.
//
// The engine is built from a trained (and, for ASM schemes, projected)
// float network. Weights are quantized to the QuantSpec grid and — for
// ASM/MAN layers — constrained to the layer's alphabet set; each
// weight's select/shift schedule is precompiled so inference costs a
// few adds per MAC, exactly mirroring the hardware datapath:
//
//   product(w, x) = (-1)^sign(w) · Σ_quartets (a_q · x) << s_q
//
// where a_q·x comes off the shared pre-computer bank (computed once
// per input value, as in the CSHM unit of Fig 3).
#ifndef MAN_ENGINE_FIXED_NETWORK_H
#define MAN_ENGINE_FIXED_NETWORK_H

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "man/backend/kernel_backend.h"
#include "man/core/activation.h"
#include "man/core/precomputer_bank.h"
#include "man/data/dataset.h"
#include "man/engine/engine_stats.h"
#include "man/engine/layer_alphabet_plan.h"
#include "man/nn/network.h"
#include "man/nn/quantize.h"

namespace man::engine {

/// Index of the largest raw accumulator (first max wins) — the one
/// argmax every prediction path shares, so tie-breaking can never
/// diverge between the single-sample and batched runtimes.
[[nodiscard]] inline int argmax_raw(
    std::span<const std::int64_t> raw) noexcept {
  int best = 0;
  for (std::size_t i = 1; i < raw.size(); ++i) {
    if (raw[i] > raw[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

/// Wall-clock attribution of the per-element phases inside one
/// infer_into() call, accumulated across calls: CSHM staging (bank
/// output rows copied into the multiples buffer), the activation LUT
/// sweep, the kernel-backend accumulation, pooling, and input
/// quantization. Attach to InferScratch::profile to collect;
/// bench_fig9_energy uses it to emit the per-element breakdown that
/// makes staging/LUT regressions attributable.
struct PhaseProfile {
  double quantize_s = 0.0;
  double staging_s = 0.0;
  double kernel_s = 0.0;
  double lut_s = 0.0;
  double pool_s = 0.0;
  std::uint64_t staged_values = 0;  ///< values run through staging
  std::uint64_t lut_values = 0;     ///< values run through apply_raw
};

/// Everything lowering distils out of one synapse layer besides its
/// plan: the scheme (to rebuild the pre-computer bank), the stats
/// label, and the static per-inference activity. Part of the
/// CompiledModel the artifact layer serializes.
struct CompiledSynapse {
  LayerScheme scheme;
  std::string name;  ///< stats layer label
  std::uint64_t macs = 0;
  std::uint64_t bank_activations = 0;
  man::core::OpCounts ops_per_inference;
};

struct CompiledDenseStage {
  int in = 0, out = 0;
  CompiledSynapse synapse;
};
struct CompiledConvStage {
  int ic = 0, oc = 0, k = 0, ih = 0, iw = 0, oh = 0, ow = 0;
  CompiledSynapse synapse;
};
struct CompiledPoolStage {
  int c = 0, ih = 0, iw = 0, window = 0, oh = 0, ow = 0;
};
struct CompiledLutStage {
  man::core::ActivationKind kind = man::core::ActivationKind::kIdentity;
};
using CompiledStage = std::variant<CompiledDenseStage, CompiledConvStage,
                                   CompiledPoolStage, CompiledLutStage>;

/// Post-compilation engine description: with plans()/conv_plans()
/// this is everything a FixedNetwork is built from — banks and LUT
/// tables are cheap deterministic functions of the descriptors, so
/// the engine rebuilds them instead of storing or serializing them.
struct CompiledModel {
  man::nn::QuantSpec spec;
  int lanes = 4;
  std::vector<CompiledStage> stages;
};

/// Bit-accurate fixed-point inference engine.
class FixedNetwork {
 public:
  /// Compiles `network` under `spec` and `plan`: lowers it to a
  /// CompiledModel plus plans, then builds the engine from those
  /// exactly as the descriptor constructor does. The plan must have
  /// exactly one scheme per synapse (dense/conv) layer. `lanes` is the
  /// CSHM sharing degree (paper: 4). Weights not representable under a
  /// layer's alphabet set are constrained to the nearest representable
  /// value (Algorithm 1 semantics) during lowering.
  FixedNetwork(man::nn::Network& network, man::nn::QuantSpec spec,
               LayerAlphabetPlan plan, int lanes = 4);

  /// Builds an engine from a CompiledModel plus its plans, in stage
  /// order — the one construction body, which the compile route and
  /// the artifact loader both reach: pre-computer banks, staging
  /// tables and activation LUTs are rebuilt deterministically from the
  /// descriptors.
  /// `storage` (may be null) is pinned for the engine's lifetime;
  /// plans with borrowed arrays point into it. Throws
  /// std::invalid_argument on a descriptor that would read past its
  /// input (pool geometry, activation kind, lanes, activation format)
  /// or when plans and descriptors disagree (count, geometry, staging
  /// window, or exact/ASM mode).
  FixedNetwork(const CompiledModel& model,
               std::vector<man::backend::DenseLayerPlan> plans,
               std::vector<man::backend::ConvLayerPlan> conv_plans,
               std::shared_ptr<const void> storage);

  /// The stage descriptors this engine was built from — the
  /// serializable complement of plans()/conv_plans().
  [[nodiscard]] const CompiledModel& compiled_model() const noexcept {
    return model_;
  }

  [[nodiscard]] const man::nn::QuantSpec& quant_spec() const noexcept {
    return model_.spec;
  }
  [[nodiscard]] const LayerAlphabetPlan& plan() const noexcept {
    return plan_;
  }
  [[nodiscard]] int lanes() const noexcept { return model_.lanes; }

  /// Pixels per input image / accumulators per output (fixed by the
  /// compiled stage graph).
  [[nodiscard]] std::size_t input_size() const noexcept {
    return input_size_;
  }
  [[nodiscard]] std::size_t output_size() const noexcept {
    return output_size_;
  }

  /// Per-worker buffers for the re-entrant forward path; the CSHM bank
  /// outputs they are staged from live in the engine, read-only. Any
  /// scratch works with any engine (buffers are resized per call), so
  /// make_scratch() only saves the first call's allocations.
  struct InferScratch {
    std::vector<std::int64_t> buffer;  ///< current stage activations
    std::vector<std::int64_t> next;    ///< next stage activations
    /// Bank outputs: k-strided element-major for dense stages,
    /// lane-major for conv stages on int64 lanes.
    std::vector<std::int64_t> multiples;
    /// Batch tile activations and the next tile stage's, sample-minor
    /// (element i of sample b at [i·kDenseTile + b]); see infer_batch.
    std::vector<std::int64_t> tile;
    std::vector<std::int64_t> tile_next;
    /// A tile stage's bank outputs, sample-minor in int32 lanes (slot s
    /// of sample b at [s·kDenseTile + b], from a cache-line boundary);
    /// also an int32-lane conv stage's lane-major bank outputs.
    std::vector<std::int32_t> tile_multiples;
    /// Output staging for callers that loop infer_into per sample
    /// (e.g. BatchRunner's Example path) without re-allocating.
    std::vector<std::int64_t> raw_out;
    /// Non-null: infer_into() times its per-element phases into this
    /// (adds two clock reads per stage — leave null on hot paths).
    PhaseProfile* profile = nullptr;
  };
  [[nodiscard]] InferScratch make_scratch() const;

  /// Zeroed stats with this engine's layer layout (names prefilled) —
  /// the shape infer_into() accumulates into and EngineStats::merge()
  /// reduces over.
  [[nodiscard]] EngineStats make_stats() const;

  /// Re-entrant forward pass: quantizes `pixels`, runs every stage,
  /// and writes the final-layer raw accumulators (pre-activation,
  /// product scale) into `out` (size output_size()). Activity is
  /// accumulated into `stats`; `scratch` carries the buffers between
  /// calls. Safe to call concurrently from many threads as long as
  /// each thread owns its `stats` and `scratch`.
  /// Synapse stages (dense and conv) run on this engine's default
  /// kernel backend (resolved from MAN_BACKEND / CPU detection at
  /// construction).
  void infer_into(std::span<const float> pixels, std::span<std::int64_t> out,
                  EngineStats& stats, InferScratch& scratch) const;

  /// Same forward pass on an explicit kernel backend (BatchRunner
  /// threads its resolved choice through here). Every backend is
  /// bit-identical by contract, so the outputs cannot depend on
  /// `kernel` — only the wall-clock does.
  void infer_into(std::span<const float> pixels, std::span<std::int64_t> out,
                  EngineStats& stats, InferScratch& scratch,
                  const man::backend::KernelBackend& kernel) const;

  /// Forward pass over `pixels.size() / input_size()` samples stored
  /// contiguously, writing each sample's accumulators to its slot of
  /// `out` (count × output_size()); infer_into() is its one-sample
  /// case. Stages before tile_begin() run one sample at a time. When
  /// a tile forms, every full tile of kDenseTile samples is staged
  /// sample-minor into scratch.tile and runs the remaining stages on
  /// the int32 accumulate_dense_tile; the count % kDenseTile remainder
  /// runs per sample. Outputs and stats are bit-identical to `count`
  /// infer_into() calls.
  void infer_batch(std::span<const float> pixels, std::span<std::int64_t> out,
                   EngineStats& stats, InferScratch& scratch,
                   const man::backend::KernelBackend& kernel) const;

  /// Convenience overload with throwaway scratch.
  void infer_into(std::span<const float> pixels, std::span<std::int64_t> out,
                  EngineStats& stats) const;

  /// Final-layer raw accumulators for one image (thin wrapper over
  /// infer_into, accumulating into the member stats).
  [[nodiscard]] std::vector<std::int64_t> forward_raw(
      std::span<const float> pixels);

  /// Predicted class (argmax of the final accumulators).
  [[nodiscard]] int predict(std::span<const float> pixels);
  [[nodiscard]] int predict(const man::data::Example& example) {
    return predict(example.pixels);
  }

  /// Top-1 accuracy over a split (accumulates activity stats).
  [[nodiscard]] double evaluate(
      std::span<const man::data::Example> examples);

  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_.reset(); }

  /// MACs per single inference, per synapse layer (static property).
  [[nodiscard]] std::vector<std::uint64_t> macs_per_inference() const;

  /// The compiled per-dense-stage plans, in stage order.
  [[nodiscard]] const std::vector<man::backend::DenseLayerPlan>& plans()
      const noexcept {
    return plans_;
  }

  /// The compiled per-conv-stage plans, in stage order.
  [[nodiscard]] const std::vector<man::backend::ConvLayerPlan>& conv_plans()
      const noexcept {
    return conv_plans_;
  }

  /// First stage of the batch tile: the start of the trailing run of
  /// LUT stages and ASM dense stages whose plans fit int32 lanes
  /// (man::backend::int32_row_bound) and whose inputs lie in the
  /// staging window; the stage count when no tile forms.
  [[nodiscard]] std::size_t tile_begin() const noexcept { return tile_begin_; }

  /// Whether conv_plans()[conv_index] runs on int32 lanes
  /// (KernelBackend::accumulate_conv_int32): an ASM plan whose rows
  /// fit int32 (man::backend::int32_row_bound) and whose inputs lie in
  /// the staging window. Other conv plans run the int64
  /// accumulate_conv.
  [[nodiscard]] bool conv_int32_lanes(std::size_t conv_index) const {
    return conv_int32_lanes_.at(conv_index);
  }

  /// The kernel backend infer_into() uses when none is passed
  /// explicitly (resolved once at construction).
  [[nodiscard]] const man::backend::KernelBackend& default_kernel()
      const noexcept {
    return *default_kernel_;
  }

 private:
  /// A lowered float network: what the compile route hands the one
  /// descriptor constructor (defined in fixed_network.cpp).
  struct Lowered;
  explicit FixedNetwork(Lowered&& lowered);
  /// Walks `network` and lowers each synapse layer straight to its
  /// plan (quantize, constrain, encode quartets, build), recording its
  /// stage descriptor; each layer's schedule is freed before the next.
  static Lowered lower(man::nn::Network& network,
                       const man::nn::QuantSpec& spec,
                       const LayerAlphabetPlan& plan, int lanes);

  /// Run-time state of a dense or conv stage beyond its descriptor
  /// and plan.
  struct SynapseStage {
    std::size_t plan_index = 0;  ///< into plans_ or conv_plans_
    man::core::PrecomputerBank bank;
    /// The bank's outputs over the staging window, filled once by
    /// build_tables() and read by every worker; empty for exact stages
    /// and for stages fed raw accumulators, which stage from `bank`.
    std::optional<man::core::PrecomputerCache> table;
  };
  struct LutStage {
    man::core::FixedActivationLut lut;
  };
  /// stages_[i] belongs to model_.stages[i]; a pool needs nothing
  /// beyond its descriptor (monostate).
  using Stage = std::variant<std::monostate, SynapseStage, LutStage>;

  /// Static stage-graph pass: validates that consecutive stages agree
  /// on activation counts and records input_size_/output_size_.
  void link_stages();
  /// Sets tile_begin_/tile_synapse_begin_ and conv_int32_lanes_ from
  /// the plans.
  void plan_int32_lanes();
  /// Fills the staging table of every ASM synapse stage whose inputs
  /// lie in the staging window (last, once stages_ is final).
  void build_tables();
  /// True when stage `stage_index`'s inputs are activation-format
  /// values: quantized pixels, LUT outputs, or pools of those.
  [[nodiscard]] bool input_in_window(std::size_t stage_index) const;

  /// Adds `samples` inferences' worth of one synapse stage's static
  /// activity to `layer`.
  static void charge_synapse(LayerStats& layer, const CompiledSynapse& syn,
                             std::uint64_t samples);

  /// One sample through stages [0, stage_end): quantizes `pixels` into
  /// scratch.buffer and leaves that stage range's output there.
  void forward_sample(std::span<const float> pixels, std::size_t stage_end,
                      EngineStats& stats, InferScratch& scratch,
                      const man::backend::KernelBackend& kernel) const;

  /// One full tile through stages [tile_begin_, end): reads and leaves
  /// its activations in scratch.tile, sample-minor.
  void forward_tile(EngineStats& stats, InferScratch& scratch,
                    const man::backend::KernelBackend& kernel) const;

  /// The staging window: the activation format's raw range, which
  /// quantized pixels, LUT outputs and pools of those lie in. The
  /// constructor rejects formats wider than
  /// PrecomputerCache::kMaxFlatSpan.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> staging_window() const;

  CompiledModel model_;
  LayerAlphabetPlan plan_;  ///< model_'s synapse schemes, for plan()
  std::vector<Stage> stages_;
  std::vector<man::backend::DenseLayerPlan> plans_;
  std::vector<man::backend::ConvLayerPlan> conv_plans_;
  /// Keeps the backing storage of borrowed plan arrays (an mmap'ed
  /// artifact) alive for the engine's lifetime; null for compiled
  /// engines, whose plans own their arrays.
  std::shared_ptr<const void> storage_;
  const man::backend::KernelBackend* default_kernel_ = nullptr;
  std::size_t input_size_ = 0;
  std::size_t output_size_ = 0;
  /// First stage of the batch tile (stages_.size() when no tile forms)
  /// and the synapse index it starts at; set by plan_int32_lanes().
  std::size_t tile_begin_ = 0;
  std::size_t tile_synapse_begin_ = 0;
  /// Per conv plan: runs on int32 lanes; set by plan_int32_lanes().
  std::vector<bool> conv_int32_lanes_;
  EngineStats stats_;
};

}  // namespace man::engine

#endif  // MAN_ENGINE_FIXED_NETWORK_H
