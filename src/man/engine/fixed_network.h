// The fixed-point "processing engine" (paper §V): bit-accurate integer
// forward propagation of a trained network through ASM/MAN/conventional
// multiplier datapaths, with per-layer alphabet schemes.
//
// The engine is built from a trained (and, for ASM schemes, projected)
// float network. Weights are quantized to the QuantSpec grid and
// constrained to the layer's alphabet set; each weight's select/shift
// schedule is precompiled so inference costs a few adds per MAC,
// exactly mirroring the hardware datapath:
//
//   product(w, x) = (-1)^sign(w) · Σ_quartets (a_q · x) << s_q
//
// where a_q·x comes off the shared pre-computer bank (computed once
// per input value, as in the CSHM unit of Fig 3). A conventional layer
// runs the same datapath over the full set {1,3,…,15}, which encodes
// every quartet, so it computes W·I exactly (Table I).
#ifndef MAN_ENGINE_FIXED_NETWORK_H
#define MAN_ENGINE_FIXED_NETWORK_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "man/backend/kernel_backend.h"
#include "man/core/activation.h"
#include "man/core/alphabet_set.h"
#include "man/core/op_counts.h"
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

/// Wall-clock attribution of one infer_into() call's phases,
/// accumulated across calls. The kernel-backend accumulation goes to
/// kernel_s; everything between two kernels runs as one fused
/// epilogue sweep per stage boundary, charged whole to one field: a
/// sweep that pools to pool_s, else one that applies a LUT to lut_s,
/// else one that stages bank outputs (input quantization included) to
/// staging_s. So kernel_s, staging_s, lut_s and pool_s cover the whole
/// forward pass. Attach to InferScratch::profile to collect;
/// bench_fig9_energy and perfbench print the split.
struct PhaseProfile {
  /// Always 0: every first stage stages its quantized pixels, which
  /// goes to staging_s. Kept because perfbench reports it.
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
  /// the artifact loader both reach: each stage's bank alphabets and
  /// staging window and the activation LUTs are rebuilt
  /// deterministically from the descriptors.
  /// `storage` (may be null) is pinned for the engine's lifetime;
  /// plans with borrowed arrays point into it. Throws
  /// std::invalid_argument on a descriptor that would read past its
  /// input (pool geometry, activation kind, lanes, activation format),
  /// on a stage graph that takes or hands on no values (no dense, conv
  /// or pool stage, or a stage of size 0), or when plans and
  /// descriptors disagree (count, geometry, staging window, or a plan's
  /// alphabet count k against its synapse's bank).
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

  /// Per-worker buffers for the re-entrant forward path. Any scratch
  /// works with any engine: buffers are sized on first use.
  struct InferScratch {
    /// The last synapse stage's accumulators, per sample.
    std::vector<std::int64_t> acc;
    /// Hand-off between the segments of a boundary with more than one
    /// pool or two LUTs in a row (see Epilogue).
    std::vector<std::int64_t> hops[2];
    /// A synapse stage's bank outputs in int64 slots: k-strided
    /// element-major for dense stages run per sample, lane-major for
    /// conv stages on int64 lanes (which every backend runs on the
    /// scalar reference).
    std::vector<std::int64_t> multiples;
    /// An int32-lane conv stage's lane-major bank outputs.
    std::vector<std::int32_t> multiples32;
    /// A tile stage's inputs themselves, sample-minor in int16 lanes
    /// (input c of sample b at [c·kDenseTile + b], from a cache-line
    /// boundary, so each input is one line; the tile kernel applies the
    /// bank to group sums), and its accumulators (row r of sample b at
    /// [r·kDenseTile + b]).
    std::vector<std::int16_t> tile_inputs;
    std::vector<std::int64_t> tile_acc;
    /// Non-null: infer_into() times its phases into this (adds two
    /// clock reads per kernel and per stage boundary — leave null on
    /// hot paths).
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
  /// a tile forms, each sample of a full tile of kDenseTile samples
  /// is staged into its lane of the sample-minor int16 tile, and the
  /// tile runs the remaining stages on accumulate_dense_tile; the
  /// count % kDenseTile remainder runs per sample. Outputs and stats
  /// are bit-identical to `count` infer_into() calls.
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
  /// LUT stages and dense stages whose plans pass both tile proofs —
  /// rows that fit int32 (man::backend::int32_row_bound) and slots that
  /// fit int16 (man::backend::int16_tile_chunk ≥ 1) — and whose inputs
  /// lie in the staging window; the stage count when no tile forms.
  [[nodiscard]] std::size_t tile_begin() const noexcept { return tile_begin_; }

  /// Whether conv_plans()[conv_index] runs on int32 lanes
  /// (KernelBackend::accumulate_conv_int32): a plan whose rows
  /// fit int32 (man::backend::int32_row_bound) and whose inputs lie in
  /// the staging window. Other conv plans (no app builds one) run the
  /// int64 accumulate_conv, the scalar reference on every backend.
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
    /// The bank's alphabets: its output l of input x is alphabets[l]·x.
    std::vector<man::core::Alphabet> alphabets;
    /// The inputs' range: the staging window for a stage whose inputs
    /// lie in it (input_in_window()), all of int64 for one fed raw
    /// accumulators.
    std::int64_t in_min_raw = 0;
    std::int64_t in_max_raw = 0;
    /// A tiled dense stage's int16 run length (int16_tile_chunk), set
    /// by plan_lanes(); 0 for every stage that does not tile.
    int tile_chunk = 0;

    [[nodiscard]] man::backend::StagingWindow window() const {
      return {in_min_raw, in_max_raw, alphabets};
    }
  };
  struct LutStage {
    man::core::FixedActivationLut lut;
  };
  /// stages_[i] belongs to model_.stages[i]; a pool needs nothing
  /// beyond its descriptor (monostate).
  using Stage = std::variant<std::monostate, SynapseStage, LutStage>;

  /// One sweep of an epilogue: an optional LUT on every input, an
  /// optional pool, an optional LUT on every pooled value (stage
  /// indices, kNoStage when absent).
  struct Segment {
    static constexpr std::size_t kNoStage = static_cast<std::size_t>(-1);
    std::size_t pre = kNoStage;
    std::size_t pool = kNoStage;
    std::size_t post = kNoStage;
    std::size_t in_size = 0;   ///< values read per sample
    std::size_t out_size = 0;  ///< values written per sample
  };
  /// The LUT and pool stages between two synapse stages (or before the
  /// first, or after the last), run as one pass from the producer's
  /// accumulators (or the input pixels, quantized) straight into the
  /// consumer's input layout: its staged bank outputs, or the output.
  /// A run holding two pools or two LUTs in a row splits into several
  /// segments, handed on through InferScratch::hops; every model the
  /// apps build has one.
  struct Epilogue {
    /// The synapse stage it feeds; stages_.size() for the output.
    std::size_t stage = 0;
    std::vector<Segment> segments;  ///< at least one
    std::size_t out_size = 0;       ///< values handed on per sample
    std::uint64_t lut_values = 0;   ///< apply_raw calls per sample
    bool pools = false;             ///< some segment pools
    /// The one PhaseProfile field the sweep is charged to.
    double PhaseProfile::*phase = nullptr;
  };

  /// Static stage-graph pass: validates that consecutive stages agree
  /// on activation counts and records input_size_/output_size_.
  void link_stages();
  /// Groups the LUT and pool stages into epilogues_ (after
  /// link_stages()).
  void link_epilogues();
  /// Sets tile_begin_/tile_synapse_begin_, the tiled stages'
  /// tile_chunk and conv_int32_lanes_ from the plans.
  void plan_lanes();
  /// True when stage `stage_index`'s inputs are activation-format
  /// values: quantized pixels, LUT outputs, or pools of those.
  [[nodiscard]] bool input_in_window(std::size_t stage_index) const;

  /// Adds `samples` inferences' worth of one synapse stage's static
  /// activity to `layer`.
  static void charge_synapse(LayerStats& layer, const CompiledSynapse& syn,
                             std::uint64_t samples);

  /// One sample through synapse stages [0, synapse_end), each fed by
  /// its epilogue: leaves the last one's accumulators in scratch.acc.
  void forward_sample(std::span<const float> pixels, std::size_t synapse_end,
                      EngineStats& stats, InferScratch& scratch,
                      const man::backend::KernelBackend& kernel) const;

  /// One full tile through synapse stages [tile_synapse_begin_, end),
  /// whose first stage's input is staged in scratch.tile_inputs;
  /// writes the tile's outputs to `out` (kDenseTile × output_size()).
  void forward_tile(std::span<std::int64_t> out, EngineStats& stats,
                    InferScratch& scratch,
                    const man::backend::KernelBackend& kernel) const;

  /// The sweeps of epilogues_[j] over `samples` samples (only
  /// pool-free epilogues run more than one) from `source` into `sink`,
  /// timed and counted into scratch.profile. An epilogue of a shape
  /// `kernel` sweeps runs there: one sample's pixels, or a LUT then a
  /// 2×2 pool, into int32 conv lanes; a tile's pixels, or its
  /// accumulators through a LUT, into a dense tile.
  template <typename Source, typename Sink>
  void run_epilogue(std::size_t j, std::size_t samples, Source source,
                    Sink sink, InferScratch& scratch,
                    const man::backend::KernelBackend& kernel) const;
  /// run_epilogue() for one sample: from `pixels` when j is 0, else
  /// from scratch.acc.
  template <typename Sink>
  void feed(std::size_t j, std::span<const float> pixels, Sink sink,
            InferScratch& scratch,
            const man::backend::KernelBackend& kernel) const;

  /// The staging window: the activation format's raw range, which
  /// quantized pixels, LUT outputs and pools of those lie in. The
  /// constructor rejects formats wider than 2^20 raw values.
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
  /// and the synapse index it starts at; set by plan_lanes().
  std::size_t tile_begin_ = 0;
  std::size_t tile_synapse_begin_ = 0;
  /// Per conv plan: runs on int32 lanes; set by plan_lanes().
  std::vector<bool> conv_int32_lanes_;
  /// One per synapse stage, in order, plus the output's last.
  std::vector<Epilogue> epilogues_;
  EngineStats stats_;
};

}  // namespace man::engine

#endif  // MAN_ENGINE_FIXED_NETWORK_H
