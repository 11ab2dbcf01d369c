// Batched, multi-threaded driver for the fixed-point engine: shards a
// batch of inputs across a persistent worker pool, cuts each shard
// into ranges of one dense batch tile (the last taking the shard's
// remainder) that the workers claim in turn, hands each range to the
// engine in one FixedNetwork::infer_batch call (so the tiles form
// inside it), keeps one InferScratch of buffers per shard slot across
// calls, and reduces the per-shard EngineStats into one aggregate with
// per-layer activity preserved. Every shard stages
// from the engine's one read-only CSHM table per synapse stage (the
// pre-computer outputs computed once and broadcast to every lane,
// paper §III).
//
// Results are bit-identical to the sequential path for any worker
// count: every sample's output lands in its own slot, and the
// per-layer counters are integer sums, which commute.
//
// Threads are NOT spawned per run(): work executes on a
// man::serve::ThreadPool — either one the caller shares across
// runners (BatchOptions::pool, the serving front-end's arrangement)
// or one the runner lazily creates on its first parallel run and
// keeps for its lifetime.
#ifndef MAN_ENGINE_BATCH_RUNNER_H
#define MAN_ENGINE_BATCH_RUNNER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "man/backend/kernel_backend.h"
#include "man/data/dataset.h"
#include "man/engine/engine_stats.h"
#include "man/engine/fixed_network.h"
#include "man/serve/thread_pool.h"

namespace man::engine {

/// Worker-pool knobs for BatchRunner.
struct BatchOptions {
  /// Worker threads; 0 picks std::thread::hardware_concurrency()
  /// (clamped to [1, 16]). Negative values are rejected with
  /// std::invalid_argument at construction.
  int workers = 0;
  /// Below this many samples per worker the shard count shrinks, down
  /// to a plain inline loop — pool dispatch is not worth a handful of
  /// inferences.
  std::size_t min_samples_per_worker = 8;
  /// Persistent pool to run on, shared across runners (and with the
  /// serving front-end). When null the runner creates a private pool
  /// of `workers` threads on its first parallel run. When set, the
  /// effective parallelism is capped at the pool's size.
  std::shared_ptr<man::serve::ThreadPool> pool;
  /// Kernel backend for the dense accumulation loops. nullopt defers
  /// to the MAN_BACKEND environment variable, then CPU detection
  /// (resolved once at runner construction; an unknown MAN_BACKEND
  /// value throws std::invalid_argument there).
  std::optional<man::backend::BackendKind> backend;
};

/// Per-sample predictions plus batch accuracy (evaluate() result).
struct BatchAccuracy {
  double accuracy = 0.0;
  std::vector<int> predictions;
};

/// Shards batches of inferences over a persistent worker pool. The
/// runner holds only a reference to the engine (which must outlive
/// it); all mutable state is per-shard, so several runners may share
/// one engine. A single runner is not re-entrant: run()/predict()/
/// evaluate() must not be called concurrently on the same instance
/// (the stats reduction is unsynchronized by design).
class BatchRunner {
 public:
  explicit BatchRunner(const FixedNetwork& network, BatchOptions options = {});

  /// Resolved shard-count cap (small batches may use fewer shards).
  [[nodiscard]] int workers() const noexcept { return workers_; }

  /// The kernel backend every shard of this runner executes on
  /// (BatchOptions::backend > MAN_BACKEND > auto-detect). Also
  /// recorded in stats().backend.
  [[nodiscard]] const man::backend::KernelBackend& kernel() const noexcept {
    return *kernel_;
  }

  /// The persistent pool work executes on. Null until the first run
  /// that actually goes parallel when no pool was passed in.
  [[nodiscard]] const std::shared_ptr<man::serve::ThreadPool>& pool()
      const noexcept {
    return pool_;
  }

  /// Runs `count` samples stored contiguously in `inputs` (count ×
  /// input_size() floats) and writes the raw final-layer accumulators
  /// into `outputs` (count × output_size() slots).
  void run(std::span<const float> inputs, std::span<std::int64_t> outputs);

  /// Argmax predictions for a contiguous batch.
  [[nodiscard]] std::vector<int> predict(std::span<const float> inputs);

  /// Argmax predictions for a dataset split (one sample per Example):
  /// each range's pixels are gathered contiguously and run like run()'s,
  /// so its full batch tiles form.
  [[nodiscard]] std::vector<int> predict(
      std::span<const man::data::Example> examples);

  /// Top-1 accuracy plus per-sample predictions over a split.
  [[nodiscard]] BatchAccuracy evaluate(
      std::span<const man::data::Example> examples);

  /// Aggregate activity across every batch run so far (per-layer
  /// layout identical to FixedNetwork::stats()).
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_.reset(); }

 private:
  /// One shard slot's buffers, kept across calls (the runner is not
  /// re-entrant, so slot w belongs to shard w of the current call):
  /// they are sized once, not per call. Each slot owns its cache
  /// lines: the hot loops write the vector headers, which would
  /// otherwise falsely share with a neighbour's.
  struct alignas(128) ScratchSlot {
    FixedNetwork::InferScratch scratch;
    /// A range of Examples' pixels gathered contiguously, and the
    /// range's outputs (the Example path).
    std::vector<float> pixels;
    std::vector<std::int64_t> raw;
  };

  /// Splits [0, count) into contiguous shards and each shard into
  /// ranges of one dense tile (the last range of a shard takes its
  /// remainder), runs one task per shard on the pool that calls
  /// fn(begin, end, stats, slot) on the next unclaimed range until
  /// none is left, then merges the tasks' stats (in shard order) into
  /// stats_. Tasks share only the engine, read-only; stats and slot
  /// are per task. Rethrows the first task exception after every task
  /// has finished.
  void run_sharded(
      std::size_t count,
      const std::function<void(std::size_t, std::size_t, EngineStats&,
                               ScratchSlot&)>& fn);

  const FixedNetwork* network_;
  const man::backend::KernelBackend* kernel_;
  int workers_;
  std::size_t min_samples_per_worker_;
  std::shared_ptr<man::serve::ThreadPool> pool_;
  std::vector<ScratchSlot> scratches_;
  EngineStats stats_;
};

}  // namespace man::engine

#endif  // MAN_ENGINE_BATCH_RUNNER_H
