#include "man/engine/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <stdexcept>
#include <thread>

#include "man/backend/layer_plan.h"

namespace man::engine {

namespace {

int resolve_workers(int requested) {
  if (requested > 0) return std::min(requested, 64);
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw), 1, 16);
}

}  // namespace

BatchRunner::BatchRunner(const FixedNetwork& network, BatchOptions options)
    : network_(&network),
      kernel_(&man::backend::resolve(options.backend)),
      workers_(resolve_workers(options.workers)),
      min_samples_per_worker_(std::max<std::size_t>(
          1, options.min_samples_per_worker)),
      pool_(std::move(options.pool)),
      stats_(network.make_stats()) {
  if (options.workers < 0) {
    throw std::invalid_argument(
        "BatchRunner: workers must be >= 0 (0 = auto), got " +
        std::to_string(options.workers));
  }
  if (pool_ != nullptr) workers_ = std::min(workers_, pool_->size());
  stats_.backend = kernel_->name();
}

void BatchRunner::run_sharded(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t, EngineStats&,
                             ScratchSlot&)>& fn) {
  if (count == 0) return;

  const std::size_t shards = std::min<std::size_t>(
      static_cast<std::size_t>(workers_),
      (count + min_samples_per_worker_ - 1) / min_samples_per_worker_);
  // Default-constructed slots serve as they are: a slot holds only
  // buffers, which the first call sizes.
  if (scratches_.size() < shards) scratches_.resize(shards);

  if (shards <= 1) {
    EngineStats local = network_->make_stats();
    fn(0, count, local, scratches_[0]);
    stats_.merge(local);
    return;
  }

  // First parallel run with no shared pool: create the private pool
  // once and keep it — never a thread per run().
  if (pool_ == nullptr) {
    pool_ = std::make_shared<man::serve::ThreadPool>(workers_);
  }

  // Contiguous shards (shard w takes [w*per + min(w, extra) ...), so
  // shard sizes differ by at most one sample), each cut into ranges of
  // one dense tile, the last range taking the shard's remainder: the
  // ranges form the same tiles as one call per shard. Every worker
  // claims the next unclaimed range until none is left. On a quiet
  // machine each runs about one shard's worth; when the scheduler
  // starts a worker late or puts two on one CPU, the others take its
  // ranges instead of the call waiting on a straggler's whole shard.
  const std::size_t per = count / shards;
  const std::size_t extra = count % shards;
  const auto tile = static_cast<std::size_t>(man::backend::kDenseTile);
  std::vector<std::size_t> bounds{0};
  for (std::size_t w = 0; w < shards; ++w) {
    const std::size_t end = bounds.back() + per + (w < extra ? 1 : 0);
    while (end - bounds.back() >= 2 * tile) {
      bounds.push_back(bounds.back() + tile);
    }
    bounds.push_back(end);
  }
  const std::size_t ranges = bounds.size() - 1;
  std::atomic<std::size_t> next_range{0};

  std::vector<EngineStats> shard_stats(shards);
  std::vector<std::future<void>> pending;
  pending.reserve(shards);

  for (std::size_t w = 0; w < shards; ++w) {
    pending.push_back(pool_->submit([&, w] {
      EngineStats local = network_->make_stats();
      for (std::size_t r;
           (r = next_range.fetch_add(1, std::memory_order_relaxed)) <
           ranges;) {
        fn(bounds[r], bounds[r + 1], local, scratches_[w]);
      }
      shard_stats[w] = std::move(local);
    }));
  }
  // Every shard must finish before we unwind (the tasks capture
  // references to locals); only then rethrow the first failure.
  for (std::future<void>& f : pending) f.wait();
  for (std::future<void>& f : pending) f.get();

  // Fixed shard order keeps the reduction deterministic (the counts
  // are integers, so it is also order-independent — belt and braces).
  for (EngineStats& local : shard_stats) stats_.merge(local);
}

void BatchRunner::run(std::span<const float> inputs,
                      std::span<std::int64_t> outputs) {
  const std::size_t in_size = network_->input_size();
  const std::size_t out_size = network_->output_size();
  if (in_size == 0 || inputs.size() % in_size != 0) {
    throw std::invalid_argument(
        "BatchRunner: input span is not a whole number of samples");
  }
  const std::size_t count = inputs.size() / in_size;
  if (outputs.size() != count * out_size) {
    throw std::invalid_argument(
        "BatchRunner: output span has " + std::to_string(outputs.size()) +
        " slots for " + std::to_string(count) + " samples of " +
        std::to_string(out_size));
  }

  // Each range goes to the engine in one call, so its full batch tiles
  // form inside it.
  run_sharded(count, [&](std::size_t begin, std::size_t end,
                         EngineStats& stats, ScratchSlot& slot) {
    network_->infer_batch(
        inputs.subspan(begin * in_size, (end - begin) * in_size),
        outputs.subspan(begin * out_size, (end - begin) * out_size), stats,
        slot.scratch, *kernel_);
  });
}

std::vector<int> BatchRunner::predict(std::span<const float> inputs) {
  const std::size_t in_size = network_->input_size();
  if (in_size == 0 || inputs.size() % in_size != 0) {
    throw std::invalid_argument(
        "BatchRunner: input span is not a whole number of samples");
  }
  const std::size_t count = inputs.size() / in_size;
  std::vector<std::int64_t> raw(count * network_->output_size());
  run(inputs, raw);

  const std::size_t out_size = network_->output_size();
  std::vector<int> predictions(count);
  for (std::size_t i = 0; i < count; ++i) {
    predictions[i] = argmax_raw(
        std::span<const std::int64_t>(raw).subspan(i * out_size, out_size));
  }
  return predictions;
}

std::vector<int> BatchRunner::predict(
    std::span<const man::data::Example> examples) {
  const std::size_t in_size = network_->input_size();
  const std::size_t out_size = network_->output_size();
  for (const man::data::Example& example : examples) {
    if (example.pixels.size() != in_size) {
      throw std::invalid_argument(
          "BatchRunner: example has " + std::to_string(example.pixels.size()) +
          " pixels, engine expects " + std::to_string(in_size));
    }
  }
  std::vector<int> predictions(examples.size());
  run_sharded(examples.size(), [&](std::size_t begin, std::size_t end,
                                   EngineStats& stats, ScratchSlot& slot) {
    // The range's pixels, contiguous, so it runs as run() would.
    slot.pixels.clear();
    for (std::size_t i = begin; i < end; ++i) {
      slot.pixels.insert(slot.pixels.end(), examples[i].pixels.begin(),
                         examples[i].pixels.end());
    }
    slot.raw.resize((end - begin) * out_size);
    network_->infer_batch(slot.pixels, slot.raw, stats, slot.scratch,
                          *kernel_);
    const std::span<const std::int64_t> raw(slot.raw);
    for (std::size_t i = begin; i < end; ++i) {
      predictions[i] =
          argmax_raw(raw.subspan((i - begin) * out_size, out_size));
    }
  });
  return predictions;
}

BatchAccuracy BatchRunner::evaluate(
    std::span<const man::data::Example> examples) {
  BatchAccuracy result;
  result.predictions = predict(examples);
  if (examples.empty()) return result;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < examples.size(); ++i) {
    if (result.predictions[i] == examples[i].label) ++correct;
  }
  result.accuracy = static_cast<double>(correct) / examples.size();
  return result;
}

}  // namespace man::engine
