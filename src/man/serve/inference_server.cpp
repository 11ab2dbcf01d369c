#include "man/serve/inference_server.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "man/serve/thread_name.h"

namespace man::serve {

namespace {

/// Clamped Retry-After hint from the queue delay: at least 1 ms (a
/// queue that is full but not late still asks the client to back
/// off), at most 30 s.
std::chrono::milliseconds retry_after_hint(std::chrono::nanoseconds delay) {
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(delay) +
      std::chrono::milliseconds(1);
  return std::clamp(ms, std::chrono::milliseconds(1),
                    std::chrono::milliseconds(30'000));
}

/// How late the dispatcher may wake from its co-batching wait and
/// still start a request closed max_wait after submission before its
/// deadline. A deadline nearer than max_wait plus this closes the
/// request's batch at once instead.
constexpr std::chrono::milliseconds kWakeSlack{2};

InferenceResult make_rejection(Status status, std::string message,
                               std::chrono::milliseconds retry_after = {}) {
  InferenceResult result;
  result.status = status;
  result.message = std::move(message);
  result.retry_after = retry_after;
  return result;
}

}  // namespace

void InferenceServer::Pending::deliver(InferenceResult&& result) {
  if (callback) {
    callback(std::move(result));
  } else {
    promise.set_value(std::move(result));
  }
}

InferenceServer::InferenceServer(const man::engine::FixedNetwork& engine,
                                 ServeConfig config)
    : engine_(&engine), config_(std::move(config)) {
  config_.validate();
  if (!config_.qos_tiers.empty()) {
    throw std::invalid_argument(
        "InferenceServer: config carries a QoS ladder but only one engine "
        "was given — compile the ladder with EngineCache::tiered() and use "
        "the TieredEngine constructor");
  }
  TierRunner full;
  full.spec = {"full", 0};
  full.engine = engine_;
  full.runner = std::make_unique<man::engine::BatchRunner>(
      engine, config_.batch_options());
  tiers_.push_back(std::move(full));
  finish_init();
}

InferenceServer::InferenceServer(TieredEngine tiered, ServeConfig config)
    : engine_(nullptr), config_(std::move(config)) {
  tiered.validate();
  if (!config_.qos_tiers.empty() &&
      config_.qos_tiers.size() != tiered.size()) {
    throw std::invalid_argument(
        "InferenceServer: config.qos_tiers describes " +
        std::to_string(config_.qos_tiers.size()) +
        " tiers but the TieredEngine compiled " +
        std::to_string(tiered.size()));
  }
  if (config_.qos_min_tier >= tiered.size()) {
    throw std::invalid_argument(
        "InferenceServer: qos_min_tier (" +
        std::to_string(config_.qos_min_tier) +
        ") is past the last tier (ladder has " +
        std::to_string(tiered.size()) + ")");
  }
  // Keep config() self-describing when the caller built the
  // TieredEngine directly rather than from config.qos_tiers — and do
  // it before validate(), which checks the pin against the ladder.
  if (config_.qos_tiers.empty()) {
    for (const TieredEngine::Tier& tier : tiered.tiers) {
      config_.qos_tiers.push_back(tier.spec);
    }
  }
  config_.validate();
  tiers_.reserve(tiered.size());
  for (TieredEngine::Tier& tier : tiered.tiers) {
    TierRunner rung;
    rung.spec = tier.spec;
    rung.owned = std::move(tier.engine);
    rung.engine = rung.owned.get();
    rung.runner = std::make_unique<man::engine::BatchRunner>(
        *rung.engine, config_.batch_options());
    tiers_.push_back(std::move(rung));
  }
  engine_ = tiers_.front().engine;
  finish_init();
}

void InferenceServer::finish_init() {
  backend_name_ = tiers_.front().runner->kernel().name();
  metrics_.tier_batches.assign(tiers_.size(), 0);
  metrics_.tier_samples.assign(tiers_.size(), 0);
  stats_snapshot_ = merged_runner_stats();
  dispatcher_ = std::thread([this] {
    name_this_thread("man-dispatch");
    dispatch_loop();
  });
}

man::engine::EngineStats InferenceServer::merged_runner_stats() const {
  man::engine::EngineStats merged;
  for (const TierRunner& rung : tiers_) {
    man::engine::EngineStats stats = rung.runner->stats();
    stats.tier = rung.spec.name;
    merged.merge(stats);
  }
  return merged;
}

std::size_t InferenceServer::pick_tier(std::chrono::nanoseconds estimated_delay,
                                       std::chrono::microseconds slo,
                                       std::size_t tier_count,
                                       std::size_t min_tier) noexcept {
  if (tier_count == 0) return 0;
  const std::size_t last = tier_count - 1;
  const std::size_t floor_tier = std::min(min_tier, last);
  const std::int64_t slice =
      std::chrono::duration_cast<std::chrono::nanoseconds>(slo).count() /
      static_cast<std::int64_t>(tier_count);
  if (slice <= 0) return last;  // degenerate SLO: always cheapest
  const std::int64_t delay_ns = estimated_delay.count();
  if (delay_ns <= 0) return floor_tier;
  const std::int64_t pressure = delay_ns / slice;
  const std::size_t tier = pressure >= static_cast<std::int64_t>(last)
                               ? last
                               : static_cast<std::size_t>(pressure);
  return std::max(tier, floor_tier);
}

InferenceServer::~InferenceServer() { shutdown(); }

InferenceServer::Clock::time_point InferenceServer::flush_time(
    Clock::time_point now, Clock::time_point deadline) const noexcept {
  // A batch closing at (or just before) the deadline would find it
  // passed once the dispatcher wakes a little late, and expire the
  // request, so a deadline within kWakeSlack of the wait flushes at
  // once.
  const Clock::time_point patient = now + config_.max_wait;
  return deadline < patient + kWakeSlack ? now : patient;
}

void InferenceServer::admit(InferenceRequest request, Pending pending) {
  const std::size_t in_size = engine_->input_size();
  if (request.payload.empty() || request.payload.size() % in_size != 0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      metrics_.rejected_bad_request += 1;
    }
    pending.deliver(make_rejection(
        Status::kBadRequest,
        "payload of " + std::to_string(request.payload.size()) +
            " floats is not a non-zero whole number of " +
            std::to_string(in_size) + "-value samples"));
    return;
  }

  const auto now = Clock::now();
  pending.count = request.payload.size() / in_size;
  pending.pixels = std::move(request.payload);
  pending.hard_deadline = request.deadline;
  pending.flush_at = flush_time(now, request.deadline);
  pending.priority = request.priority;
  pending.enqueued_at = now;
  InferenceResult rejection;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::chrono::nanoseconds delay = queue_delay_locked(now);
    if (stopping_) {
      metrics_.rejected_shutdown += 1;
      rejection = make_rejection(Status::kShutdown,
                                 "server is shutting down");
    } else if (queued_samples_ + pending.count > config_.queue_capacity) {
      metrics_.rejected_overload += 1;
      metrics_.rejected_queue_full += 1;
      rejection = make_rejection(
          Status::kRejectedOverload,
          "queue full (" + std::to_string(queued_samples_) + " of " +
              std::to_string(config_.queue_capacity) + " samples queued)",
          retry_after_hint(delay));
    } else if (delay > config_.queue_delay_slo) {
      metrics_.rejected_overload += 1;
      metrics_.rejected_queue_delay += 1;
      rejection = make_rejection(
          Status::kRejectedOverload,
          "queue " +
              std::to_string(
                  std::chrono::duration_cast<std::chrono::microseconds>(delay)
                      .count()) +
              " us past its flush time exceeds the " +
              std::to_string(config_.queue_delay_slo.count()) + " us SLO",
          retry_after_hint(delay));
    } else {
      queued_samples_ += pending.count;
      earliest_flush_ = std::min(earliest_flush_, pending.flush_at);
      metrics_.requests += 1;
      metrics_.samples += pending.count;
      // Priority order: ahead of strictly lower priorities, FIFO
      // within the same priority (insertion point scans from the
      // back, so equal priorities keep arrival order).
      auto pos = queue_.end();
      while (pos != queue_.begin() &&
             std::prev(pos)->priority < pending.priority) {
        --pos;
      }
      queue_.insert(pos, std::move(pending));
      cv_.notify_one();  // only the dispatcher waits on cv_
      return;
    }
  }
  // Outside the lock: a callback may submit again.
  pending.deliver(std::move(rejection));
}

std::future<InferenceResult> InferenceServer::submit(
    InferenceRequest request) {
  Pending pending;
  std::future<InferenceResult> future = pending.promise.get_future();
  admit(std::move(request), std::move(pending));
  return future;
}

void InferenceServer::submit_async(InferenceRequest request,
                                   Callback callback) {
  Pending pending;
  pending.callback = std::move(callback);
  admit(std::move(request), std::move(pending));
}

void InferenceServer::shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_one();
  if (dispatcher_.joinable()) dispatcher_.join();
}

InferenceServer::Metrics InferenceServer::metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return metrics_;
}

man::engine::EngineStats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_snapshot_;
}

std::chrono::nanoseconds InferenceServer::estimated_queue_delay() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_delay_locked(Clock::now());
}

std::chrono::nanoseconds InferenceServer::queue_delay_locked(
    Clock::time_point now) const noexcept {
  return now > earliest_flush_
             ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                   now - earliest_flush_)
             : std::chrono::nanoseconds::zero();
}

void InferenceServer::dispatch_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }

    // Micro-batching wait: flush when the queue reaches max_batch
    // samples, when the earliest flush deadline among queued requests
    // arrives (one already in the past flushes immediately), or when
    // shutdown drains the queue.
    bool deadline_flush = false;
    while (!stopping_ && queued_samples_ < config_.max_batch) {
      if (Clock::now() >= earliest_flush_) {
        deadline_flush = true;
        break;
      }
      cv_.wait_until(lock, earliest_flush_);
    }
    if (stopping_ && queued_samples_ < config_.max_batch) {
      deadline_flush = true;  // drain counts as a deadline flush
    }

    // Pick the accuracy tier for this micro-batch from the delay
    // admission sheds on, before the batch is extracted: the oldest
    // overdue request, about to dispatch, is what votes. A cheaper
    // tier drains the queue sooner, and the tier climbs back once
    // nothing waits past its flush time: negative feedback.
    const std::size_t tier =
        pick_tier(queue_delay_locked(Clock::now()), config_.queue_delay_slo,
                  tiers_.size(), config_.qos_min_tier);

    // Close the micro-batch: whole requests only, in queue order, up
    // to max_batch samples — except that a single oversized request
    // is dispatched alone rather than split or rejected. Requests
    // whose hard deadline already passed are expired here (they never
    // reach compute and do not count against the batch budget).
    const Clock::time_point close_time = Clock::now();
    std::vector<Pending> batch;
    std::vector<Pending> expired;
    std::size_t total_samples = 0;
    while (!queue_.empty()) {
      Pending& front = queue_.front();
      if (front.hard_deadline <= close_time) {
        queued_samples_ -= front.count;
        metrics_.deadline_expired += 1;
        expired.push_back(std::move(front));
        queue_.pop_front();
        continue;
      }
      if (!batch.empty() &&
          total_samples + front.count > config_.max_batch) {
        break;
      }
      total_samples += front.count;
      batch.push_back(std::move(front));
      queue_.pop_front();
      if (total_samples >= config_.max_batch) break;
    }
    queued_samples_ -= total_samples;
    // Flush deadlines need not be monotonic in arrival order
    // (explicit deadlines and priority insertion both reorder), so
    // the rest of the queue is scanned once per batch.
    earliest_flush_ = Clock::time_point::max();
    for (const Pending& pending : queue_) {
      earliest_flush_ = std::min(earliest_flush_, pending.flush_at);
    }
    if (!batch.empty()) {
      metrics_.batches += 1;
      if (deadline_flush) {
        metrics_.deadline_flushes += 1;
      } else {
        metrics_.size_flushes += 1;
      }
      metrics_.largest_batch =
          std::max(metrics_.largest_batch, total_samples);
    }

    lock.unlock();
    for (Pending& pending : expired) {
      InferenceResult result = make_rejection(
          Status::kDeadlineExceeded,
          "hard deadline passed before compute started");
      result.queue_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              close_time - pending.enqueued_at)
              .count());
      pending.deliver(std::move(result));
    }
    if (!batch.empty()) run_batch(batch, total_samples, tier, lock);
    lock.lock();
  }
}

void InferenceServer::run_batch(std::vector<Pending>& batch,
                                std::size_t total_samples, std::size_t tier,
                                std::unique_lock<std::mutex>& lock) {
  TierRunner& rung = tiers_[tier];
  const std::size_t in_size = engine_->input_size();
  const std::size_t out_size = engine_->output_size();
  const Clock::time_point started = Clock::now();

  std::vector<float> inputs;
  inputs.reserve(total_samples * in_size);
  for (const Pending& pending : batch) {
    inputs.insert(inputs.end(), pending.pixels.begin(), pending.pixels.end());
  }

  std::vector<std::int64_t> raw(total_samples * out_size);
  std::exception_ptr error;
  std::string reason = "engine error";
  try {
    rung.runner->run(inputs, raw);
  } catch (const std::exception& e) {
    error = std::current_exception();
    reason += std::string(": ") + e.what();
  } catch (...) {
    error = std::current_exception();
  }

  // Count the batch and refresh the stats snapshot before any result
  // is delivered, so stats() read after a result arrives includes it.
  lock.lock();
  metrics_.tier_batches[tier] += 1;
  metrics_.tier_samples[tier] += total_samples;
  stats_snapshot_ = merged_runner_stats();
  lock.unlock();

  if (error) {
    // An engine failure is not expressible as a per-request Status
    // beyond "cannot serve": promise holders get the exception,
    // callback holders a kShutdown result carrying the reason.
    for (Pending& pending : batch) {
      if (pending.callback) {
        pending.callback(make_rejection(Status::kShutdown, reason));
      } else {
        pending.promise.set_exception(error);
      }
    }
    return;
  }

  const std::uint64_t compute_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           started)
          .count());

  std::size_t sample_offset = 0;
  for (Pending& pending : batch) {
    InferenceResult result;
    result.status = Status::kOk;
    result.samples = pending.count;
    result.output_size = out_size;
    const auto begin =
        raw.begin() + static_cast<std::ptrdiff_t>(sample_offset * out_size);
    result.raw.assign(begin,
                      begin + static_cast<std::ptrdiff_t>(pending.count *
                                                          out_size));
    result.predictions.resize(pending.count);
    for (std::size_t s = 0; s < pending.count; ++s) {
      result.predictions[s] = man::engine::argmax_raw(
          std::span<const std::int64_t>(result.raw)
              .subspan(s * out_size, out_size));
    }
    result.queue_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            started - pending.enqueued_at)
            .count());
    result.compute_ns = compute_ns;
    result.backend = backend_name_;
    result.tier = tier;
    result.tier_name = rung.spec.name;
    sample_offset += pending.count;
    pending.deliver(std::move(result));
  }
}

}  // namespace man::serve
