// The typed serving API shared by the in-process submit() path and
// the HTTP front-end: a Status enum every response carries (mapped
// 1:1 onto wire status codes), a typed InferenceRequest carrying the
// payload plus per-request deadline and priority, a typed
// InferenceResult that can express rejection and overload — not just
// success — and one ServeConfig holding every serving knob, the
// BatchOptions slice included.
#ifndef MAN_SERVE_SERVE_TYPES_H
#define MAN_SERVE_SERVE_TYPES_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "man/backend/kernel_backend.h"
#include "man/engine/batch_runner.h"
#include "man/serve/thread_pool.h"

namespace man::serve {

/// Outcome of one serving request. Shared verbatim between the
/// in-process path (InferenceServer::submit) and the HTTP front-end,
/// which maps it onto wire status codes via http_status_for().
enum class Status : std::uint8_t {
  kOk = 0,               ///< served; payload fields are valid
  kDeadlineExceeded,     ///< hard deadline passed before compute began
  kRejectedOverload,     ///< admission control shed the request
  kBadRequest,           ///< malformed payload (empty / ragged / undecodable)
  kShutdown,             ///< server is stopping; request not accepted
};

/// Stable lowercase label ("ok", "deadline_exceeded", ...) — the
/// `status` field of every wire response.
[[nodiscard]] const char* status_name(Status status) noexcept;

/// The HTTP status code a Status maps to: 200 / 504 / 429 / 400 / 503.
[[nodiscard]] int http_status_for(Status status) noexcept;

/// One rung of the accuracy/energy QoS ladder: a named precision
/// scheme the dispatcher may serve a micro-batch at. Tier 0 is the
/// model's full-precision compile; higher indices trade accuracy for
/// per-sample time (the paper's error-resiliency knob, moved to
/// serving time). `alphabets` follows EngineSpec: 0 compiles the
/// conventional exact-multiplier plan, n > 0 the uniform ASM plan
/// over AlphabetSet::first_n(n).
struct QosTier {
  std::string name;       ///< wire label ("asm4", "exact", ...)
  std::size_t alphabets;  ///< EngineSpec::alphabets for this rung
};

/// Parses a tier-ladder spec "scheme[,scheme...][;min=N]" where each
/// scheme is `exact` or `asm<1..8>`, e.g. "asm4,asm2,asm1;min=1".
/// Tier names are the scheme tokens and must be unique. When
/// `min_tier` is non-null the optional ";min=N" suffix is stored
/// there (0 when absent). Throws std::invalid_argument on a malformed
/// spec, a duplicate scheme, or min >= the ladder length.
[[nodiscard]] std::vector<QosTier> parse_qos_tiers(
    std::string_view spec, std::size_t* min_tier = nullptr);

/// N compiled variants of one model, ordered full-precision first —
/// what a tier-aware InferenceServer dispatches over. Built by
/// EngineCache::tiered(); every tier shares the app (and therefore
/// input/output geometry), differing only in precision scheme.
struct TieredEngine {
  struct Tier {
    QosTier spec;
    std::shared_ptr<const man::engine::FixedNetwork> engine;
  };
  std::vector<Tier> tiers;

  [[nodiscard]] std::size_t size() const noexcept { return tiers.size(); }

  /// Throws std::invalid_argument when empty, a tier engine is null,
  /// a tier name is empty or duplicated, or input/output sizes differ
  /// across tiers (they must, by construction, agree).
  void validate() const;
};

/// One typed inference request: a contiguous payload of one or more
/// samples plus per-request scheduling metadata.
struct InferenceRequest {
  using Clock = std::chrono::steady_clock;

  /// Which model this request addresses. Informational on the
  /// in-process path (the InferenceServer is already bound to one
  /// engine); the HTTP front-end routes on it and echoes it back.
  std::string model_key;
  /// count × input_size floats, never split across micro-batches.
  std::vector<float> payload;
  /// Hard deadline: if compute has not *started* by this instant the
  /// request resolves kDeadlineExceeded instead of being served. A
  /// deadline nearer than ServeConfig::max_wait plus 2 ms skips the
  /// co-batching wait: the request's batch closes at once.
  /// time_point::max() (the default) means "no deadline".
  Clock::time_point deadline = Clock::time_point::max();
  /// Scheduling hint: higher-priority requests are queued ahead of
  /// lower-priority ones awaiting the same micro-batch (FIFO within
  /// one priority). Does not preempt a batch already dispatched.
  int priority = 0;
};

/// Typed response for one request. `status` is always meaningful;
/// the payload fields (raw/predictions/...) are populated only for
/// kOk. Bit-identity contract: for kOk, `raw` equals what sequential
/// FixedNetwork::infer_into produces for the same payload.
struct InferenceResult {
  Status status = Status::kOk;
  /// Human-readable detail for non-kOk outcomes ("queue full", ...).
  std::string message;
  std::size_t samples = 0;
  std::size_t output_size = 0;
  /// samples × output_size raw final-layer accumulators.
  std::vector<std::int64_t> raw;
  /// One argmax prediction per sample (shared tie-breaking).
  std::vector<int> predictions;
  /// Time spent queued awaiting micro-batch dispatch.
  std::uint64_t queue_ns = 0;
  /// Wall time of the micro-batch this request was served in.
  std::uint64_t compute_ns = 0;
  /// Kernel backend that served the request ("scalar"/"blocked"/...).
  std::string backend;
  /// Accuracy tier the request was served at: ladder index (0 = full
  /// precision) and its wire label ("asm4", ...; "full" on a server
  /// without a configured ladder). The HTTP front-end surfaces the
  /// label as the X-Man-Accuracy-Tier response header.
  std::size_t tier = 0;
  std::string tier_name;
  /// For kRejectedOverload: suggested client back-off (at least
  /// 1 ms, from the queue delay).
  std::chrono::milliseconds retry_after{0};

  [[nodiscard]] bool ok() const noexcept { return status == Status::kOk; }
};

/// Every serving knob in one composable config: micro-batching,
/// worker pool, kernel backend, and the admission-control bounds
/// InferenceServer enforces; workers/backend/pool sit next to the
/// batching knobs they interact with.
struct ServeConfig {
  // --- micro-batching -------------------------------------------------
  /// Flush threshold in samples (oversized requests still dispatch
  /// whole; they are never split).
  std::size_t max_batch = 64;
  /// Default co-batching wait for requests without a deadline.
  std::chrono::microseconds max_wait{500};

  // --- execution ------------------------------------------------------
  /// Worker threads; 0 auto-detects (clamped to [1, 16]), and an
  /// explicit count above 64 runs 64 (BatchOptions::workers).
  int workers = 0;
  /// Below this many samples per worker the shard count shrinks.
  std::size_t min_samples_per_worker = 1;
  /// Kernel backend; nullopt defers to MAN_BACKEND then CPU detection.
  std::optional<man::backend::BackendKind> backend;
  /// Persistent pool shared across servers; null = private pool.
  std::shared_ptr<ThreadPool> pool;

  // --- admission control ---------------------------------------------
  /// Bounded request queue, in samples: a submit that would push the
  /// queue beyond this resolves kRejectedOverload immediately.
  std::size_t queue_capacity = 4096;
  /// Load-shedding SLO: once the queue delay (how far the queue's
  /// earliest flush time is overdue) exceeds this, submit resolves
  /// new work kRejectedOverload with a Retry-After hint (HTTP 429).
  /// On a tiered server this is also the degradation scale: tier t
  /// engages once the delay reaches t/T of the SLO, so precision
  /// steps down before the shedding threshold is reached.
  std::chrono::microseconds queue_delay_slo{50'000};

  // --- accuracy/energy QoS ladder -------------------------------------
  /// Tier ladder spec, full precision first (see QosTier). Empty
  /// means untiered: the server serves its one engine as tier 0
  /// ("full"). Call sites build the matching TieredEngine from this
  /// via EngineCache::tiered().
  std::vector<QosTier> qos_tiers;
  /// Min-tier pin: the dispatcher never serves a tier *below* this
  /// index, pinning the server at (or past) that degradation rung —
  /// e.g. 1 on an asm4/asm2/asm1 ladder permanently forgoes asm4.
  /// Must be < the ladder length (or 0 when untiered).
  std::size_t qos_min_tier = 0;

  /// Applies the MAN_QOS_TIERS environment override (same grammar as
  /// parse_qos_tiers, including the ";min=N" pin) to
  /// qos_tiers/qos_min_tier. No-op when the variable is unset; throws
  /// std::invalid_argument when it is set but malformed.
  void apply_qos_env();

  /// Throws std::invalid_argument on nonsense values (zero queue
  /// capacity, zero max_batch, negative waits/SLO, negative workers,
  /// zero min_samples_per_worker, a malformed tier ladder or an
  /// out-of-range min-tier pin).
  void validate() const;

  /// The BatchOptions slice the dispatch BatchRunner consumes.
  [[nodiscard]] man::engine::BatchOptions batch_options() const;
};

}  // namespace man::serve

#endif  // MAN_SERVE_SERVE_TYPES_H
