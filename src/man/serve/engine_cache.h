// In-process cache of compiled fixed-point engines, layered over the
// on-disk apps::ModelCache: many FixedNetwork / alphabet-plan
// configurations are served concurrently from one process, each
// trained and compiled exactly once no matter how many threads ask.
// Lookups run once per model at start-up, so one lock guards the map;
// a miss publishes a shared_future and builds outside the lock, so
// distinct keys build in parallel and concurrent requests for the same
// key wait on the one build instead of repeating it (model_cache
// previously retrained per call site).
#ifndef MAN_SERVE_ENGINE_CACHE_H
#define MAN_SERVE_ENGINE_CACHE_H

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "man/apps/app_registry.h"
#include "man/apps/model_cache.h"
#include "man/data/dataset.h"
#include "man/engine/fixed_network.h"
#include "man/serve/serve_types.h"

namespace man::serve {

/// One servable engine configuration. The key covers every field —
/// changing the app, alphabet count, training mode, dataset scale or
/// lane count addresses a different engine.
struct EngineSpec {
  man::apps::AppId app = man::apps::AppId::kDigitMlp8;
  /// Alphabet ladder rung: 0 compiles the conventional-multiplier
  /// plan, n > 0 the uniform ASM plan over AlphabetSet::first_n(n)
  /// ({1} == MAN).
  std::size_t alphabets = 1;
  /// true: weights come from the ModelCache training pipeline
  /// (baseline for alphabets == 0, constrained retraining otherwise).
  /// false: deterministic untrained initialization — instant, for
  /// load tests and serving plumbing where accuracy is irrelevant.
  bool trained = true;
  /// Dataset scale for the training pipeline (ignored when untrained).
  double dataset_scale = 0.1;
  /// CSHM sharing degree of the compiled engine (paper: 4).
  int lanes = 4;

  [[nodiscard]] std::string key() const;
};

/// Thread-safe engine cache. get() may be called from any
/// number of threads; every caller asking for the same spec receives
/// the same shared engine (FixedNetwork::infer_into is const and
/// re-entrant, so one compiled engine serves arbitrarily many servers
/// and runners).
class EngineCache {
 public:
  /// `model_dir` roots the on-disk trained-model cache. `plan_dir`
  /// roots the compiled-plan artifact tier: non-empty enables it,
  /// empty falls back to the MAN_PLAN_CACHE environment variable
  /// (unset/empty disables the tier — every miss trains + compiles).
  explicit EngineCache(std::string model_dir = "bench_cache",
                       std::string plan_dir = {});

  /// Returns the engine for `spec`, building on first use. With the
  /// plan-artifact tier enabled, a process-local miss first tries to
  /// mmap a saved artifact keyed by spec.key() (instant, zero
  /// train/compile work); otherwise it builds (for trained specs,
  /// training via the ModelCache) and publishes the artifact
  /// best-effort for the next cold start. A failed build is not
  /// poisoned: the error propagates to every waiter, then the entry
  /// is dropped so a later call can retry.
  [[nodiscard]] std::shared_ptr<const man::engine::FixedNetwork> get(
      const EngineSpec& spec);

  /// Root of the plan-artifact tier; empty when disabled.
  [[nodiscard]] const std::string& plan_dir() const noexcept {
    return plan_dir_;
  }

  /// N compiled precision variants of `base` as one TieredEngine,
  /// ordered as `ladder` is (full precision first, by convention):
  /// each tier reuses `base` with its `alphabets` swapped in, so the
  /// variants differ only in precision scheme and share every cached
  /// build. The result is validated (same-app tiers always share
  /// geometry). Tier keys overlap ordinary get() keys — a ladder rung
  /// equal to an engine already served standalone is the same engine.
  [[nodiscard]] TieredEngine tiered(const EngineSpec& base,
                                    const std::vector<QosTier>& ladder);

  /// The synthetic dataset for an app at a scale, built once and
  /// shared (servers and demos use the test split as traffic).
  [[nodiscard]] std::shared_ptr<const man::data::Dataset> dataset(
      man::apps::AppId app, double scale);

  /// Engines resident (successfully built).
  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] man::apps::ModelCache& models() noexcept { return models_; }

 private:
  using EngineFuture =
      std::shared_future<std::shared_ptr<const man::engine::FixedNetwork>>;

  [[nodiscard]] std::shared_ptr<const man::engine::FixedNetwork> build(
      const EngineSpec& spec);
  [[nodiscard]] std::shared_ptr<const man::engine::FixedNetwork>
  load_or_build(const EngineSpec& spec, const std::string& key);

  man::apps::ModelCache models_;
  std::string plan_dir_;
  mutable std::mutex engines_mutex_;
  std::unordered_map<std::string, EngineFuture> engines_;

  std::mutex dataset_mutex_;
  std::map<std::string, std::shared_ptr<const man::data::Dataset>> datasets_;
};

}  // namespace man::serve

#endif  // MAN_SERVE_ENGINE_CACHE_H
