#include "man/serve/engine_cache.h"

#include <cstdlib>
#include <filesystem>
#include <utility>

#include "man/artifact/plan_artifact.h"
#include "man/core/alphabet_set.h"
#include "man/engine/layer_alphabet_plan.h"
#include "man/nn/constraint_projection.h"
#include "man/util/serialize.h"

namespace man::serve {

namespace {

constexpr std::uint64_t kUntrainedSeed = 42;

std::string resolve_plan_dir(std::string plan_dir) {
  if (!plan_dir.empty()) return plan_dir;
  const char* env = std::getenv("MAN_PLAN_CACHE");
  return env == nullptr ? std::string() : std::string(env);
}

}  // namespace

std::string EngineSpec::key() const {
  const auto& app_spec = man::apps::get_app(app);
  std::string key = app_spec.name + "|bits=" +
                    std::to_string(app_spec.weight_bits) +
                    "|alphabets=" + std::to_string(alphabets) +
                    "|lanes=" + std::to_string(lanes);
  if (trained) {
    key += "|trained|scale=" + std::to_string(dataset_scale);
  } else {
    key += "|untrained";
  }
  return key;
}

EngineCache::EngineCache(std::string model_dir, std::string plan_dir)
    : models_(std::move(model_dir)),
      plan_dir_(resolve_plan_dir(std::move(plan_dir))) {}

std::shared_ptr<const man::engine::FixedNetwork> EngineCache::get(
    const EngineSpec& spec) {
  const std::string key = spec.key();

  std::promise<std::shared_ptr<const man::engine::FixedNetwork>> promise;
  EngineFuture future;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(engines_mutex_);
    auto it = engines_.find(key);
    if (it != engines_.end()) {
      future = it->second;
    } else {
      future = promise.get_future().share();
      engines_.emplace(key, future);
      builder = true;
    }
  }

  if (!builder) return future.get();

  // Build outside the lock: a slow training run must not block
  // lookups or builds of other keys.
  try {
    auto engine = load_or_build(spec, key);
    promise.set_value(engine);
    return engine;
  } catch (...) {
    promise.set_exception(std::current_exception());
    {
      // Drop the poisoned entry so a later call can retry; waiters
      // already holding the future still see the original error.
      std::lock_guard<std::mutex> lock(engines_mutex_);
      engines_.erase(key);
    }
    throw;
  }
}

TieredEngine EngineCache::tiered(const EngineSpec& base,
                                 const std::vector<QosTier>& ladder) {
  TieredEngine tiered;
  tiered.tiers.reserve(ladder.size());
  for (const QosTier& tier : ladder) {
    EngineSpec spec = base;
    spec.alphabets = tier.alphabets;
    tiered.tiers.push_back({tier, get(spec)});
  }
  tiered.validate();
  return tiered;
}

std::shared_ptr<const man::data::Dataset> EngineCache::dataset(
    man::apps::AppId app, double scale) {
  const auto& app_spec = man::apps::get_app(app);
  const std::string key =
      app_spec.name + "|scale=" + std::to_string(scale);
  {
    std::lock_guard<std::mutex> lock(dataset_mutex_);
    auto it = datasets_.find(key);
    if (it != datasets_.end()) return it->second;
  }
  // Synthetic generation is deterministic, so a rare duplicate build
  // (two threads missing at once) yields identical data; last insert
  // wins and both copies are valid.
  auto built = std::make_shared<const man::data::Dataset>(
      app_spec.make_dataset(scale));
  std::lock_guard<std::mutex> lock(dataset_mutex_);
  auto [it, inserted] = datasets_.emplace(key, std::move(built));
  return it->second;
}

std::size_t EngineCache::size() const {
  using namespace std::chrono_literals;
  std::lock_guard<std::mutex> lock(engines_mutex_);
  std::size_t total = 0;
  for (const auto& [key, future] : engines_) {
    if (future.wait_for(0s) == std::future_status::ready) total += 1;
  }
  return total;
}

std::shared_ptr<const man::engine::FixedNetwork> EngineCache::load_or_build(
    const EngineSpec& spec, const std::string& key) {
  if (!plan_dir_.empty()) {
    const std::string path = man::artifact::artifact_path(plan_dir_, key);
    try {
      return man::artifact::load_engine(path, key);
    } catch (const man::util::SerializationError&) {
      // Missing, torn, corrupt, other version, other config: compile
      // below and republish.
    }
  }
  auto engine = build(spec);
  if (!plan_dir_.empty()) {
    // Best-effort publish for the next cold start; this process
    // already has its engine, so a full disk or read-only cache
    // directory must not fail the request.
    try {
      std::error_code ec;
      std::filesystem::create_directories(plan_dir_, ec);
      man::artifact::save_engine(
          *engine, man::artifact::artifact_path(plan_dir_, key), key);
    } catch (const std::exception&) {
    }
  }
  return engine;
}

std::shared_ptr<const man::engine::FixedNetwork> EngineCache::build(
    const EngineSpec& spec) {
  const auto& app_spec = man::apps::get_app(spec.app);
  const man::nn::QuantSpec quant = app_spec.quant();

  man::nn::Network net = app_spec.build_network(kUntrainedSeed);
  if (spec.trained) {
    const auto data = dataset(spec.app, spec.dataset_scale);
    if (spec.alphabets == 0) {
      net = models_.baseline(app_spec, *data, spec.dataset_scale);
    } else {
      net = models_.retrained(app_spec, *data, spec.dataset_scale,
                              man::core::AlphabetSet::first_n(spec.alphabets));
    }
  } else if (spec.alphabets > 0) {
    // Untrained ASM engines still get projected weights, so they run
    // the exact Algorithm 1 schedule a retrained engine would.
    const man::nn::ProjectionPlan plan(
        quant, man::core::AlphabetSet::first_n(spec.alphabets),
        net.num_weight_layers());
    plan.project_network(net);
  }

  const auto plan =
      spec.alphabets == 0
          ? man::engine::LayerAlphabetPlan::conventional(
                net.num_weight_layers())
          : man::engine::LayerAlphabetPlan::uniform_asm(
                net.num_weight_layers(),
                man::core::AlphabetSet::first_n(spec.alphabets));
  return std::make_shared<const man::engine::FixedNetwork>(net, quant, plan,
                                                           spec.lanes);
}

}  // namespace man::serve
