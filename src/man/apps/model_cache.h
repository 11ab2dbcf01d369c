// Disk cache of trained models. Training the Table IV networks takes
// minutes; every bench and example that needs a trained baseline or a
// constrained-retrained variant goes through this cache so the cost is
// paid once per configuration. Cache keys encode the app, bit width,
// dataset scale and alphabet set — any change invalidates the entry.
//
// Thread-safe: each configuration is guarded by its own mutex, so
// concurrent callers (the serving EngineCache warms several engines
// at once) train a given configuration exactly once and never race on
// its cache file; distinct configurations train in parallel.
#ifndef MAN_APPS_MODEL_CACHE_H
#define MAN_APPS_MODEL_CACHE_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "man/apps/app_registry.h"
#include "man/core/alphabet_set.h"
#include "man/nn/network.h"

namespace man::apps {

/// Trained-model cache rooted at a directory (created on demand).
class ModelCache {
 public:
  explicit ModelCache(std::string directory = "bench_cache");

  [[nodiscard]] const std::string& directory() const noexcept {
    return directory_;
  }

  /// The unconstrained float baseline of Algorithm 2 steps 1-2:
  /// trains (or loads) and returns the network. Sets *trained if the
  /// model had to be trained this call.
  [[nodiscard]] man::nn::Network baseline(
      const AppSpec& app, const man::data::Dataset& dataset,
      double dataset_scale, bool* trained = nullptr);

  /// The constrained-retrained network of Algorithm 2 step 3 for a
  /// uniform alphabet set (retrains from the cached baseline when not
  /// cached itself).
  [[nodiscard]] man::nn::Network retrained(
      const AppSpec& app, const man::data::Dataset& dataset,
      double dataset_scale, const man::core::AlphabetSet& set,
      bool* trained = nullptr);

  /// Mixed-alphabet variant (Fig 11): per-layer sets.
  [[nodiscard]] man::nn::Network retrained_mixed(
      const AppSpec& app, const man::data::Dataset& dataset,
      double dataset_scale,
      const std::vector<man::core::AlphabetSet>& per_layer_sets,
      bool* trained = nullptr);

 private:
  [[nodiscard]] std::string key_of(const AppSpec& app, double scale,
                                   const std::string& variant) const;
  [[nodiscard]] std::string path_of(const std::string& key) const;
  /// The network cached under `variant`'s key; on a miss, a fresh
  /// network through `train`, then cached. Holds the key's mutex
  /// throughout, and sets *trained when it trained.
  [[nodiscard]] man::nn::Network load_or_train(
      const AppSpec& app, double dataset_scale, const std::string& variant,
      const std::function<void(man::nn::Network&)>& train, bool* trained);
  /// The per-configuration mutex for `key`, created on first use.
  /// retrained() holds its own key's mutex while calling baseline()
  /// (a different key, so a different mutex — never recursive).
  [[nodiscard]] std::mutex& mutex_of(const std::string& key);

  std::string directory_;
  std::mutex registry_mutex_;  ///< guards key_mutexes_
  std::map<std::string, std::unique_ptr<std::mutex>> key_mutexes_;
};

}  // namespace man::apps

#endif  // MAN_APPS_MODEL_CACHE_H
