#include "man/apps/model_cache.h"

#include <filesystem>

#include "man/nn/model_io.h"
#include "man/nn/sgd.h"
#include "man/nn/trainer.h"
#include "man/util/serialize.h"

namespace man::apps {

namespace {

constexpr std::uint64_t kInitSeed = 42;

std::string sanitize(std::string s) {
  for (char& c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
          c == '_')) {
      c = '_';
    }
  }
  return s;
}

}  // namespace

ModelCache::ModelCache(std::string directory)
    : directory_(std::move(directory)) {
  std::filesystem::create_directories(directory_);
}

std::string ModelCache::key_of(const AppSpec& app, double scale,
                               const std::string& variant) const {
  return app.name + "|bits=" + std::to_string(app.weight_bits) +
         "|scale=" + std::to_string(scale) + "|" + variant + "|v2";
}

std::string ModelCache::path_of(const std::string& key) const {
  return directory_ + "/" +
         sanitize(key.substr(0, 48)) + "_" +
         std::to_string(man::util::fnv1a(key)) + ".bin";
}

std::mutex& ModelCache::mutex_of(const std::string& key) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  auto& slot = key_mutexes_[key];
  if (slot == nullptr) slot = std::make_unique<std::mutex>();
  return *slot;
}

man::nn::Network ModelCache::load_or_train(
    const AppSpec& app, double dataset_scale, const std::string& variant,
    const std::function<void(man::nn::Network&)>& train, bool* trained) {
  const std::string key = key_of(app, dataset_scale, variant);
  const std::string path = path_of(key);
  std::lock_guard<std::mutex> lock(mutex_of(key));

  man::nn::Network net = app.build_network(kInitSeed);
  const bool hit = man::nn::load_params(net, path, key);
  if (!hit) {
    train(net);
    (void)man::nn::save_params(net, path, key);
  }
  if (trained != nullptr) *trained = !hit;
  return net;
}

man::nn::Network ModelCache::baseline(const AppSpec& app,
                                      const man::data::Dataset& dataset,
                                      double dataset_scale, bool* trained) {
  return load_or_train(
      app, dataset_scale, "baseline",
      [&](man::nn::Network& net) {
        man::nn::Sgd::Options opts;
        opts.learning_rate = app.baseline_lr();
        opts.momentum = 0.9;
        man::nn::Sgd optimizer(net, opts);
        (void)man::nn::fit(net, optimizer, dataset.train,
                           app.baseline_training());
      },
      trained);
}

man::nn::Network ModelCache::retrained(const AppSpec& app,
                                       const man::data::Dataset& dataset,
                                       double dataset_scale,
                                       const man::core::AlphabetSet& set,
                                       bool* trained) {
  return load_or_train(
      app, dataset_scale, "asm" + set.to_string(),
      [&](man::nn::Network& net) {
        // Start from the trained baseline (Algorithm 2's restore point).
        net = baseline(app, dataset, dataset_scale);
        const man::nn::ProjectionPlan plan(app.quant(), set,
                                           net.num_weight_layers());
        (void)man::nn::retrain_constrained(net, dataset.train, dataset.test,
                                           plan, app.retraining(),
                                           app.retrain_lr());
      },
      trained);
}

man::nn::Network ModelCache::retrained_mixed(
    const AppSpec& app, const man::data::Dataset& dataset,
    double dataset_scale,
    const std::vector<man::core::AlphabetSet>& per_layer_sets,
    bool* trained) {
  std::string variant = "mixed";
  for (const auto& set : per_layer_sets) variant += set.to_string();
  return load_or_train(
      app, dataset_scale, variant,
      [&](man::nn::Network& net) {
        net = baseline(app, dataset, dataset_scale);
        const man::nn::ProjectionPlan plan(app.quant(), per_layer_sets);
        (void)man::nn::retrain_constrained(net, dataset.train, dataset.test,
                                           plan, app.retraining(),
                                           app.retrain_lr());
      },
      trained);
}

}  // namespace man::apps
