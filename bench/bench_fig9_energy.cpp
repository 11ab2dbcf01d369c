// Reproduces Fig 9 — network energy per inference normalized to the
// conventional implementation, grouped as in the paper: (a) 2-layer
// MLPs, (b) 5-6 layer MLPs, (c) 6-layer CNN — then cross-checks the
// static model's activity assumptions by replaying the digit MLP *and*
// the LeNet CNN through the fixed-point engine: once sample by sample
// on the scalar backend (the reference), once per registered kernel
// backend through a single-worker runner and once more sample by
// sample (all must agree with the reference bit for bit, dense and
// conv plans alike; any divergence exits 1, the CI gate) and once
// through the warm multi-worker runtime.
// Fixed-iteration mode for CI via MAN_REPLAY_SAMPLES /
// MAN_REPLAY_CNN_SAMPLES; per-backend timings land in MAN_BENCH_JSON
// when set.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench_common.h"
#include "man/artifact/plan_artifact.h"
#include "man/backend/kernel_backend.h"
#include "man/engine/batch_runner.h"
#include "man/hw/network_cost.h"
#include "man/nn/constraint_projection.h"
#include "man/util/rng.h"
#include "man/util/stopwatch.h"

namespace {

using man::apps::AppId;
using man::core::AlphabetSet;
using man::core::MultiplierKind;
using man::hw::compute_network_energy;
using man::hw::with_uniform_scheme;

/// Seconds over a value count as nanoseconds per value (0 when none
/// were counted) — shared by the breakdown table and its JSON twin.
double ns_per_value(double seconds, std::uint64_t values) {
  return values > 0 ? seconds * 1e9 / static_cast<double>(values) : 0.0;
}

std::size_t samples_from_env(const char* env_name,
                             std::size_t fallback) {
  if (const char* env = std::getenv(env_name)) {
    const int value = std::atoi(env);
    if (value > 0) return static_cast<std::size_t>(value);
  }
  return fallback;
}

/// ASM-4 engine for one registered app (weights projected to the
/// alphabet set first, so the datapath is exercised, not the
/// projection error).
man::engine::FixedNetwork build_replay_engine(AppId id) {
  const auto& app = man::apps::get_app(id);
  man::nn::Network net = app.build_network(/*seed=*/21);
  const AlphabetSet set = AlphabetSet::four();
  const man::nn::ProjectionPlan projection(app.quant(), set,
                                           net.num_weight_layers());
  projection.project_network(net);
  return man::engine::FixedNetwork(
      net, app.quant(),
      man::engine::LayerAlphabetPlan::uniform_asm(net.num_weight_layers(),
                                                  set));
}

struct BackendResult {
  std::string name;
  std::string description;
  double seconds = 0.0;             ///< one-worker runner (batch tiles)
  double per_sample_seconds = 0.0;  ///< infer_into, one sample at a time
  bool matches = false;
};

struct ReplayResult {
  std::size_t samples = 0;
  int workers = 0;
  std::vector<BackendResult> backends;
  double scalar_s = 0.0;         ///< per-sample scalar reference
  double scalar_runner_s = 0.0;  ///< scalar backend, one-worker runner
  double par_s = 0.0;
  std::string par_backend;
  bool identical = true;
  // Per-element phase attribution (one single-thread infer_batch,
  // auto backend).
  man::engine::PhaseProfile phases;
  std::size_t phase_samples = 0;
  std::string phase_backend;
  /// (layer name, "int32"/"int64") for every conv layer, in order.
  std::vector<std::pair<std::string, std::string>> conv_lanes;

  /// Share of the profiled single-thread time spent outside the
  /// kernels: the fused epilogue sweeps (quantize + staging + LUT +
  /// pool) over all five phases, one process's ratio.
  [[nodiscard]] double epilogue_share() const {
    const double epilogue =
        phases.quantize_s + phases.staging_s + phases.lut_s + phases.pool_s;
    const double total = epilogue + phases.kernel_s;
    return total > 0 ? epilogue / total : 0.0;
  }

  /// A runner time against the scalar backend's own one-worker runner,
  /// which tiles like every other runner row: the ratio is the
  /// kernels' alone, so a backend that fell back to scalar speed reads
  /// about 1x.
  [[nodiscard]] double speedup(double seconds) const {
    return seconds > 0 ? scalar_runner_s / seconds : 0.0;
  }
};

/// The lane width each synapse layer's conv kernel runs on ("int32"
/// or "int64"; empty for dense layers), in EngineStats layer order.
std::vector<std::string> conv_layer_lanes(
    const man::engine::FixedNetwork& engine) {
  std::vector<std::string> lanes;
  std::size_t conv_index = 0;
  for (const auto& stage : engine.compiled_model().stages) {
    if (std::holds_alternative<man::engine::CompiledConvStage>(stage)) {
      lanes.emplace_back(engine.conv_int32_lanes(conv_index++) ? "int32"
                                                                : "int64");
    } else if (std::holds_alternative<man::engine::CompiledDenseStage>(
                   stage)) {
      lanes.emplace_back();
    }
  }
  return lanes;
}

/// Replays `samples` random inferences through every registered
/// kernel backend (single worker) and through the multi-worker
/// BatchRunner, judging outputs and per-layer EngineStats against the
/// per-sample scalar reference. Prints the per-backend table; any
/// divergence clears `identical`.
ReplayResult run_replay(const man::engine::FixedNetwork& engine,
                        std::size_t samples, int workers) {
  ReplayResult result;
  result.samples = samples;
  result.workers = workers;

  man::util::Rng rng(2016);
  std::vector<float> batch(samples * engine.input_size());
  for (float& p : batch) p = static_cast<float>(rng.next_double());

  // One sample at a time through infer_into with one scratch: never a
  // batch tile, so this runs a backend's per-sample kernels (what
  // serving runs at micro-batches near 1). The first pass sizes the
  // scratch buffers and pages in the plan and staging tables; the
  // second is timed.
  const auto per_sample = [&](const man::backend::KernelBackend& kernel,
                              std::vector<std::int64_t>& raw,
                              man::engine::EngineStats& stats) {
    auto scratch = engine.make_scratch();
    const auto pass = [&] {
      for (std::size_t s = 0; s < samples; ++s) {
        engine.infer_into(
            std::span<const float>(batch.data() + s * engine.input_size(),
                                   engine.input_size()),
            std::span<std::int64_t>(raw.data() + s * engine.output_size(),
                                    engine.output_size()),
            stats, scratch, kernel);
      }
    };
    pass();
    stats = engine.make_stats();
    man::util::Stopwatch watch;
    pass();
    return watch.seconds();
  };

  // Reference: the scalar backend per sample, so every runner below
  // (all of which tile) is judged against an independent oracle.
  std::vector<std::int64_t> raw_ref(samples * engine.output_size());
  auto seq_stats = engine.make_stats();
  result.scalar_s = per_sample(
      man::backend::backend_for(man::backend::BackendKind::kScalar), raw_ref,
      seq_stats);

  // Every backend, the scalar one included, through a single-worker
  // runner (batch tiles engage) and per sample; both must match the
  // reference.
  for (const auto* backend : man::backend::all_backends()) {
    std::vector<std::int64_t> raw(samples * engine.output_size());
    man::engine::BatchRunner runner(
        engine, man::engine::BatchOptions{.workers = 1,
                                          .backend = backend->kind()});
    runner.run(batch, raw);  // warmup
    man::util::Stopwatch watch;
    runner.run(batch, raw);
    const double seconds = watch.seconds();
    bool matches = raw == raw_ref;
    auto stats = engine.make_stats();
    const double per_sample_seconds = per_sample(*backend, raw, stats);
    matches = matches && raw == raw_ref;
    if (backend->kind() == man::backend::BackendKind::kScalar) {
      result.scalar_runner_s = seconds;
    }
    result.identical = result.identical && matches;
    result.backends.push_back(BackendResult{backend->name(),
                                            backend->description(), seconds,
                                            per_sample_seconds, matches});
  }

  std::cout << "Scalar per-sample reference: "
            << man::util::format_double(result.scalar_s * 1e3, 1) << " ms\n";
  man::util::Table backends_table({"Backend", "Description", "runner ms",
                                   "per-sample ms",
                                   "Speedup vs scalar runner",
                                   "Bit-identical"});
  for (const BackendResult& row : result.backends) {
    backends_table.add_row(
        {row.name, row.description,
         man::util::format_double(row.seconds * 1e3, 1),
         man::util::format_double(row.per_sample_seconds * 1e3, 1),
         man::util::format_double(result.speedup(row.seconds), 2),
         row.matches ? "yes" : "NO"});
  }
  std::cout << backends_table.to_string();

  // Per-element phase attribution: where single-thread inference
  // spends its wall clock — CSHM staging (table reads + copy), the
  // activation LUT sweep, the kernel accumulation, pooling, and input
  // quantization — over one infer_batch of the first phase_samples
  // samples, the path the runner and the workloads take (full tiles
  // of the dense tail, the remainder per sample). Recorded in the
  // bench JSON so a regression in the staging/LUT/pool sweeps is
  // attributable to its phase, not smeared over total time.
  {
    result.phase_samples = std::min<std::size_t>(samples, 64);
    auto prof_scratch = engine.make_scratch();
    auto prof_stats = engine.make_stats();
    std::vector<std::int64_t> prof_out(result.phase_samples *
                                       engine.output_size());
    const std::span<const float> prof_in(
        batch.data(), result.phase_samples * engine.input_size());
    // One untimed pass first sizes the scratch buffers, so the profile
    // holds no first-touch allocation.
    engine.infer_batch(prof_in, prof_out, prof_stats, prof_scratch,
                       engine.default_kernel());
    prof_scratch.profile = &result.phases;
    engine.infer_batch(prof_in, prof_out, prof_stats, prof_scratch,
                       engine.default_kernel());
    result.phase_backend = engine.default_kernel().name();
    man::util::Table phase_table({"Phase", "ms", "ns/value"});
    phase_table.add_row(
        {"staging", man::util::format_double(result.phases.staging_s * 1e3, 2),
         man::util::format_double(
             ns_per_value(result.phases.staging_s,
                          result.phases.staged_values),
             2)});
    phase_table.add_row(
        {"lut", man::util::format_double(result.phases.lut_s * 1e3, 2),
         man::util::format_double(
             ns_per_value(result.phases.lut_s, result.phases.lut_values),
             2)});
    phase_table.add_row(
        {"kernel (" + result.phase_backend + ")",
         man::util::format_double(result.phases.kernel_s * 1e3, 2), "-"});
    phase_table.add_row(
        {"pool", man::util::format_double(result.phases.pool_s * 1e3, 2),
         "-"});
    phase_table.add_row(
        {"quantize",
         man::util::format_double(result.phases.quantize_s * 1e3, 2), "-"});
    std::cout << "Per-element phase breakdown (one infer_batch of "
              << result.phase_samples << " samples, 1 thread):\n"
              << phase_table.to_string() << "Epilogue share (outside the "
              << "kernels): "
              << man::util::format_double(result.epilogue_share(), 3) << "\n";
  }

  // Batched runtime on the auto backend: outputs and the per-layer
  // activity reduction must both match the sequential reference. One
  // untimed run first starts the pool and sizes the per-shard scratch,
  // so the timed run measures a warm runner, not its set-up.
  std::vector<std::int64_t> raw_par(samples * engine.output_size());
  man::engine::BatchRunner parallel(
      engine, man::engine::BatchOptions{.workers = workers});
  parallel.run(batch, raw_par);
  parallel.reset_stats();
  man::util::Stopwatch par_watch;
  parallel.run(batch, raw_par);
  result.par_s = par_watch.seconds();
  result.identical = result.identical && raw_par == raw_ref;

  const auto& par_stats = parallel.stats();
  result.par_backend = par_stats.backend;
  const std::vector<std::string> layer_lanes = conv_layer_lanes(engine);
  man::util::Table replay({"Layer", "Conv lanes", "MACs", "Bank firings",
                           "Total ops", "Matches sequential"});
  for (std::size_t i = 0; i < seq_stats.layers.size(); ++i) {
    const auto& seq_layer = seq_stats.layers[i];
    const auto& par_layer = par_stats.layers[i];
    const bool layer_match = seq_layer.macs == par_layer.macs &&
                             seq_layer.bank_activations ==
                                 par_layer.bank_activations &&
                             seq_layer.ops == par_layer.ops;
    result.identical = result.identical && layer_match;
    const std::string& lanes = layer_lanes[i];
    if (!lanes.empty()) result.conv_lanes.emplace_back(par_layer.name, lanes);
    replay.add_row({par_layer.name, lanes.empty() ? "-" : lanes,
                    std::to_string(par_layer.macs),
                    std::to_string(par_layer.bank_activations),
                    std::to_string(par_layer.ops.total()),
                    layer_match ? "yes" : "NO"});
  }
  std::cout << replay.to_string();
  std::cout << samples << " inferences: scalar runner "
            << man::util::format_double(result.scalar_runner_s * 1e3, 1)
            << " ms, " << workers << " workers (" << result.par_backend
            << ") " << man::util::format_double(result.par_s * 1e3, 1)
            << " ms (speedup "
            << man::util::format_double(result.speedup(result.par_s), 2)
            << "x)\n";
  return result;
}

struct ColdStartResult {
  double compile_s = 0.0;
  double load_s = 0.0;
  bool identical = false;

  [[nodiscard]] double speedup() const {
    return load_s > 0 ? compile_s / load_s : 0.0;
  }
};

/// Cold-start cost of the digit MLP engine: a fresh in-process build
/// (network construction, constraint projection, schedule
/// compilation) vs mmap-loading a published plan
/// artifact, bit-identity checked between the two on a shared sample
/// batch. This is the serving cold-start path: a process with a warm
/// MAN_PLAN_CACHE does the `load` column, one without does `compile`.
ColdStartResult run_cold_start(const man::engine::FixedNetwork& engine) {
  ColdStartResult result;
  man::util::Stopwatch compile_watch;
  const man::engine::FixedNetwork rebuilt =
      build_replay_engine(AppId::kDigitMlp8);
  result.compile_s = compile_watch.seconds();

  const auto dir =
      std::filesystem::temp_directory_path() / "man_fig9_cold_start";
  std::filesystem::create_directories(dir);
  const std::string key = "fig9_cold_start|digit_mlp8|asm4";
  const std::string path = man::artifact::artifact_path(dir.string(), key);
  man::artifact::save_engine(engine, path, key);

  man::util::Stopwatch load_watch;
  const auto loaded = man::artifact::load_engine(path, key);
  result.load_s = load_watch.seconds();

  result.identical = true;
  man::util::Rng rng(77);
  auto scratch = engine.make_scratch();
  auto stats = engine.make_stats();
  auto loaded_scratch = loaded->make_scratch();
  auto loaded_stats = loaded->make_stats();
  std::vector<float> pixels(engine.input_size());
  std::vector<std::int64_t> expected(engine.output_size());
  std::vector<std::int64_t> raw(loaded->output_size());
  for (int sample = 0; sample < 8; ++sample) {
    for (float& p : pixels) p = static_cast<float>(rng.next_double());
    engine.infer_into(pixels, expected, stats, scratch);
    loaded->infer_into(pixels, raw, loaded_stats, loaded_scratch);
    if (raw != expected) result.identical = false;
  }
  std::filesystem::remove_all(dir);
  return result;
}

void emit_json_section(std::ofstream& out, const char* name,
                       const ReplayResult& result, bool last) {
  out << "  \"" << name << "\": {\n    \"samples\": " << result.samples
      << ",\n    \"bit_identical\": "
      << (result.identical ? "true" : "false") << ",\n    \"auto_backend\": \""
      << man::backend::to_string(man::backend::detect_best_backend())
      << "\",\n    \"parallel_workers\": " << result.workers
      << ",\n    \"parallel_speedup\": "
      << man::util::format_double(result.speedup(result.par_s), 3)
      << ",\n    \"scalar_ms_per_sample\": "
      << man::util::format_double(
             result.samples > 0
                 ? result.scalar_s * 1e3 / static_cast<double>(result.samples)
                 : 0.0,
             4)
      << ",\n    \"epilogue_share\": "
      << man::util::format_double(result.epilogue_share(), 4)
      << ",\n    \"conv_lanes\": {";
  // Conv layers only, keyed by layer name: which lane width served
  // each one, so a CI log shows a silent int64 fallback.
  const char* separator = "";
  for (const auto& [layer, lanes] : result.conv_lanes) {
    out << separator << "\"" << layer << "\": \"" << lanes << "\"";
    separator = ", ";
  }
  out << "},\n    \"backends\": {\n";
  for (std::size_t i = 0; i < result.backends.size(); ++i) {
    const BackendResult& row = result.backends[i];
    out << "      \"" << row.name << "\": {\"ms\": "
        << man::util::format_double(row.seconds * 1e3, 3)
        << ", \"per_sample_ms\": "
        << man::util::format_double(row.per_sample_seconds * 1e3, 3)
        << ", \"speedup\": "
        << man::util::format_double(result.speedup(row.seconds), 3) << "}"
        << (i + 1 < result.backends.size() ? "," : "") << "\n";
  }
  out << "    },\n    \"phase_breakdown\": {\n      \"samples\": "
      << result.phase_samples << ",\n      \"backend\": \""
      << result.phase_backend << "\",\n      \"staging_ms\": "
      << man::util::format_double(result.phases.staging_s * 1e3, 3)
      << ",\n      \"lut_ms\": "
      << man::util::format_double(result.phases.lut_s * 1e3, 3)
      << ",\n      \"kernel_ms\": "
      << man::util::format_double(result.phases.kernel_s * 1e3, 3)
      << ",\n      \"pool_ms\": "
      << man::util::format_double(result.phases.pool_s * 1e3, 3)
      << ",\n      \"quantize_ms\": "
      << man::util::format_double(result.phases.quantize_s * 1e3, 3)
      << ",\n      \"staging_ns_per_value\": "
      << man::util::format_double(
             ns_per_value(result.phases.staging_s,
                          result.phases.staged_values),
             3)
      << ",\n      \"lut_ns_per_value\": "
      << man::util::format_double(
             ns_per_value(result.phases.lut_s, result.phases.lut_values), 3)
      << "\n    }\n  }" << (last ? "\n" : ",\n");
}

void print_group(const char* title, const std::vector<AppId>& ids) {
  std::cout << "\n" << title << "\n";
  man::util::Table table({"Application", "conv (nJ)", "4 {1,3,5,7}",
                          "2 {1,3}", "1 {1} (MAN)", "MAN saving (%)"});
  for (AppId id : ids) {
    const auto spec = man::apps::get_app(id).energy_spec();
    const double conv =
        compute_network_energy(spec).total_energy_pj;
    std::vector<std::string> cells{
        man::apps::get_app(id).name,
        man::util::format_double(conv * 1e-3, 2)};
    double man_energy = conv;
    for (std::size_t n : {4u, 2u, 1u}) {
      const AlphabetSet set = AlphabetSet::first_n(n);
      const auto kind = n == 1 ? MultiplierKind::kMan : MultiplierKind::kAsm;
      const double energy =
          compute_network_energy(with_uniform_scheme(spec, kind, set))
              .total_energy_pj;
      if (n == 1) man_energy = energy;
      cells.push_back(man::util::format_double(energy / conv, 3));
    }
    cells.push_back(man::util::format_percent(1.0 - man_energy / conv));
    table.add_row(cells);
  }
  std::cout << table.to_string();
}

}  // namespace

int main() {
  man::bench::print_banner(
      "Fig 9: network energy per inference, normalized to conventional");

  print_group("(a) 2-layer MLPs",
              {AppId::kDigitMlp8, AppId::kFaceMlp12});
  print_group("(b) 5-6 layer MLPs",
              {AppId::kSvhnMlp8, AppId::kTichMlp8});
  print_group("(c) 6-layer CNN", {AppId::kDigitCnn12});

  // Paper: "the amount of energy savings increases almost linearly
  // with the increase in NN size" — absolute savings per app:
  man::bench::print_banner("Absolute MAN savings vs network size");
  man::util::Table table({"Application", "MACs/inference",
                          "conv energy (nJ)", "MAN saving (nJ)"});
  for (const auto& app : man::apps::all_apps()) {
    const auto spec = app.energy_spec();
    const double conv = compute_network_energy(spec).total_energy_pj;
    const double man_energy =
        compute_network_energy(
            with_uniform_scheme(spec, MultiplierKind::kMan,
                                AlphabetSet::man()))
            .total_energy_pj;
    table.add_row({app.name, std::to_string(spec.total_macs()),
                   man::util::format_double(conv * 1e-3, 2),
                   man::util::format_double((conv - man_energy) * 1e-3, 2)});
  }
  std::cout << table.to_string();

  // Engine replays: the per-layer activity behind the Fig 9 numbers,
  // recorded live — once per registered kernel backend sequentially,
  // once through the batched runtime, for the digit MLP (dense plans)
  // and the LeNet CNN (conv plans). Any divergence would invalidate
  // the energy accounting, so a mismatch fails the bench. This is the
  // CI bit-exactness gate for the multi-backend dispatch.
  const int workers = [] {
    const int requested = man::bench::bench_workers();
    return requested > 0 ? requested : 8;
  }();
  const std::size_t mlp_samples = samples_from_env("MAN_REPLAY_SAMPLES", 512);
  const std::size_t cnn_samples =
      samples_from_env("MAN_REPLAY_CNN_SAMPLES", 128);

  man::bench::print_banner(
      "Engine activity replay: per-backend + BatchRunner(" +
      std::to_string(workers) + " workers), digit MLP, ASM 4 {1,3,5,7}");
  const man::engine::FixedNetwork mlp_engine =
      build_replay_engine(AppId::kDigitMlp8);
  const ReplayResult mlp = run_replay(mlp_engine, mlp_samples, workers);
  std::cout << "auto-dispatch resolves to: "
            << man::backend::to_string(man::backend::detect_best_backend())
            << "\n";

  man::bench::print_banner(
      "CNN engine replay: per-backend + BatchRunner(" +
      std::to_string(workers) + " workers), LeNet digit CNN (12-bit), "
      "ASM 4 {1,3,5,7}");
  const man::engine::FixedNetwork cnn_engine =
      build_replay_engine(AppId::kDigitCnn12);
  const ReplayResult cnn = run_replay(cnn_engine, cnn_samples, workers);

  man::bench::print_banner(
      "Plan-artifact cold start: mmap load vs in-process build, digit MLP");
  const ColdStartResult cold = run_cold_start(mlp_engine);
  std::cout << "build (projection + compile): "
            << man::util::format_double(cold.compile_s * 1e3, 2)
            << " ms, artifact mmap load: "
            << man::util::format_double(cold.load_s * 1e3, 3)
            << " ms (speedup "
            << man::util::format_double(cold.speedup(), 1)
            << "x), outputs "
            << (cold.identical ? "bit-identical" : "MISMATCH") << "\n";

  const bool identical = mlp.identical && cnn.identical && cold.identical;
  std::cout << "per-backend raw outputs + per-layer EngineStats "
            << "(MLP + CNN): " << (identical ? "bit-identical" : "MISMATCH")
            << "\n";

  if (const std::string json = man::bench::bench_json_path(); !json.empty()) {
    std::ofstream out(json);
    out << "{\n";
    emit_json_section(out, "fig9_replay", mlp, /*last=*/false);
    emit_json_section(out, "fig9_cnn_replay", cnn, /*last=*/false);
    out << "  \"artifact_cold_start\": {\n    \"compile_ms\": "
        << man::util::format_double(cold.compile_s * 1e3, 3)
        << ",\n    \"load_ms\": "
        << man::util::format_double(cold.load_s * 1e3, 4)
        << ",\n    \"speedup\": "
        << man::util::format_double(cold.speedup(), 2)
        << ",\n    \"bit_identical\": "
        << (cold.identical ? "true" : "false") << "\n  }\n";
    out << "}\n";
  }
  return identical ? 0 : 1;
}
