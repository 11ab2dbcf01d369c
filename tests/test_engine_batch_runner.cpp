// The batched runtime: bit-identity of the sharded path against the
// single-sample path under every alphabet scheme, exact stats
// reduction, determinism across worker counts, and scratch reuse
// across engines (the CSHM bank outputs live in the engine, not the
// scratch).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "man/engine/batch_runner.h"
#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/conv2d.h"
#include "man/nn/dense.h"
#include "man/nn/pool.h"
#include "man/util/rng.h"

namespace man::engine {
namespace {

using man::core::AlphabetSet;
using man::data::Example;
using man::nn::ActivationLayer;
using man::nn::AvgPool2D;
using man::nn::Conv2D;
using man::nn::Dense;
using man::nn::Network;
using man::nn::ProjectionPlan;
using man::nn::QuantSpec;

Network make_mlp(std::uint64_t seed, int in = 16, int hidden = 8,
                 int out = 4) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Dense>(in, hidden).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<Dense>(hidden, out).init_xavier(rng);
  return net;
}

Network make_cnn(std::uint64_t seed) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Conv2D>(1, 3, 3, 8, 8).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<AvgPool2D>(3, 6, 6, 2);
  net.add<Dense>(27, 5).init_xavier(rng);
  return net;
}

std::vector<float> random_batch(std::size_t samples, std::size_t sample_size,
                                std::uint64_t seed) {
  man::util::Rng rng(seed);
  std::vector<float> batch(samples * sample_size);
  for (float& p : batch) p = static_cast<float>(rng.next_double());
  return batch;
}

std::vector<Example> random_examples(std::size_t samples,
                                     std::size_t sample_size, int classes,
                                     std::uint64_t seed) {
  man::util::Rng rng(seed);
  std::vector<Example> examples(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    examples[i].pixels.resize(sample_size);
    for (float& p : examples[i].pixels) {
      p = static_cast<float>(rng.next_double());
    }
    examples[i].label = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(classes)));
  }
  return examples;
}

void expect_stats_eq(const EngineStats& a, const EngineStats& b) {
  EXPECT_EQ(a.inferences, b.inferences);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].name, b.layers[i].name) << "layer " << i;
    EXPECT_EQ(a.layers[i].macs, b.layers[i].macs) << "layer " << i;
    EXPECT_EQ(a.layers[i].bank_activations, b.layers[i].bank_activations)
        << "layer " << i;
    EXPECT_EQ(a.layers[i].ops, b.layers[i].ops) << "layer " << i;
  }
}

// (a) The batched path is bit-identical to the single-sample path for
// every alphabet scheme (conventional + the full ASM ladder).
class BatchedSchemeIdentity : public ::testing::TestWithParam<int> {};

TEST_P(BatchedSchemeIdentity, BatchMatchesSequentialBitForBit) {
  const int n_alphabets = GetParam();  // 0 == conventional
  const QuantSpec spec = QuantSpec::bits8();

  Network net = make_mlp(100 + static_cast<std::uint64_t>(n_alphabets));
  LayerAlphabetPlan plan =
      LayerAlphabetPlan::conventional(net.num_weight_layers());
  if (n_alphabets > 0) {
    const AlphabetSet set =
        AlphabetSet::first_n(static_cast<std::size_t>(n_alphabets));
    const ProjectionPlan projection(spec, set, net.num_weight_layers());
    projection.project_network(net);
    plan = LayerAlphabetPlan::uniform_asm(net.num_weight_layers(), set);
  }
  FixedNetwork engine(net, spec, plan);

  const std::size_t samples = 33;  // not a multiple of the pool size
  const auto batch = random_batch(samples, engine.input_size(), 42);

  // Sequential reference through the single-sample wrapper.
  std::vector<std::int64_t> expected;
  for (std::size_t i = 0; i < samples; ++i) {
    const auto raw = engine.forward_raw(
        std::span<const float>(batch).subspan(i * engine.input_size(),
                                              engine.input_size()));
    expected.insert(expected.end(), raw.begin(), raw.end());
  }

  BatchRunner runner(engine, BatchOptions{.workers = 4});
  std::vector<std::int64_t> actual(samples * engine.output_size());
  runner.run(batch, actual);

  EXPECT_EQ(actual, expected) << "n_alphabets=" << n_alphabets;
}

INSTANTIATE_TEST_SUITE_P(AlphabetLadder, BatchedSchemeIdentity,
                         ::testing::Values(0, 1, 2, 4, 8));

// Conv stages shard identically too.
TEST(BatchRunner, CnnBatchMatchesSequential) {
  const QuantSpec spec = QuantSpec::bits12();
  Network net = make_cnn(77);
  const ProjectionPlan projection(spec, AlphabetSet::two(), 2);
  projection.project_network(net);
  FixedNetwork engine(
      net, spec, LayerAlphabetPlan::uniform_asm(2, AlphabetSet::two()));

  const std::size_t samples = 9;
  const auto batch = random_batch(samples, engine.input_size(), 7);

  std::vector<std::int64_t> expected;
  for (std::size_t i = 0; i < samples; ++i) {
    const auto raw = engine.forward_raw(
        std::span<const float>(batch).subspan(i * engine.input_size(),
                                              engine.input_size()));
    expected.insert(expected.end(), raw.begin(), raw.end());
  }

  BatchRunner runner(engine, BatchOptions{.workers = 3,
                                          .min_samples_per_worker = 1});
  std::vector<std::int64_t> actual(samples * engine.output_size());
  runner.run(batch, actual);
  EXPECT_EQ(actual, expected);
}

// (b) The merged EngineStats equal the sum of sequential runs.
TEST(BatchRunner, MergedStatsEqualSequentialSum) {
  const QuantSpec spec = QuantSpec::bits8();
  Network net = make_mlp(55);
  const ProjectionPlan projection(spec, AlphabetSet::four(), 2);
  projection.project_network(net);
  FixedNetwork engine(
      net, spec, LayerAlphabetPlan::uniform_asm(2, AlphabetSet::four()));

  const std::size_t samples = 25;
  const auto batch = random_batch(samples, engine.input_size(), 3);

  // Sequential run accumulates into the engine's member stats.
  engine.reset_stats();
  for (std::size_t i = 0; i < samples; ++i) {
    (void)engine.forward_raw(
        std::span<const float>(batch).subspan(i * engine.input_size(),
                                              engine.input_size()));
  }

  BatchRunner runner(engine, BatchOptions{.workers = 4,
                                          .min_samples_per_worker = 2});
  std::vector<std::int64_t> raw(samples * engine.output_size());
  runner.run(batch, raw);

  expect_stats_eq(runner.stats(), engine.stats());
  EXPECT_EQ(runner.stats().inferences, samples);
}

// (c) Worker count is invisible: 1, 2, and 8 workers produce identical
// outputs and identical merged stats.
TEST(BatchRunner, DeterministicAcrossWorkerCounts) {
  const QuantSpec spec = QuantSpec::bits8();
  Network net = make_mlp(66);
  const ProjectionPlan projection(spec, AlphabetSet::two(), 2);
  projection.project_network(net);
  FixedNetwork engine(
      net, spec, LayerAlphabetPlan::uniform_asm(2, AlphabetSet::two()));

  const std::size_t samples = 41;
  const auto batch = random_batch(samples, engine.input_size(), 11);

  std::vector<std::vector<std::int64_t>> outputs;
  std::vector<EngineStats> stats;
  for (int workers : {1, 2, 8}) {
    BatchRunner runner(engine, BatchOptions{.workers = workers,
                                            .min_samples_per_worker = 1});
    std::vector<std::int64_t> raw(samples * engine.output_size());
    runner.run(batch, raw);
    outputs.push_back(std::move(raw));
    stats.push_back(runner.stats());
  }
  for (std::size_t i = 1; i < outputs.size(); ++i) {
    EXPECT_EQ(outputs[i], outputs[0]) << "worker config " << i;
    expect_stats_eq(stats[i], stats[0]);
  }
}

// Sequential per-sample infer_into over a contiguous batch, with the
// summed stats — the reference every tiled run must reproduce.
std::vector<std::int64_t> sequential_infer(const FixedNetwork& engine,
                                           const std::vector<float>& batch,
                                           EngineStats& stats) {
  const std::size_t count = batch.size() / engine.input_size();
  auto scratch = engine.make_scratch();
  std::vector<std::int64_t> out(count * engine.output_size());
  for (std::size_t i = 0; i < count; ++i) {
    engine.infer_into(
        std::span<const float>(batch).subspan(i * engine.input_size(),
                                              engine.input_size()),
        std::span<std::int64_t>(out).subspan(i * engine.output_size(),
                                             engine.output_size()),
        stats, scratch);
  }
  return out;
}

/// An ASM MLP (the whole network tiles) and an ASM CNN (only its
/// dense tail tiles).
std::vector<std::unique_ptr<FixedNetwork>> tiling_engines() {
  std::vector<std::unique_ptr<FixedNetwork>> engines;
  Network mlp = make_mlp(123, 19, 11, 5);
  ProjectionPlan(QuantSpec::bits8(), AlphabetSet::four(), 2)
      .project_network(mlp);
  engines.push_back(std::make_unique<FixedNetwork>(
      mlp, QuantSpec::bits8(),
      LayerAlphabetPlan::uniform_asm(2, AlphabetSet::four())));
  Network cnn = make_cnn(321);
  ProjectionPlan(QuantSpec::bits12(), AlphabetSet::two(), 2)
      .project_network(cnn);
  engines.push_back(std::make_unique<FixedNetwork>(
      cnn, QuantSpec::bits12(),
      LayerAlphabetPlan::uniform_asm(2, AlphabetSet::two())));
  return engines;
}

// Batch tiles: sample counts below, at and around kDenseTile (32), its
// multiples and 16, on one and three workers, so a shard holds no
// tile, exactly one, tiles plus a remainder, or only a remainder, and
// (100, 200 on three workers) is cut into several claimed ranges.
// Outputs and merged stats must equal sequential infer_into on the MLP
// (the whole network tiles) and the CNN (only its dense tail tiles).
// The Example path gathers each range's pixels and forms the same
// tiles: evaluate() over the batch as Examples must give the
// sequential argmaxes, accuracy and stats.
class BatchTileIdentity
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BatchTileIdentity, MatchesSequentialInferInto) {
  const auto count = static_cast<std::size_t>(std::get<0>(GetParam()));
  const int workers = std::get<1>(GetParam());
  for (const auto& engine_ptr : tiling_engines()) {
    const FixedNetwork& engine = *engine_ptr;
    const auto batch = random_batch(count, engine.input_size(), 900 + count);
    EngineStats expected_stats = engine.make_stats();
    const auto expected = sequential_infer(engine, batch, expected_stats);

    BatchRunner runner(engine, BatchOptions{.workers = workers});
    std::vector<std::int64_t> actual(count * engine.output_size());
    runner.run(batch, actual);
    EXPECT_EQ(actual, expected)
        << "count=" << count << " workers=" << workers
        << " input_size=" << engine.input_size();
    expect_stats_eq(runner.stats(), expected_stats);

    const std::size_t in = engine.input_size();
    const std::size_t out = engine.output_size();
    std::vector<Example> examples(count);
    std::size_t correct = 0;
    BatchRunner evaluator(engine, BatchOptions{.workers = workers});
    for (std::size_t s = 0; s < count; ++s) {
      const auto first = batch.begin() + static_cast<std::ptrdiff_t>(s * in);
      examples[s].pixels.assign(first, first + static_cast<std::ptrdiff_t>(in));
      examples[s].label = static_cast<int>(s % out);
    }
    const BatchAccuracy result = evaluator.evaluate(examples);
    ASSERT_EQ(result.predictions.size(), count);
    for (std::size_t s = 0; s < count; ++s) {
      const int expected_prediction = argmax_raw(
          std::span<const std::int64_t>(expected).subspan(s * out, out));
      EXPECT_EQ(result.predictions[s], expected_prediction)
          << "count=" << count << " workers=" << workers << " sample " << s;
      if (expected_prediction == examples[s].label) ++correct;
    }
    EXPECT_DOUBLE_EQ(result.accuracy,
                     static_cast<double>(correct) / static_cast<double>(count));
    expect_stats_eq(evaluator.stats(), expected_stats);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Counts, BatchTileIdentity,
    ::testing::Combine(::testing::Values(1, 15, 16, 17, 31, 32, 33, 53, 65,
                                         100, 200),
                       ::testing::Values(1, 3)));

// The runner keeps one scratch per shard slot across run() calls: a
// large batch, a small one (fewer shards, no tile) and the large one
// again must all match their sequential references, so the persistent
// buffers resize correctly in both directions.
TEST(BatchRunner, ReusedRunnerResizesPersistentScratch) {
  for (const auto& engine_ptr : tiling_engines()) {
    const FixedNetwork& engine = *engine_ptr;
    BatchRunner runner(engine, BatchOptions{.workers = 3});
    std::vector<std::int64_t> first;
    for (const std::size_t count : {256u, 7u, 256u}) {
      const auto batch = random_batch(count, engine.input_size(), 77);
      EngineStats ignored = engine.make_stats();
      const auto expected = sequential_infer(engine, batch, ignored);
      std::vector<std::int64_t> actual(count * engine.output_size());
      runner.run(batch, actual);
      EXPECT_EQ(actual, expected) << "count=" << count;
      if (count == 256) {
        if (first.empty()) {
          first = actual;
        } else {
          EXPECT_EQ(actual, first);
        }
      }
    }
    EXPECT_EQ(runner.stats().inferences, 256u + 7u + 256u);
  }
}

TEST(FixedNetwork, InferBatchRejectsRaggedSpans) {
  const auto engines = tiling_engines();
  const FixedNetwork& engine = *engines[0];
  auto scratch = engine.make_scratch();
  auto stats = engine.make_stats();
  const auto& kernel = engine.default_kernel();
  std::vector<float> ragged(2 * engine.input_size() + 1);
  std::vector<std::int64_t> out(2 * engine.output_size());
  EXPECT_THROW(engine.infer_batch(ragged, out, stats, scratch, kernel),
               std::invalid_argument);
  std::vector<float> two(2 * engine.input_size());
  std::vector<std::int64_t> short_out(engine.output_size());
  EXPECT_THROW(engine.infer_batch(two, short_out, stats, scratch, kernel),
               std::invalid_argument);
  // infer_into stays one sample: a two-sample span is rejected.
  EXPECT_THROW(engine.infer_into(two, out, stats, scratch),
               std::invalid_argument);
}

// The Example-based evaluation path agrees with the engine's own.
TEST(BatchRunner, EvaluateMatchesSequentialEvaluate) {
  const QuantSpec spec = QuantSpec::bits8();
  Network net = make_mlp(88);
  FixedNetwork engine(net, spec, LayerAlphabetPlan::conventional(2));

  const auto examples = random_examples(30, engine.input_size(), 4, 5);
  const double sequential = engine.evaluate(examples);

  BatchRunner runner(engine, BatchOptions{.workers = 4,
                                          .min_samples_per_worker = 1});
  const BatchAccuracy batched = runner.evaluate(examples);
  EXPECT_DOUBLE_EQ(batched.accuracy, sequential);
  ASSERT_EQ(batched.predictions.size(), examples.size());
  for (std::size_t i = 0; i < examples.size(); ++i) {
    // Spot-check each prediction against the single-sample API.
    EXPECT_EQ(batched.predictions[i], engine.predict(examples[i]));
  }
}

// A scratch holds only buffers, so one made by an engine with another
// alphabet set runs a second engine exactly like that engine's own.
TEST(FixedNetwork, AnyScratchWorksOnAnyEngine) {
  const QuantSpec spec = QuantSpec::bits8();
  Network net_a = make_mlp(70);
  Network net_b = make_mlp(71);
  const ProjectionPlan proj_a(spec, AlphabetSet::two(), 2);
  proj_a.project_network(net_a);
  const ProjectionPlan proj_b(spec, AlphabetSet::four(), 2);
  proj_b.project_network(net_b);
  FixedNetwork engine_a(
      net_a, spec, LayerAlphabetPlan::uniform_asm(2, AlphabetSet::two()));
  FixedNetwork engine_b(
      net_b, spec, LayerAlphabetPlan::uniform_asm(2, AlphabetSet::four()));

  const auto batch = random_batch(1, engine_b.input_size(), 17);
  const auto expected = engine_b.forward_raw(batch);

  FixedNetwork::InferScratch scratch = engine_a.make_scratch();
  EngineStats stats = engine_b.make_stats();
  std::vector<std::int64_t> actual(engine_b.output_size());
  engine_b.infer_into(batch, actual, stats, scratch);
  EXPECT_EQ(actual, expected);
}

// Stage-graph geometry is validated at construction: a mis-chained
// network throws instead of reading out of bounds at inference time.
TEST(FixedNetwork, RejectsMisChainedNetwork) {
  man::util::Rng rng(72);
  Network net;
  net.add<Dense>(16, 8).init_xavier(rng);
  net.add<Dense>(10, 4).init_xavier(rng);  // expects 10, gets 8
  EXPECT_THROW(FixedNetwork(net, QuantSpec::bits8(),
                            LayerAlphabetPlan::conventional(2)),
               std::invalid_argument);
}

TEST(BatchRunner, RejectsRaggedSpans) {
  Network net = make_mlp(90);
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::conventional(2));
  BatchRunner runner(engine);

  std::vector<float> ragged(engine.input_size() + 1);
  std::vector<std::int64_t> out(engine.output_size());
  EXPECT_THROW(runner.run(ragged, out), std::invalid_argument);

  std::vector<float> one(engine.input_size());
  std::vector<std::int64_t> short_out(engine.output_size() - 1);
  EXPECT_THROW(runner.run(one, short_out), std::invalid_argument);
}

// Regression: negative worker counts used to be silently cast to a
// huge unsigned shard count; now they are rejected up front.
TEST(BatchRunner, RejectsNegativeWorkerCount) {
  Network net = make_mlp(93);
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::conventional(2));
  EXPECT_THROW(BatchRunner(engine, BatchOptions{.workers = -1}),
               std::invalid_argument);
  EXPECT_THROW(BatchRunner(engine, BatchOptions{.workers = -8}),
               std::invalid_argument);
}

// The pool refactor's contract: a runner reused across many run()
// calls starts its worker threads exactly once.
TEST(BatchRunner, ReusedRunnerSpawnsNoThreadsPerRun) {
  Network net = make_mlp(94);
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::conventional(2));
  BatchRunner runner(engine, BatchOptions{.workers = 4,
                                          .min_samples_per_worker = 1});

  const auto batch = random_batch(16, engine.input_size(), 23);
  std::vector<std::int64_t> raw(16 * engine.output_size());
  for (int round = 0; round < 20; ++round) runner.run(batch, raw);

  ASSERT_NE(runner.pool(), nullptr);
  EXPECT_EQ(runner.pool()->size(), 4);
  EXPECT_EQ(runner.pool()->threads_started(), 4u);
}

// Several runners (the serving arrangement: many models, one process)
// share one persistent pool, and results stay bit-identical.
TEST(BatchRunner, RunnersShareOneProvidedPool) {
  Network net_a = make_mlp(95);
  Network net_b = make_mlp(96);
  FixedNetwork engine_a(net_a, QuantSpec::bits8(),
                        LayerAlphabetPlan::conventional(2));
  FixedNetwork engine_b(net_b, QuantSpec::bits8(),
                        LayerAlphabetPlan::conventional(2));

  const auto pool = std::make_shared<man::serve::ThreadPool>(3);
  const BatchOptions options{.workers = 8,  // capped at the pool size
                             .min_samples_per_worker = 1,
                             .pool = pool};
  BatchRunner runner_a(engine_a, options);
  BatchRunner runner_b(engine_b, options);
  EXPECT_EQ(runner_a.pool().get(), pool.get());
  EXPECT_EQ(runner_a.workers(), 3);

  const auto batch = random_batch(13, engine_a.input_size(), 29);
  std::vector<std::int64_t> raw_a(13 * engine_a.output_size());
  std::vector<std::int64_t> raw_b(13 * engine_b.output_size());
  for (int round = 0; round < 5; ++round) {
    runner_a.run(batch, raw_a);
    runner_b.run(batch, raw_b);
  }
  EXPECT_EQ(pool->threads_started(), 3u);

  // Shared-pool results match a sequential runner's.
  BatchRunner sequential(engine_a, BatchOptions{.workers = 1});
  std::vector<std::int64_t> expected(13 * engine_a.output_size());
  sequential.run(batch, expected);
  EXPECT_EQ(raw_a, expected);
}

TEST(BatchRunner, StatsAccumulateAcrossRunsAndReset) {
  Network net = make_mlp(91);
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::conventional(2));
  BatchRunner runner(engine, BatchOptions{.workers = 2,
                                          .min_samples_per_worker = 1});

  const auto batch = random_batch(6, engine.input_size(), 13);
  std::vector<std::int64_t> raw(6 * engine.output_size());
  runner.run(batch, raw);
  runner.run(batch, raw);
  EXPECT_EQ(runner.stats().inferences, 12u);

  runner.reset_stats();
  EXPECT_EQ(runner.stats().inferences, 0u);
  EXPECT_EQ(runner.stats().total_macs(), 0u);
  // Layer layout survives a reset.
  ASSERT_EQ(runner.stats().layers.size(), 2u);
}

TEST(EngineStatsMerge, LayerwiseSumAndLayoutChecks) {
  Network net = make_mlp(92);
  FixedNetwork engine(net, QuantSpec::bits8(),
                      LayerAlphabetPlan::conventional(2));
  EngineStats a = engine.make_stats();
  EngineStats b = engine.make_stats();
  b.layers[0].macs = 7;
  b.inferences = 2;

  a.merge(b);
  a.merge(b);
  EXPECT_EQ(a.layers[0].macs, 14u);
  EXPECT_EQ(a.inferences, 4u);

  EngineStats empty;
  empty.merge(b);  // adopts the layout, zeroed, then adds
  EXPECT_EQ(empty.layers.size(), b.layers.size());
  EXPECT_EQ(empty.layers[0].macs, 7u);

  EngineStats mismatched;
  mismatched.layers.resize(3);
  EXPECT_THROW(mismatched.merge(b), std::invalid_argument);
}

}  // namespace
}  // namespace man::engine
