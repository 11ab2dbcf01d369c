// The serving front-end: deadline and queue edge cases (deadline
// flushes, oversized request, shedding an overdue queue, shutdown
// drain) and the
// acceptance property — server responses bit-identical to sequential
// FixedNetwork::infer_into for interleaved mixed-model traffic from
// concurrent clients, at any worker count.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/dense.h"
#include "man/serve/inference_server.h"
#include "man/serve/thread_pool.h"
#include "man/util/rng.h"

namespace man::serve {
namespace {

using namespace std::chrono_literals;
using man::core::AlphabetSet;
using man::engine::FixedNetwork;
using man::engine::LayerAlphabetPlan;
using man::nn::ActivationLayer;
using man::nn::Dense;
using man::nn::Network;
using man::nn::ProjectionPlan;
using man::nn::QuantSpec;

Network make_mlp(std::uint64_t seed, int in, int hidden, int out) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Dense>(in, hidden).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<Dense>(hidden, out).init_xavier(rng);
  return net;
}

/// A small ASM engine ("digit-like" or "face-like" depending on the
/// geometry) with projected weights, as the serving path would get
/// from the EngineCache.
FixedNetwork make_engine(std::uint64_t seed, int in, int hidden, int out,
                         const AlphabetSet& set) {
  const QuantSpec spec = QuantSpec::bits8();
  Network net = make_mlp(seed, in, hidden, out);
  const ProjectionPlan projection(spec, set, net.num_weight_layers());
  projection.project_network(net);
  return FixedNetwork(net, spec,
                      LayerAlphabetPlan::uniform_asm(net.num_weight_layers(),
                                                     set));
}

std::vector<float> random_samples(std::size_t count, std::size_t sample_size,
                                  std::uint64_t seed) {
  man::util::Rng rng(seed);
  std::vector<float> pixels(count * sample_size);
  for (float& p : pixels) p = static_cast<float>(rng.next_double());
  return pixels;
}

/// Sequential ground truth: one sample at a time through infer_into
/// with fresh scratch, exactly the pre-serving code path.
std::vector<std::int64_t> sequential_raw(const FixedNetwork& engine,
                                         std::span<const float> pixels) {
  const std::size_t count = pixels.size() / engine.input_size();
  std::vector<std::int64_t> raw(count * engine.output_size());
  auto stats = engine.make_stats();
  auto scratch = engine.make_scratch();
  for (std::size_t i = 0; i < count; ++i) {
    engine.infer_into(
        pixels.subspan(i * engine.input_size(), engine.input_size()),
        std::span<std::int64_t>(raw).subspan(i * engine.output_size(),
                                             engine.output_size()),
        stats, scratch);
  }
  return raw;
}

TEST(InferenceServer, RejectsInvalidOptions) {
  const FixedNetwork engine = make_engine(1, 8, 6, 3, AlphabetSet::man());
  ServeConfig zero_batch;
  zero_batch.max_batch = 0;
  EXPECT_THROW(InferenceServer(engine, zero_batch), std::invalid_argument);
  ServeConfig negative_wait;
  negative_wait.max_wait = -1us;
  EXPECT_THROW(InferenceServer(engine, negative_wait), std::invalid_argument);
}

// A request larger than max_batch is never split or rejected: it is
// dispatched alone as one oversized batch.
TEST(InferenceServer, OversizedRequestDispatchedWhole) {
  const FixedNetwork engine = make_engine(4, 8, 6, 3, AlphabetSet::two());
  ServeConfig config;
  config.max_batch = 4;
  config.max_wait = 1ms;
  InferenceServer server(engine, config);

  const std::size_t count = 11;  // ~3x max_batch
  const auto pixels = random_samples(count, engine.input_size(), 31);
  const InferenceResult result = server.submit({.payload = pixels}).get();

  EXPECT_EQ(result.samples, count);
  EXPECT_EQ(result.raw, sequential_raw(engine, pixels));
  const auto metrics = server.metrics();
  EXPECT_EQ(metrics.batches, 1u);
  EXPECT_EQ(metrics.largest_batch, count);
}

// Filling the queue to max_batch flushes without waiting for the
// deadline: with a 1-hour deadline, completion at all proves the
// size trigger.
TEST(InferenceServer, FullBatchFlushesBeforeDeadline) {
  const FixedNetwork engine = make_engine(5, 8, 6, 3, AlphabetSet::man());
  ServeConfig config;
  config.max_batch = 8;
  config.max_wait = 1h;
  InferenceServer server(engine, config);

  std::vector<std::future<InferenceResult>> pending;
  std::vector<std::vector<float>> inputs;
  for (std::size_t i = 0; i < config.max_batch; ++i) {
    inputs.push_back(random_samples(1, engine.input_size(), 100 + i));
    pending.push_back(server.submit({.payload = inputs.back()}));
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    ASSERT_EQ(pending[i].wait_for(30s), std::future_status::ready) << i;
    EXPECT_EQ(pending[i].get().raw, sequential_raw(engine, inputs[i])) << i;
  }
  const auto metrics = server.metrics();
  EXPECT_GE(metrics.size_flushes, 1u);
  EXPECT_EQ(metrics.samples, config.max_batch);
}

// A lone request in a huge-batch server is released by its deadline.
TEST(InferenceServer, DeadlineFlushesPartialBatch) {
  const FixedNetwork engine = make_engine(6, 8, 6, 3, AlphabetSet::man());
  ServeConfig config;
  config.max_batch = 1u << 20;
  config.queue_capacity = config.max_batch;
  config.max_wait = 2ms;
  InferenceServer server(engine, config);

  const auto pixels = random_samples(1, engine.input_size(), 40);
  auto future = server.submit({.payload = pixels});
  ASSERT_EQ(future.wait_for(30s), std::future_status::ready);
  EXPECT_EQ(future.get().raw, sequential_raw(engine, pixels));
  EXPECT_GE(server.metrics().deadline_flushes, 1u);
}

// Regression: explicit deadlines need not arrive in order. A
// newcomer with a deadline nearer than max_wait must flush the queue
// even though the front request could wait an hour, and be served:
// its batch closes at once, not at its deadline.
TEST(InferenceServer, EarlierDeadlineDeepInQueueTriggersFlush) {
  const FixedNetwork engine = make_engine(9, 8, 6, 3, AlphabetSet::man());
  ServeConfig config;
  config.max_batch = 1u << 20;  // size never triggers
  config.queue_capacity = config.max_batch;
  config.max_wait = 1h;
  InferenceServer server(engine, config);

  const auto patient_pixels = random_samples(1, engine.input_size(), 60);
  auto patient = server.submit({.payload = patient_pixels});
  const auto urgent_pixels = random_samples(1, engine.input_size(), 61);
  InferenceRequest urgent_request;
  urgent_request.payload = urgent_pixels;
  urgent_request.deadline = InferenceServer::Clock::now() + 10s;
  auto urgent = server.submit(std::move(urgent_request));

  // The urgent request releases both: batches close oldest-first, so
  // the patient request ships in the same flush.
  ASSERT_EQ(urgent.wait_for(30s), std::future_status::ready);
  ASSERT_EQ(patient.wait_for(30s), std::future_status::ready);
  const InferenceResult urgent_result = urgent.get();
  EXPECT_EQ(urgent_result.status, Status::kOk);
  EXPECT_EQ(urgent_result.raw, sequential_raw(engine, urgent_pixels));
  EXPECT_EQ(patient.get().raw, sequential_raw(engine, patient_pixels));
  EXPECT_GE(server.metrics().deadline_flushes, 1u);
  EXPECT_EQ(server.metrics().deadline_expired, 0u);
}

// A lone request whose deadline is nearer than max_wait is served, not
// expired at its deadline.
TEST(InferenceServer, DeadlineNearerThanMaxWaitIsServed) {
  const FixedNetwork engine = make_engine(10, 8, 6, 3, AlphabetSet::man());
  ServeConfig config;
  config.max_batch = 1u << 20;
  config.queue_capacity = config.max_batch;
  config.max_wait = 1h;
  InferenceServer server(engine, config);

  const auto pixels = random_samples(1, engine.input_size(), 62);
  InferenceRequest request;
  request.payload = pixels;
  request.deadline = InferenceServer::Clock::now() + 50ms;
  auto future = server.submit(std::move(request));
  ASSERT_EQ(future.wait_for(30s), std::future_status::ready);
  const InferenceResult result = future.get();
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_EQ(result.raw, sequential_raw(engine, pixels));
  EXPECT_EQ(server.metrics().deadline_expired, 0u);
}

// A deadline just past max_wait would expire whenever the dispatcher
// woke from the wait a moment late, so it flushes at once too. 1 ms
// past, not less: submit() reads the clock after this test does, and
// must still see the deadline beyond its own now + max_wait.
TEST(InferenceServer, DeadlineJustPastMaxWaitIsServed) {
  const FixedNetwork engine = make_engine(11, 8, 6, 3, AlphabetSet::man());
  ServeConfig config;
  config.max_batch = 1u << 20;
  config.queue_capacity = config.max_batch;
  config.max_wait = 1h;
  InferenceServer server(engine, config);

  const auto pixels = random_samples(1, engine.input_size(), 63);
  InferenceRequest request;
  request.payload = pixels;
  request.deadline = InferenceServer::Clock::now() + config.max_wait + 1ms;
  auto future = server.submit(std::move(request));
  ASSERT_EQ(future.wait_for(30s), std::future_status::ready);
  const InferenceResult result = future.get();
  EXPECT_EQ(result.status, Status::kOk);
  EXPECT_EQ(result.raw, sequential_raw(engine, pixels));
  EXPECT_EQ(server.metrics().deadline_expired, 0u);
}

// Admission sheds on the queue delay: a long oversized batch (its
// completion callback holds the dispatcher) keeps the next request
// queued past its flush time, and once that lateness exceeds the SLO
// a submit resolves kRejectedOverload at once, with a Retry-After
// hint. The held request is still served, and the delay reads zero
// again once the queue is empty.
TEST(InferenceServer, OverdueQueueShedsPastTheSlo) {
  const FixedNetwork engine = make_engine(12, 8, 6, 3, AlphabetSet::man());
  ServeConfig config;
  config.max_batch = 4;
  config.max_wait = 100us;
  config.queue_delay_slo = 1ms;
  InferenceServer server(engine, config);
  // Declared after the server: on an early return the broken promise
  // frees the dispatcher before the server's destructor joins it.
  std::promise<void> entered;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  server.submit_async(
      {.payload = random_samples(256, engine.input_size(), 120)},
      [&entered, released](InferenceResult&&) {
        entered.set_value();
        released.wait();
      });
  entered.get_future().wait();

  const auto held_pixels = random_samples(1, engine.input_size(), 121);
  auto held = server.submit({.payload = held_pixels});
  std::this_thread::sleep_for(5ms);  // held is now ~5 ms past its flush
  EXPECT_GT(server.estimated_queue_delay(), config.queue_delay_slo);
  auto shed = server.submit(
      {.payload = random_samples(1, engine.input_size(), 122)});
  const bool shed_at_once = shed.wait_for(0s) == std::future_status::ready;
  release.set_value();

  ASSERT_TRUE(shed_at_once) << "a queue past its SLO must shed at submit";
  const InferenceResult rejection = shed.get();
  EXPECT_EQ(rejection.status, Status::kRejectedOverload);
  EXPECT_GE(rejection.retry_after, 2ms);  // delay (> 1 ms) + 1 ms
  EXPECT_NE(rejection.message.find("SLO"), std::string::npos)
      << rejection.message;
  const InferenceResult served = held.get();
  EXPECT_EQ(served.status, Status::kOk);
  EXPECT_EQ(served.raw, sequential_raw(engine, held_pixels));
  EXPECT_EQ(server.estimated_queue_delay(), std::chrono::nanoseconds::zero());
  const auto metrics = server.metrics();
  EXPECT_EQ(metrics.rejected_overload, 1u);
  // The shed is the SLO check's, not the queue bound's.
  EXPECT_EQ(metrics.rejected_queue_delay, 1u);
  EXPECT_EQ(metrics.rejected_queue_full, 0u);
  EXPECT_EQ(metrics.requests, 2u);
}

TEST(InferenceServer, ShutdownDrainsPendingAndRejectsNewWork) {
  const FixedNetwork engine = make_engine(7, 8, 6, 3, AlphabetSet::man());
  ServeConfig config;
  config.max_batch = 1u << 20;  // only the drain can release these
  config.queue_capacity = config.max_batch;
  config.max_wait = 1h;
  InferenceServer server(engine, config);

  std::vector<std::future<InferenceResult>> pending;
  std::vector<std::vector<float>> inputs;
  for (int i = 0; i < 5; ++i) {
    inputs.push_back(random_samples(1, engine.input_size(), 200 + i));
    pending.push_back(server.submit({.payload = inputs.back()}));
  }
  server.shutdown();
  for (std::size_t i = 0; i < pending.size(); ++i) {
    ASSERT_EQ(pending[i].wait_for(0s), std::future_status::ready) << i;
    EXPECT_EQ(pending[i].get().raw, sequential_raw(engine, inputs[i])) << i;
  }
  InferenceRequest late;
  late.payload = random_samples(1, engine.input_size(), 9);
  EXPECT_EQ(server.submit(std::move(late)).get().status, Status::kShutdown);
  server.shutdown();  // idempotent
}

TEST(InferenceServer, PredictionsUseSharedArgmax) {
  const FixedNetwork engine = make_engine(8, 8, 6, 3, AlphabetSet::two());
  InferenceServer server(engine);
  const auto pixels = random_samples(6, engine.input_size(), 50);
  const InferenceResult result = server.submit({.payload = pixels}).get();
  ASSERT_EQ(result.predictions.size(), 6u);
  for (std::size_t s = 0; s < result.samples; ++s) {
    EXPECT_EQ(result.predictions[s],
              man::engine::argmax_raw(
                  std::span<const std::int64_t>(result.raw)
                      .subspan(s * result.output_size, result.output_size)));
  }
  // Served activity is visible through the stats snapshot.
  EXPECT_EQ(server.stats().inferences, 6u);
}

// Regression: the dispatcher counts a batch and refreshes the stats
// snapshot before it delivers the batch's results, so stats() and
// metrics() read right after a result arrives already include it —
// every time, not just eventually.
TEST(InferenceServer, StatsCountEveryDeliveredResult) {
  const FixedNetwork engine = make_engine(9, 8, 6, 3, AlphabetSet::two());
  InferenceServer server(engine);
  for (std::uint64_t i = 1; i <= 40; ++i) {
    InferenceRequest request;
    request.payload = random_samples(1, engine.input_size(), 60 + i);
    ASSERT_TRUE(server.submit(std::move(request)).get().ok());
    const auto stats = server.stats();
    EXPECT_EQ(stats.inferences, i);
    EXPECT_EQ(stats.tier, "full");
    const auto metrics = server.metrics();
    EXPECT_EQ(metrics.tier_batches.at(0), i);
    EXPECT_EQ(metrics.tier_samples.at(0), i);
  }
}

// Acceptance: two models ("digit" 16->4 and "face" 25->2) served from
// one process on one shared pool, hammered by concurrent clients with
// interleaved single-sample and batch requests — every response must
// be bit-identical to the sequential engine path, for any worker
// count.
class MixedTrafficBitIdentity : public ::testing::TestWithParam<int> {};

TEST_P(MixedTrafficBitIdentity, ServerMatchesSequentialEngine) {
  const int workers = GetParam();
  const FixedNetwork digit = make_engine(10, 16, 8, 4, AlphabetSet::four());
  const FixedNetwork face = make_engine(11, 25, 6, 2, AlphabetSet::man());

  const auto pool = std::make_shared<ThreadPool>(workers);
  ServeConfig config;
  config.max_batch = 16;
  config.max_wait = 200us;
  config.workers = workers;
  config.pool = pool;
  config.min_samples_per_worker = 1;
  InferenceServer digit_server(digit, config);
  InferenceServer face_server(face, config);

  struct Exchange {
    const FixedNetwork* engine;
    std::vector<float> pixels;
    InferenceResult result;
  };
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 48;
  std::vector<std::vector<Exchange>> exchanges(kClients);

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      man::util::Rng rng(1000 + static_cast<std::uint64_t>(c));
      auto& log = exchanges[static_cast<std::size_t>(c)];
      log.reserve(kRequestsPerClient);
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const bool to_digit = (r + c) % 2 == 0;
        const FixedNetwork& engine = to_digit ? digit : face;
        InferenceServer& server = to_digit ? digit_server : face_server;
        const std::size_t count = 1 + rng.next_below(3);  // 1..3 samples
        std::vector<float> pixels(count * engine.input_size());
        for (float& p : pixels) p = static_cast<float>(rng.next_double());
        auto future = server.submit({.payload = pixels});
        log.push_back(Exchange{&engine, std::move(pixels), future.get()});
      }
    });
  }
  for (auto& t : clients) t.join();

  // Verify on the main thread against the sequential reference.
  for (int c = 0; c < kClients; ++c) {
    for (std::size_t r = 0; r < exchanges[static_cast<std::size_t>(c)].size();
         ++r) {
      const Exchange& x = exchanges[static_cast<std::size_t>(c)][r];
      EXPECT_EQ(x.result.raw, sequential_raw(*x.engine, x.pixels))
          << "client " << c << " request " << r << " workers " << workers;
    }
  }

  // The whole run used only the shared pool's fixed threads.
  EXPECT_EQ(pool->threads_started(), static_cast<std::uint64_t>(workers));
  const auto digit_metrics = digit_server.metrics();
  const auto face_metrics = face_server.metrics();
  EXPECT_EQ(digit_metrics.requests + face_metrics.requests,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, MixedTrafficBitIdentity,
                         ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace man::serve
