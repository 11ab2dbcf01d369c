// Serving-layer throughput/latency bench, in four phases:
//
//  1. In-process closed loop (the historical `serve_throughput`
//     section): concurrent clients hammer InferenceServer front-ends
//     (digit + face engines sharing one persistent ThreadPool) with
//     single-sample typed requests; reports QPS, p50/p99/p999
//     client-observed latency, micro-batch shape, and bit-identity
//     spot checks against the sequential engine path.
//  2. HTTP capacity ramp: the same engines behind the epoll HTTP/1.1
//     front-end on loopback. The offered rate grows 1.25x per 1 s
//     step until two steps in a row are not clean; capacity C is the
//     last rate the server served cleanly (achieved at least 95 % of
//     offered, at most 1 % shed or failed).
//  3. HTTP open loop: an arrival-rate sweep [C/2, C, 2C, C/2] with
//     latency measured from each request's *intended* send time
//     (coordinated-omission-free), demonstrating overload behaviour:
//     excess load shed with 429 + Retry-After while the server stays
//     up, and p99 of accepted traffic recovering once load drops.
//  4. Tiered QoS (graceful degradation): a digit server compiled as
//     the asm4/asm2/exact precision ladder, driven at [0.6C, 1.15C,
//     2C] of its own digit-only capacity (ramped as in phase 2), next
//     to a shed-only 2C reference on an untiered server with the
//     identical config: degrading under overload must shed strictly
//     less than shedding alone. Emits the degradation curve (per-tier
//     200s from the X-Man-Accuracy-Tier header, shed rate per step)
//     and checks each rung bit for bit with min-tier pinned. The
//     rungs cost about the same on CPU backends (docs/serving.md).
//
// Phases 2-4 run one open-loop load generator (open_loop), which also
// compares every 32nd 200 of each sender against the sequential engine
// of the tier that served it.
//
// Env knobs: MAN_SERVE_CLIENTS (default 4) and MAN_SERVE_REQUESTS per
// client (default 200) size phase 1; MAN_BENCH_WORKERS the pool
// (default auto). MAN_HTTP_ADDR=host:port drives an already-running
// external server (e.g. serving_demo --listen) instead of an
// in-process one: /v1/infer/digit only, 1024-float samples (the digit
// MLP input), no bit-identity checks.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "man/serve/engine_cache.h"
#include "man/serve/http/http_client.h"
#include "man/serve/http/http_server.h"
#include "man/serve/inference_server.h"
#include "man/serve/thread_pool.h"
#include "man/util/rng.h"

namespace {

using Clock = std::chrono::steady_clock;
using man::engine::FixedNetwork;
using man::serve::http::HttpClient;
using man::serve::http::HttpResponse;

// Micro-batching of every server the bench starts.
constexpr std::size_t kMaxBatch = 64;
constexpr auto kMaxWait = std::chrono::microseconds(200);
/// Samples per HTTP request.
constexpr std::size_t kHttpSamples = 16;
/// Each HTTP model's bounded queue, in samples: the overload trigger.
constexpr std::size_t kHttpQueue = 512;
/// Queue-delay SLO; backstops the queue bound for slow engines.
constexpr auto kHttpSlo = std::chrono::microseconds(25'000);
/// Sample size on an external target: the digit MLP's input.
constexpr std::size_t kExternalInput = 1024;
constexpr double kStepSeconds = 2.0;
// The capacity ramp: kRampStart requests/s, then kRampFactor more
// per kRampSeconds step.
constexpr double kRampStart = 200.0;
constexpr double kRampFactor = 1.25;
constexpr double kRampSeconds = 1.0;
/// Every kCheckEvery-th 200 of each sender is checked bit for bit.
constexpr std::size_t kCheckEvery = 32;
/// Blocking senders per target model, each with one request
/// outstanding. At overload they must fill the model's queue
/// (⌈512 / 16⌉ = 32 requests) and the batch in compute (⌈64 / 16⌉ = 4)
/// and still have senders left to draw 429s; twice those 36 does.
constexpr std::size_t kSendersPerModel =
    2 * ((kHttpQueue + kHttpSamples - 1) / kHttpSamples +
         (kMaxBatch + kHttpSamples - 1) / kHttpSamples);

int env_int(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) {
    const int value = std::atoi(env);
    if (value > 0) return value;
  }
  return fallback;
}

double percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1));
  return sorted_ms[rank];
}

struct ClientStats {
  std::vector<double> latencies_ms;
  std::size_t mismatches = 0;
};

/// Extracts the "raw":[...] array from a wire response body.
std::vector<std::int64_t> parse_raw(const std::string& body) {
  std::vector<std::int64_t> raw;
  const std::size_t key = body.find("\"raw\":[");
  if (key == std::string::npos) return raw;
  const char* cursor = body.c_str() + key + 7;
  while (*cursor != ']' && *cursor != '\0') {
    char* end = nullptr;
    raw.push_back(std::strtoll(cursor, &end, 10));
    cursor = *end == ',' ? end + 1 : end;
  }
  return raw;
}

/// The sequential reference: each sample of `pixels` through
/// infer_into.
std::vector<std::int64_t> sequential_raw(const FixedNetwork& engine,
                                         std::span<const float> pixels) {
  auto stats = engine.make_stats();
  auto scratch = engine.make_scratch();
  const std::size_t in = engine.input_size();
  const std::size_t out = engine.output_size();
  std::vector<std::int64_t> raw(pixels.size() / in * out);
  for (std::size_t i = 0; i * in < pixels.size(); ++i) {
    engine.infer_into(pixels.subspan(i * in, in),
                      std::span<std::int64_t>(raw).subspan(i * out, out),
                      stats, scratch);
  }
  return raw;
}

/// A model behind an HTTP target: its key, its sample size, and the
/// engine of each tier it serves, by X-Man-Accuracy-Tier value ("full"
/// when untiered; none on an external target).
struct TargetModel {
  std::string key;
  std::size_t input = 0;
  std::vector<std::pair<std::string, const FixedNetwork*>> tiers;
};

/// One request body and the raw outputs each tier must serve for it.
struct Payload {
  std::string model;
  std::string body;  ///< kHttpSamples samples of float32 pixels
  std::map<std::string, std::vector<std::int64_t>> expected;
};

/// Where the HTTP phases aim and what they send: request i carries
/// payloads[i % payloads.size()], which alternate over the models.
struct HttpTarget {
  std::string host;
  std::uint16_t port = 0;
  bool external = false;
  std::size_t models = 0;
  std::vector<Payload> payloads;
};

HttpTarget make_target(std::string host, std::uint16_t port, bool external,
                       const std::vector<TargetModel>& models) {
  constexpr std::size_t kPayloadsPerModel = 4;
  HttpTarget target{std::move(host), port, external, models.size(), {}};
  man::util::Rng rng(9000);
  for (std::size_t p = 0; p < kPayloadsPerModel * models.size(); ++p) {
    const TargetModel& model = models[p % models.size()];
    std::vector<float> pixels(model.input * kHttpSamples);
    for (float& v : pixels) v = static_cast<float>(rng.next_double());
    Payload payload;
    payload.model = model.key;
    payload.body.resize(pixels.size() * sizeof(float));
    std::memcpy(payload.body.data(), pixels.data(), payload.body.size());
    for (const auto& [tier, engine] : model.tiers) {
      payload.expected[tier] = sequential_raw(*engine, pixels);
    }
    target.payloads.push_back(std::move(payload));
  }
  return target;
}

/// One open-loop step's client-side tally.
struct SweepStep {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  std::size_t ok = 0;
  std::size_t shed = 0;        ///< 429 with Retry-After
  std::size_t retry_after_missing = 0;
  std::size_t errors = 0;      ///< transport/5xx/anything else
  /// 200s split by their X-Man-Accuracy-Tier header value ("full" on
  /// an untiered server); 200s lacking the header are counted apart.
  std::map<std::string, std::size_t> tier_ok;
  std::size_t tier_header_missing = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;

  [[nodiscard]] double shed_rate() const {
    return ok + shed > 0
               ? static_cast<double>(shed) / static_cast<double>(ok + shed)
               : 0.0;
  }
};

/// HTTP bit-identity spot checks, summed over every open-loop step.
struct SpotChecks {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
};

/// The one HTTP load generator: `rate_qps` requests/s for `seconds`,
/// open loop. Request i is due at start + i / rate and goes out on
/// sender i % senders, a blocking client with one request in flight.
/// Latency runs from the due time, so a sender running behind schedule
/// charges the backlog to the server, not the generator (no
/// coordinated omission). The pool, kSendersPerModel per target model,
/// is large enough that overload fills every queue. Every
/// kCheckEvery-th 200 of a sender is compared with its payload's
/// expected raw output for the tier that served it.
SweepStep open_loop(const HttpTarget& target, double rate_qps,
                    double seconds, SpotChecks& checks) {
  struct SenderTally {
    std::vector<double> ok_ms;
    std::size_t ok = 0, shed = 0, retry_missing = 0, errors = 0;
    std::map<std::string, std::size_t> tier_ok;
    std::size_t tier_missing = 0, checked = 0, mismatches = 0;
  };
  const std::size_t senders = kSendersPerModel * target.models;
  const auto total = static_cast<std::size_t>(
      std::max(1.0, std::round(rate_qps * seconds)));
  std::vector<SenderTally> tallies(senders);
  std::vector<std::thread> workers;
  workers.reserve(senders);
  // Lead time to start the pool before the first request is due.
  const auto start = Clock::now() + std::chrono::milliseconds(50);
  const double interval_ns = 1e9 / rate_qps;

  for (std::size_t s = 0; s < senders; ++s) {
    workers.emplace_back([&, s] {
      auto& mine = tallies[s];
      std::unique_ptr<HttpClient> client;
      for (std::size_t i = s; i < total; i += senders) {
        const auto intended =
            start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                        interval_ns * static_cast<double>(i)));
        std::this_thread::sleep_until(intended);  // no-op when behind
        const Payload& payload = target.payloads[i % target.payloads.size()];
        try {
          if (!client) {
            client = std::make_unique<HttpClient>(target.host, target.port);
          }
          const HttpResponse response =
              client->request("POST", "/v1/infer/" + payload.model,
                              payload.body, "application/octet-stream");
          const double latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        intended)
                  .count();
          if (response.status == 200) {
            mine.ok += 1;
            mine.ok_ms.push_back(latency_ms);
            const std::string* tier =
                response.find_header("X-Man-Accuracy-Tier");
            if (tier != nullptr) {
              mine.tier_ok[*tier] += 1;
            } else {
              mine.tier_missing += 1;
            }
            if (!target.external && (mine.ok - 1) % kCheckEvery == 0) {
              mine.checked += 1;
              const auto want = payload.expected.find(tier ? *tier : "");
              if (want == payload.expected.end() ||
                  parse_raw(response.body) != want->second) {
                mine.mismatches += 1;
              }
            }
          } else if (response.status == 429) {
            mine.shed += 1;
            if (response.find_header("Retry-After") == nullptr) {
              mine.retry_missing += 1;
            }
          } else {
            mine.errors += 1;
          }
          if (!response.keep_alive) client.reset();
        } catch (const std::exception&) {
          mine.errors += 1;
          client.reset();  // reconnect on the next arrival
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  SweepStep step;
  step.offered_qps = rate_qps;
  std::vector<double> ok_ms;
  for (auto& tally : tallies) {
    ok_ms.insert(ok_ms.end(), tally.ok_ms.begin(), tally.ok_ms.end());
    step.ok += tally.ok;
    step.shed += tally.shed;
    step.retry_after_missing += tally.retry_missing;
    step.errors += tally.errors;
    for (const auto& [name, count] : tally.tier_ok) {
      step.tier_ok[name] += count;
    }
    step.tier_header_missing += tally.tier_missing;
    checks.checked += tally.checked;
    checks.mismatches += tally.mismatches;
  }
  step.achieved_qps =
      wall_s > 0 ? static_cast<double>(total) / wall_s : 0.0;
  std::sort(ok_ms.begin(), ok_ms.end());
  step.p50_ms = percentile(ok_ms, 0.50);
  step.p99_ms = percentile(ok_ms, 0.99);
  step.p999_ms = percentile(ok_ms, 0.999);
  return step;
}

using Steps = std::vector<std::pair<std::string, SweepStep>>;

/// One table row per step; `tiers` counts the step's 200s by
/// X-Man-Accuracy-Tier.
void print_steps(const Steps& steps) {
  man::util::Table table({"step", "offered", "achieved", "ok", "shed",
                          "errors", "p50 ms", "p99 ms", "p999 ms", "tiers"});
  for (const auto& [label, step] : steps) {
    std::string tiers;
    for (const auto& [name, count] : step.tier_ok) {
      tiers += (tiers.empty() ? "" : " ") + name + "=" + std::to_string(count);
    }
    table.add_row({label, man::util::format_double(step.offered_qps, 0),
                   man::util::format_double(step.achieved_qps, 0),
                   std::to_string(step.ok), std::to_string(step.shed),
                   std::to_string(step.errors),
                   man::util::format_double(step.p50_ms, 3),
                   man::util::format_double(step.p99_ms, 3),
                   man::util::format_double(step.p999_ms, 3), tiers});
  }
  std::cout << table.to_string();
}

/// Capacity C, measured open loop: from `start` requests/s the offered
/// rate grows kRampFactor per kRampSeconds step. A step is clean when
/// achieved is at least 95 % of offered and at most 1 % of requests
/// shed or failed. The ramp stops at the second unclean step in a row,
/// since one unclean step between clean ones is a scheduling stall (on
/// a shared VM such a stall shed 1-3 % of a step at a third of
/// capacity). C is the last clean rate, or `start` when no step was.
/// Each such lone unclean step (one followed by a clean step) adds 1
/// to `lone_unclean`.
double calibrate(const HttpTarget& target, double start,
                 SpotChecks& checks, std::size_t& lone_unclean) {
  Steps ramp;
  double clean = 0.0;
  int unclean_in_a_row = 0;
  std::size_t lone = 0;
  for (double rate = start; rate < start * 1e4; rate *= kRampFactor) {
    ramp.emplace_back("ramp", open_loop(target, rate, kRampSeconds, checks));
    const SweepStep& step = ramp.back().second;
    const std::size_t done = step.ok + step.shed + step.errors;
    if (step.achieved_qps >= 0.95 * rate &&
        static_cast<double>(step.shed + step.errors) <=
            0.01 * static_cast<double>(done)) {
      clean = rate;
      lone += static_cast<std::size_t>(unclean_in_a_row);
      unclean_in_a_row = 0;
    } else if (++unclean_in_a_row == 2) {
      break;
    }
  }
  print_steps(ramp);
  std::cout << "lone unclean ramp steps: " << lone << "\n";
  lone_unclean += lone;
  if (clean == 0.0) {
    std::cout << "warning: no ramp step was clean; C is taken as the "
                 "starting rate\n";
  }
  return clean > 0.0 ? clean : start;
}

/// Lets the queue drain between load changes so each step measures
/// its own rate, not the previous step's backlog. A fixed sleep is not
/// enough on slow machines (the post-overload queue can take seconds
/// to drain), so it probes with single-sample requests until one is
/// served fast: a probe's latency IS the residual queue delay.
void settle(const HttpTarget& target) {
  const Payload& payload = target.payloads.front();
  const std::string_view one_sample(payload.body.data(),
                                    payload.body.size() / kHttpSamples);
  try {
    HttpClient probe(target.host, target.port);
    for (int attempt = 0; attempt < 100; ++attempt) {
      man::util::Stopwatch probe_wall;
      const HttpResponse response =
          probe.request("POST", "/v1/infer/" + payload.model, one_sample,
                        "application/octet-stream");
      if (response.status == 200 && probe_wall.seconds() < 0.025) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  } catch (const std::exception&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  }
}

}  // namespace

int main() {
  using man::serve::EngineCache;
  using man::serve::EngineSpec;
  using man::serve::InferenceServer;
  using man::serve::ServeConfig;
  using man::serve::ThreadPool;

  const int clients = env_int("MAN_SERVE_CLIENTS", 4);
  const int requests_per_client = env_int("MAN_SERVE_REQUESTS", 200);
  const int pool_threads = [] {
    const int requested = man::bench::bench_workers();
    if (requested > 0) return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(static_cast<int>(hw), 1, 16);
  }();

  // Untrained engines: serving throughput does not depend on the
  // weights, and the bench must not pay minutes of training.
  EngineCache engine_cache;
  EngineSpec digit_spec;
  digit_spec.app = man::apps::AppId::kDigitMlp8;
  digit_spec.alphabets = 4;
  digit_spec.trained = false;
  EngineSpec face_spec = digit_spec;
  face_spec.app = man::apps::AppId::kFaceMlp12;
  face_spec.alphabets = 1;

  const auto digit_engine = engine_cache.get(digit_spec);
  const auto face_engine = engine_cache.get(face_spec);
  const auto pool = std::make_shared<ThreadPool>(pool_threads);

  // ------------------------------------------------ phase 1: in-process
  man::bench::print_banner(
      "Serving throughput (in-process): " + std::to_string(clients) +
      " clients x " + std::to_string(requests_per_client) +
      " requests, max_batch " + std::to_string(kMaxBatch) + ", max_wait " +
      std::to_string(kMaxWait.count()) + " us, pool " +
      std::to_string(pool_threads) + " threads");

  ServeConfig config;
  config.max_batch = kMaxBatch;
  config.max_wait = kMaxWait;
  config.pool = pool;
  config.min_samples_per_worker = 1;
  InferenceServer digit_server(*digit_engine, config);
  InferenceServer face_server(*face_engine, config);

  std::vector<ClientStats> stats(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));

  man::util::Stopwatch wall;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      man::util::Rng rng(7000 + static_cast<std::uint64_t>(c));
      auto& mine = stats[static_cast<std::size_t>(c)];
      mine.latencies_ms.reserve(
          static_cast<std::size_t>(requests_per_client));
      for (int r = 0; r < requests_per_client; ++r) {
        const bool to_digit = (r + c) % 2 == 0;
        const auto& engine = to_digit ? *digit_engine : *face_engine;
        auto& server = to_digit ? digit_server : face_server;
        std::vector<float> pixels(engine.input_size());
        for (float& p : pixels) p = static_cast<float>(rng.next_double());

        man::serve::InferenceRequest request;
        request.payload = pixels;
        man::util::Stopwatch latency;
        const auto result = server.submit(std::move(request)).get();
        mine.latencies_ms.push_back(latency.seconds() * 1e3);
        if (!result.ok()) {
          mine.mismatches += 1;
          continue;
        }
        // Spot-check bit-identity on a sample of responses.
        if (r % 50 == 0 && result.raw != sequential_raw(engine, pixels)) {
          mine.mismatches += 1;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = wall.seconds();

  std::vector<double> all_ms;
  std::size_t mismatches = 0;
  for (const auto& s : stats) {
    all_ms.insert(all_ms.end(), s.latencies_ms.begin(),
                  s.latencies_ms.end());
    mismatches += s.mismatches;
  }
  std::sort(all_ms.begin(), all_ms.end());
  const auto total_requests = static_cast<double>(all_ms.size());

  const auto digit_metrics = digit_server.metrics();
  const auto face_metrics = face_server.metrics();
  const auto batches = digit_metrics.batches + face_metrics.batches;
  const auto samples = digit_metrics.samples + face_metrics.samples;

  man::util::Table table({"Metric", "Value"});
  table.add_row({"requests", std::to_string(all_ms.size())});
  table.add_row({"wall time (s)", man::util::format_double(wall_s, 3)});
  table.add_row(
      {"QPS", man::util::format_double(total_requests / wall_s, 1)});
  table.add_row({"p50 latency (ms)",
                 man::util::format_double(percentile(all_ms, 0.50), 3)});
  table.add_row({"p99 latency (ms)",
                 man::util::format_double(percentile(all_ms, 0.99), 3)});
  table.add_row({"p999 latency (ms)",
                 man::util::format_double(percentile(all_ms, 0.999), 3)});
  table.add_row({"micro-batches", std::to_string(batches)});
  table.add_row(
      {"avg batch (samples)",
       man::util::format_double(
           batches > 0 ? static_cast<double>(samples) /
                             static_cast<double>(batches)
                       : 0.0,
           2)});
  table.add_row({"largest batch",
                 std::to_string(std::max(digit_metrics.largest_batch,
                                         face_metrics.largest_batch))});
  table.add_row({"pool threads started",
                 std::to_string(pool->threads_started())});
  table.add_row({"kernel backend", digit_server.stats().backend});
  std::cout << table.to_string();
  std::cout << "bit-identity spot checks: "
            << (mismatches == 0 ? "all matched" : "MISMATCH") << "\n";

  // --------------------------------------------- phases 2+3: HTTP front-end
  const TargetModel digit_model{
      "digit", digit_engine->input_size(), {{"full", digit_engine.get()}}};
  HttpTarget target;
  std::unique_ptr<InferenceServer> http_digit;
  std::unique_ptr<InferenceServer> http_face;
  std::unique_ptr<man::serve::http::HttpServer> http_server;
  // A deliberately small bounded queue is the overload mechanism
  // under test: once senders outpace the engine, admission control
  // turns the excess into immediate 429s instead of letting latency
  // grow without bound. Phase 4's servers reuse the same config so
  // the shed-only vs tiered comparison differs only in the ladder.
  ServeConfig http_config = config;
  http_config.queue_capacity = kHttpQueue;
  http_config.queue_delay_slo = kHttpSlo;
  if (const char* addr = std::getenv("MAN_HTTP_ADDR")) {
    const std::string spec(addr);
    const std::size_t colon = spec.rfind(':');
    target = make_target(
        colon == std::string::npos ? spec : spec.substr(0, colon),
        static_cast<std::uint16_t>(
            colon == std::string::npos ? 0
                                       : std::atoi(spec.c_str() + colon + 1)),
        true, {{"digit", kExternalInput, {}}});
  } else {
    http_digit =
        std::make_unique<InferenceServer>(*digit_engine, http_config);
    http_face = std::make_unique<InferenceServer>(*face_engine, http_config);
    http_server = std::make_unique<man::serve::http::HttpServer>();
    http_server->add_model("digit", *http_digit);
    http_server->add_model("face", *http_face);
    http_server->start();
    target = make_target(
        "127.0.0.1", http_server->port(), false,
        {digit_model,
         {"face", face_engine->input_size(), {{"full", face_engine.get()}}}});
  }

  man::bench::print_banner(
      "HTTP capacity ramp: " + target.host + ":" +
      std::to_string(target.port) + ", " + std::to_string(kHttpSamples) +
      " samples/request, " +
      std::to_string(kSendersPerModel * target.models) + " senders, x" +
      man::util::format_double(kRampFactor, 2) + " per " +
      man::util::format_double(kRampSeconds, 0) + " s step" +
      (target.external ? " [external]" : ""));
  SpotChecks http_checks;
  std::size_t lone_unclean_steps = 0;
  const double capacity_qps =
      calibrate(target, kRampStart, http_checks, lone_unclean_steps);
  std::cout << "capacity: " << man::util::format_double(capacity_qps, 0)
            << " requests/s\n";

  man::bench::print_banner("HTTP open loop: sweep [C/2, C, 2C, C/2], " +
                           man::util::format_double(kStepSeconds, 0) +
                           " s per step");
  Steps sweep;
  const std::pair<const char*, double> steps[] = {
      {"0.5C pre", 0.5}, {"1C", 1.0}, {"2C", 2.0}, {"0.5C post", 0.5}};
  for (const auto& [label, factor] : steps) {
    settle(target);
    sweep.emplace_back(label, open_loop(target, capacity_qps * factor,
                                        kStepSeconds, http_checks));
  }
  print_steps(sweep);

  const SweepStep& pre = sweep[0].second;
  const SweepStep& at_1c = sweep[1].second;
  const SweepStep& overload = sweep[2].second;
  const SweepStep& post = sweep[3].second;
  const double recovery_p99_ratio =
      pre.p99_ms > 0 ? post.p99_ms / pre.p99_ms : 0.0;
  std::cout << "overload (2C): shed rate "
            << man::util::format_double(overload.shed_rate() * 100, 1)
            << "%, recovery p99 ratio "
            << man::util::format_double(recovery_p99_ratio, 2)
            << ", 429s missing Retry-After: "
            << overload.retry_after_missing << "\n";

  // -------------------------------------------- phase 4: tiered QoS sweep
  const std::vector<man::serve::QosTier> ladder =
      man::serve::parse_qos_tiers("asm4,asm2,exact");
  man::bench::print_banner(
      "HTTP tiered QoS (asm4,asm2,exact): degradation sweep [0.6C, 1.15C, "
      "2C]" + std::string(target.external ? " [external]" : ""));

  double tiered_capacity = capacity_qps;
  SweepStep shed_only_2c;
  std::vector<std::pair<double, SweepStep>> curve;
  std::size_t tier_mismatches = 0;

  std::unique_ptr<InferenceServer> qos_server;
  std::unique_ptr<man::serve::http::HttpServer> qos_http;
  HttpTarget tiered_target = target;
  HttpTarget digit_target;
  if (!target.external) {
    // Digit-only capacity on the untiered phase-3 server: the common
    // normalizer, so the shed-only and tiered 2C steps offer the same
    // absolute rate to identically configured servers. Digit is the
    // cheaper model, so C/4 of the mixed capacity starts the ramp well
    // under it.
    digit_target = make_target("127.0.0.1", target.port, false, {digit_model});
    settle(digit_target);
    tiered_capacity = calibrate(digit_target, capacity_qps / 4, http_checks,
                                lone_unclean_steps);
    std::cout << "digit-only capacity: "
              << man::util::format_double(tiered_capacity, 0)
              << " requests/s\n";

    ServeConfig qos_config = http_config;
    qos_config.qos_tiers = ladder;
    man::serve::TieredEngine tiered = engine_cache.tiered(digit_spec, ladder);
    TargetModel tiered_model{"digit", digit_engine->input_size(), {}};
    for (const auto& tier : tiered.tiers) {
      tiered_model.tiers.emplace_back(tier.spec.name, tier.engine.get());
    }
    // The expected outputs are computed here, while `tiered` still
    // holds the tier engines.
    tiered_target = make_target("127.0.0.1", 0, false, {tiered_model});
    qos_server = std::make_unique<InferenceServer>(std::move(tiered),
                                                   qos_config);
    qos_http = std::make_unique<man::serve::http::HttpServer>();
    qos_http->add_model("digit", *qos_server);
    qos_http->start();
    tiered_target.port = qos_http->port();
  }

  for (const double factor : {0.6, 1.15, 2.0}) {
    if (factor == 2.0 && !target.external) {
      // The shed-only reference runs right before the step it is
      // compared with, so drift in the machine's speed between the
      // two stays small.
      settle(digit_target);
      shed_only_2c = open_loop(digit_target, tiered_capacity * 2,
                               kStepSeconds, http_checks);
    }
    settle(tiered_target);
    const double rate = tiered_capacity * factor;
    curve.emplace_back(
        factor, open_loop(tiered_target, rate, kStepSeconds, http_checks));
  }

  // Per-tier bit-identity: pin min-tier to force each rung, then
  // compare the served raw output against that rung's own sequential
  // engine (each tier is exact w.r.t. its own precision scheme).
  if (!target.external) {
    for (std::size_t pin = 0; pin < ladder.size(); ++pin) {
      ServeConfig pin_config = http_config;
      pin_config.qos_tiers = ladder;
      pin_config.qos_min_tier = pin;
      man::serve::TieredEngine pin_tiered =
          engine_cache.tiered(digit_spec, ladder);
      const auto pin_engine = pin_tiered.tiers[pin].engine;
      InferenceServer pin_server(std::move(pin_tiered), pin_config);

      man::util::Rng rng(13000 + static_cast<std::uint64_t>(pin));
      std::vector<float> pixels(pin_engine->input_size());
      for (float& p : pixels) p = static_cast<float>(rng.next_double());
      man::serve::InferenceRequest request;
      request.payload = pixels;
      const auto result = pin_server.submit(std::move(request)).get();
      if (!result.ok() || result.tier_name != ladder[pin].name ||
          result.raw != sequential_raw(*pin_engine, pixels)) {
        tier_mismatches += 1;
      }
    }
  }

  Steps tier_rows;
  if (!target.external) tier_rows.emplace_back("2C shed-only", shed_only_2c);
  for (const auto& [factor, step] : curve) {
    tier_rows.emplace_back(man::util::format_double(factor, 2) + "C tiered",
                           step);
  }
  print_steps(tier_rows);

  const SweepStep& tiered_2c = curve.back().second;
  std::size_t lower_tier_ok_2c = 0;
  std::size_t tier_header_missing = 0;
  for (const auto& [name, count] : tiered_2c.tier_ok) {
    if (name != ladder.front().name) lower_tier_ok_2c += count;
  }
  for (const auto& [factor, step] : curve) {
    tier_header_missing += step.tier_header_missing;
  }
  const double lower_tier_share_2c =
      tiered_2c.ok > 0 ? static_cast<double>(lower_tier_ok_2c) /
                             static_cast<double>(tiered_2c.ok)
                       : 0.0;
  std::cout << "tiered shed rate at 2C: "
            << man::util::format_double(tiered_2c.shed_rate() * 100, 1)
            << "%"
            << (target.external
                    ? std::string()
                    : " (shed-only reference " +
                          man::util::format_double(
                              shed_only_2c.shed_rate() * 100, 1) +
                          "%)")
            << ", lower-tier share "
            << man::util::format_double(lower_tier_share_2c * 100, 1)
            << "%, 200s missing tier header: " << tier_header_missing
            << "\n";
  std::cout << "per-tier bit-identity (min-tier pinned): "
            << (target.external
                    ? "skipped [external]"
                    : (tier_mismatches == 0 ? "all matched" : "MISMATCH"))
            << "\n";
  // In process, the open loop must have checked some 200s: a generator
  // that checks none proves nothing.
  const bool http_identical =
      http_checks.mismatches == 0 &&
      (target.external || http_checks.checked > 0);
  std::cout << "HTTP bit-identity spot checks: "
            << (target.external
                    ? std::string("skipped [external]")
                    : std::to_string(http_checks.checked) + " checked, " +
                          (http_identical ? "all matched" : "MISMATCH"))
            << "\n";

  if (qos_http) qos_http->stop();
  if (http_server) http_server->stop();

  if (const std::string json = man::bench::bench_json_path(); !json.empty()) {
    std::ofstream out(json);
    out << "{\n  \"serve_throughput\": {\n    \"requests\": " << all_ms.size()
        << ",\n    \"qps\": "
        << man::util::format_double(total_requests / wall_s, 2)
        << ",\n    \"p50_ms\": "
        << man::util::format_double(percentile(all_ms, 0.50), 4)
        << ",\n    \"p99_ms\": "
        << man::util::format_double(percentile(all_ms, 0.99), 4)
        << ",\n    \"p999_ms\": "
        << man::util::format_double(percentile(all_ms, 0.999), 4)
        << ",\n    \"backend\": \"" << digit_server.stats().backend
        << "\",\n    \"bit_identical\": "
        << (mismatches == 0 ? "true" : "false") << "\n  },\n"
        << "  \"serve_http\": {\n    \"capacity_qps\": "
        << man::util::format_double(capacity_qps, 2)
        << ",\n    \"shed_rate_overload\": "
        << man::util::format_double(overload.shed_rate(), 4)
        << ",\n    \"p999_ms\": "
        << man::util::format_double(at_1c.p999_ms, 4)
        << ",\n    \"recovery_p99_ratio\": "
        << man::util::format_double(recovery_p99_ratio, 4)
        << ",\n    \"ramp_lone_unclean_steps\": " << lone_unclean_steps
        << ",\n    \"external\": " << (target.external ? "true" : "false")
        << ",\n    \"bit_identical\": "
        << (http_identical ? "true" : "false") << "\n  },\n"
        << "  \"serve_http_tiered\": {\n    \"capacity_qps\": "
        << man::util::format_double(tiered_capacity, 2)
        << ",\n    \"ladder\": [";
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << ladder[i].name << "\"";
    }
    out << "],\n    \"shed_only_shed_rate_2c\": "
        << (target.external
                ? std::string("-1")
                : man::util::format_double(shed_only_2c.shed_rate(), 4))
        << ",\n    \"tiered_shed_rate_2c\": "
        << man::util::format_double(tiered_2c.shed_rate(), 4)
        << ",\n    \"lower_tier_share_2c\": "
        << man::util::format_double(lower_tier_share_2c, 4)
        << ",\n    \"tier_header_missing\": " << tier_header_missing
        << ",\n    \"curve\": [";
    for (std::size_t i = 0; i < curve.size(); ++i) {
      const auto& [factor, step] = curve[i];
      out << (i == 0 ? "" : ", ") << "{\"offered_factor\": "
          << man::util::format_double(factor, 2)
          << ", \"ok\": " << step.ok << ", \"shed\": " << step.shed
          << ", \"tiers\": {";
      bool first_tier = true;
      for (const auto& [name, count] : step.tier_ok) {
        out << (first_tier ? "" : ", ") << "\"" << name << "\": " << count;
        first_tier = false;
      }
      out << "}}";
    }
    out << "],\n    \"external\": " << (target.external ? "true" : "false")
        << ",\n    \"bit_identical\": "
        << (tier_mismatches == 0 ? "true" : "false") << "\n  }\n}\n";
  }
  const bool tiers_ok = tier_mismatches == 0 && tier_header_missing == 0;
  return mismatches == 0 && http_identical &&
                 overload.retry_after_missing == 0 && tiers_ok
             ? 0
             : 1;
}
