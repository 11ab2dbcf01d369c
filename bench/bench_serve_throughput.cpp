// Serving-layer throughput/latency bench, in four phases:
//
//  1. In-process closed loop (the historical `serve_throughput`
//     section): concurrent clients hammer InferenceServer front-ends
//     (digit + face engines sharing one persistent ThreadPool) with
//     single-sample typed requests; reports QPS, p50/p99/p999
//     client-observed latency, micro-batch shape, and bit-identity
//     spot checks against the sequential engine path.
//  2. HTTP closed loop: the same engines behind the epoll HTTP/1.1
//     front-end on loopback; measures sustainable capacity C in
//     requests/s (this also calibrates the servers' queue-delay
//     EWMA) with bit-identity spot checks on the wire responses.
//  3. HTTP open loop: an arrival-rate sweep [C/2, C, 2C, C/2] with
//     latency measured from each request's *intended* send time
//     (coordinated-omission-free), demonstrating overload behaviour:
//     excess load shed with 429 + Retry-After while the server stays
//     up, and p99 of accepted traffic recovering once load drops.
//     If 2C fails to overload (capacity was underestimated), the
//     overload step escalates 4C, 8C and reports the factor used.
//  4. Tiered QoS (graceful degradation): a digit server compiled as
//     an asm4/asm2/exact precision ladder, driven at [0.6C, 1.15C,
//     2C] of its own digit-only capacity. Tier 0 is the
//     energy-efficient ASM engine the paper argues for; under
//     deadline pressure the dispatcher steps down to cheaper staging
//     (asm2) and finally to the conventional-multiplier engine
//     (exact). A conventional engine runs the same grouped plans over
//     the full alphabet set, staging 8 bank lanes to asm4's 4, so on
//     CPU backends it costs about 1.1-1.5x asm4 per sample, one sample
//     at a time or batched (docs/serving.md): the exact rung no longer
//     buys throughput, and the asm-to-asm step is small, since kernel
//     work follows the plan's terms, not its alphabet count. Emits the
//     degradation curve (per-tier 200 mix and shed rate per step,
//     tallied from the
//     X-Man-Accuracy-Tier response header) plus a shed-only 2C
//     reference on an untiered tier-0 server with the identical
//     config — the gate being that degrading under overload sheds
//     strictly less than shedding alone. Per-tier bit-identity is
//     checked by pinning min-tier and comparing against that tier's
//     sequential engine.
//
// Env knobs: MAN_SERVE_CLIENTS (default 4), MAN_SERVE_REQUESTS per
// client (default 200), MAN_SERVE_MAX_BATCH (default 64),
// MAN_SERVE_MAX_WAIT_US (default 200), MAN_BENCH_WORKERS (pool size,
// default auto), MAN_HTTP_SAMPLES (samples per HTTP request, default
// 16), MAN_HTTP_QUEUE (bounded queue, in samples — the deterministic
// overload trigger; default 512), MAN_HTTP_SLO_US (queue-delay SLO,
// default 25000), MAN_HTTP_STEP_SECONDS (sweep step duration, default
// 2), MAN_HTTP_SENDERS (open-loop sender threads, default 32).
// MAN_HTTP_ADDR=host:port drives an already-running external server
// (e.g. serving_demo --listen) instead of an in-process one — phases
// 2+3 only, /v1/infer/digit only, payload size from MAN_HTTP_INPUT
// (default 1024, the digit MLP input), no bit-identity checks.
#include <algorithm>
#include <atomic>
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
#include <thread>
#include <vector>

#include "bench_common.h"
#include "man/serve/engine_cache.h"
#include "man/serve/http/http_client.h"
#include "man/serve/http/http_server.h"
#include "man/serve/inference_server.h"
#include "man/serve/thread_pool.h"
#include "man/util/rng.h"

namespace {

using man::serve::http::HttpClient;
using man::serve::http::HttpResponse;

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

std::string binary_payload(const std::vector<float>& pixels) {
  std::string body(pixels.size() * sizeof(float), '\0');
  std::memcpy(body.data(), pixels.data(), body.size());
  return body;
}

/// Where the HTTP phases aim: an in-process loopback server, or an
/// external MAN_HTTP_ADDR one.
struct HttpTarget {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  bool external = false;
  /// Engines for payload sizing + bit-identity (empty when external).
  std::vector<std::pair<std::string,
                        std::shared_ptr<const man::engine::FixedNetwork>>>
      models;
  std::size_t external_input = 1024;

  [[nodiscard]] std::size_t input_size(std::size_t model_index) const {
    return external ? external_input
                    : models[model_index % models.size()].second->input_size();
  }
  [[nodiscard]] const std::string& model_key(std::size_t model_index) const {
    static const std::string kDigit = "digit";
    return external ? kDigit : models[model_index % models.size()].first;
  }
};

/// One open-loop sweep step's client-side tally.
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

/// Closed-loop HTTP phase: `threads` connections each running
/// `requests` back-to-back infer calls of `samples_per_request`.
/// Returns achieved requests/s; bumps `mismatches` on any response
/// whose raw payload is not bit-identical to the sequential engine.
double http_closed_loop(const HttpTarget& target, int threads, int requests,
                        std::size_t samples_per_request,
                        std::atomic<std::size_t>& mismatches,
                        std::atomic<std::size_t>& failures) {
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  man::util::Stopwatch wall;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      try {
        HttpClient client(target.host, target.port);
        man::util::Rng rng(9000 + static_cast<std::uint64_t>(t));
        for (int r = 0; r < requests; ++r) {
          const std::size_t model = static_cast<std::size_t>(t + r);
          std::vector<float> pixels(target.input_size(model) *
                                    samples_per_request);
          for (float& p : pixels) p = static_cast<float>(rng.next_double());
          const HttpResponse response = client.request(
              "POST", "/v1/infer/" + target.model_key(model),
              binary_payload(pixels), "application/octet-stream");
          if (response.status != 200) {
            failures.fetch_add(1);
            continue;
          }
          if (!target.external && r % 32 == 0) {
            const auto& engine =
                *target.models[model % target.models.size()].second;
            auto stats = engine.make_stats();
            auto scratch = engine.make_scratch();
            std::vector<std::int64_t> expected(samples_per_request *
                                               engine.output_size());
            for (std::size_t i = 0; i < samples_per_request; ++i) {
              engine.infer_into(
                  std::span<const float>(pixels).subspan(
                      i * engine.input_size(), engine.input_size()),
                  std::span<std::int64_t>(expected).subspan(
                      i * engine.output_size(), engine.output_size()),
                  stats, scratch);
            }
            if (parse_raw(response.body) != expected) mismatches.fetch_add(1);
          }
        }
      } catch (const std::exception&) {
        failures.fetch_add(static_cast<std::size_t>(requests));
      }
    });
  }
  for (auto& w : workers) w.join();
  const double wall_s = wall.seconds();
  return wall_s > 0
             ? static_cast<double>(threads) * requests / wall_s
             : 0.0;
}

/// Open-loop phase: `total` arrivals scheduled at fixed `rate_qps`
/// intervals across `senders` threads. Latency is measured from the
/// *intended* send time, so a sender running behind schedule charges
/// the backlog to the server, not the generator (no coordinated
/// omission).
SweepStep http_open_loop(const HttpTarget& target, double rate_qps,
                         std::size_t total, int senders,
                         std::size_t samples_per_request) {
  using Clock = std::chrono::steady_clock;
  struct SenderTally {
    std::vector<double> ok_ms;
    std::size_t ok = 0, shed = 0, retry_missing = 0, errors = 0;
    std::map<std::string, std::size_t> tier_ok;
    std::size_t tier_missing = 0;
  };
  std::vector<SenderTally> tallies(static_cast<std::size_t>(senders));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(senders));
  const auto start = Clock::now() + std::chrono::milliseconds(10);
  const double interval_ns = 1e9 / rate_qps;

  for (int s = 0; s < senders; ++s) {
    workers.emplace_back([&, s] {
      auto& mine = tallies[static_cast<std::size_t>(s)];
      std::unique_ptr<HttpClient> client;
      man::util::Rng rng(11000 + static_cast<std::uint64_t>(s));
      for (std::size_t i = static_cast<std::size_t>(s); i < total;
           i += static_cast<std::size_t>(senders)) {
        const auto intended =
            start + std::chrono::nanoseconds(
                        static_cast<std::int64_t>(interval_ns *
                                                  static_cast<double>(i)));
        std::this_thread::sleep_until(intended);  // no-op when behind
        std::vector<float> pixels(target.input_size(i) *
                                  samples_per_request);
        for (float& p : pixels) p = static_cast<float>(rng.next_double());
        try {
          if (!client) {
            client = std::make_unique<HttpClient>(target.host, target.port);
          }
          const HttpResponse response = client->request(
              "POST", "/v1/infer/" + target.model_key(i),
              binary_payload(pixels), "application/octet-stream");
          const double latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        intended)
                  .count();
          if (response.status == 200) {
            mine.ok += 1;
            mine.ok_ms.push_back(latency_ms);
            if (const std::string* tier =
                    response.find_header("X-Man-Accuracy-Tier")) {
              mine.tier_ok[*tier] += 1;
            } else {
              mine.tier_missing += 1;
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
  man::util::Stopwatch wall;
  for (auto& w : workers) w.join();

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
  }
  const double wall_s = wall.seconds();
  step.achieved_qps =
      wall_s > 0 ? static_cast<double>(total) / wall_s : 0.0;
  std::sort(ok_ms.begin(), ok_ms.end());
  step.p50_ms = percentile(ok_ms, 0.50);
  step.p99_ms = percentile(ok_ms, 0.99);
  step.p999_ms = percentile(ok_ms, 0.999);
  return step;
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
  const int max_batch = env_int("MAN_SERVE_MAX_BATCH", 64);
  const int max_wait_us = env_int("MAN_SERVE_MAX_WAIT_US", 200);
  const auto http_samples =
      static_cast<std::size_t>(env_int("MAN_HTTP_SAMPLES", 16));
  const auto http_queue =
      static_cast<std::size_t>(env_int("MAN_HTTP_QUEUE", 512));
  const int http_slo_us = env_int("MAN_HTTP_SLO_US", 25'000);
  const int step_seconds = env_int("MAN_HTTP_STEP_SECONDS", 2);
  const int senders = env_int("MAN_HTTP_SENDERS", 32);
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
      " requests, max_batch " + std::to_string(max_batch) + ", max_wait " +
      std::to_string(max_wait_us) + " us, pool " +
      std::to_string(pool_threads) + " threads");

  ServeConfig config;
  config.max_batch = static_cast<std::size_t>(max_batch);
  config.max_wait = std::chrono::microseconds(max_wait_us);
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
        if (r % 50 == 0) {
          auto check_stats = engine.make_stats();
          auto scratch = engine.make_scratch();
          std::vector<std::int64_t> expected(engine.output_size());
          engine.infer_into(pixels, expected, check_stats, scratch);
          if (result.raw != expected) mine.mismatches += 1;
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
  HttpTarget target;
  std::unique_ptr<InferenceServer> http_digit;
  std::unique_ptr<InferenceServer> http_face;
  std::unique_ptr<man::serve::http::HttpServer> http_server;
  // A deliberately small bounded queue is the overload mechanism
  // under test (see below); phase 4's servers reuse the same config
  // so the shed-only vs tiered comparison differs only in the ladder.
  ServeConfig http_config = config;
  http_config.queue_capacity = std::max(http_queue, http_config.max_batch);
  http_config.queue_delay_slo = std::chrono::microseconds(http_slo_us);
  if (const char* addr = std::getenv("MAN_HTTP_ADDR")) {
    const std::string spec(addr);
    const std::size_t colon = spec.rfind(':');
    target.external = true;
    target.host = colon == std::string::npos ? spec : spec.substr(0, colon);
    target.port = static_cast<std::uint16_t>(
        colon == std::string::npos ? 0 : std::atoi(spec.c_str() + colon + 1));
    target.external_input =
        static_cast<std::size_t>(env_int("MAN_HTTP_INPUT", 1024));
  } else {
    // Once senders outpace the engine, admission control turns the
    // excess into immediate 429s instead of letting latency grow
    // without bound. The SLO backstops it for slow engines.
    http_digit =
        std::make_unique<InferenceServer>(*digit_engine, http_config);
    http_face = std::make_unique<InferenceServer>(*face_engine, http_config);
    http_server = std::make_unique<man::serve::http::HttpServer>();
    http_server->add_model("digit", *http_digit);
    http_server->add_model("face", *http_face);
    http_server->start();
    target.port = http_server->port();
    target.models.emplace_back("digit", digit_engine);
    target.models.emplace_back("face", face_engine);
  }

  man::bench::print_banner(
      "HTTP closed loop (capacity): " + target.host + ":" +
      std::to_string(target.port) + ", " + std::to_string(http_samples) +
      " samples/request" + (target.external ? " [external]" : ""));

  std::atomic<std::size_t> http_mismatches{0};
  std::atomic<std::size_t> http_failures{0};
  // Short warmup calibrates the queue-delay EWMA before measuring.
  http_closed_loop(target, 4, 50, http_samples, http_mismatches,
                   http_failures);
  // 4 connections keep the closed-loop queue well inside the bounded
  // capacity, so this measures engine throughput, not shed-reply rate.
  const double capacity_qps = http_closed_loop(
      target, 4, 400, http_samples, http_mismatches, http_failures);
  std::cout << "capacity: " << man::util::format_double(capacity_qps, 0)
            << " requests/s (" << http_failures.load()
            << " failures)\n";

  man::bench::print_banner("HTTP open loop: sweep [C/2, C, 2C, C/2], " +
                           std::to_string(step_seconds) + " s per step, " +
                           std::to_string(senders) + " senders");

  // Let the queue drain between load changes so each step measures
  // its own rate, not the previous step's backlog. A fixed sleep is
  // not enough on slow machines (the post-overload queue can take
  // seconds to drain), so probe with single-sample requests until one
  // is served fast — a probe's latency IS the residual queue delay.
  const auto settle = [&](const HttpTarget& t) {
    try {
      HttpClient probe(t.host, t.port);
      std::vector<float> pixels(t.input_size(0), 0.5F);
      for (int attempt = 0; attempt < 100; ++attempt) {
        man::util::Stopwatch probe_wall;
        const HttpResponse response = probe.request(
            "POST", "/v1/infer/" + t.model_key(0), binary_payload(pixels),
            "application/octet-stream");
        if (response.status == 200 && probe_wall.seconds() < 0.025) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
  };
  const auto step_requests = [&](double rate) {
    const double want = rate * step_seconds;
    return static_cast<std::size_t>(
        std::clamp(want, 200.0, 200'000.0));
  };
  std::vector<std::pair<std::string, SweepStep>> sweep;
  const double half = capacity_qps / 2;
  // Discarded warm step: pays connection setup + first-touch costs so
  // the pre-overload baseline measures steady state.
  http_open_loop(target, half, step_requests(half) / 4, senders,
                 http_samples);
  settle(target);
  sweep.emplace_back("0.5C pre",
                     http_open_loop(target, half, step_requests(half),
                                    senders, http_samples));
  sweep.emplace_back("1C",
                     http_open_loop(target, capacity_qps,
                                    step_requests(capacity_qps), senders,
                                    http_samples));
  // Overload step: escalate 2C -> 4C -> 8C until shedding engages (a
  // closed-loop capacity estimate can undershoot what batching
  // absorbs).
  double overload_factor = 2.0;
  SweepStep overload;
  for (;;) {
    const double rate = capacity_qps * overload_factor;
    overload =
        http_open_loop(target, rate, step_requests(rate), senders,
                       http_samples);
    if (overload.shed > 0 || overload_factor >= 8.0) break;
    overload_factor *= 2;
  }
  sweep.emplace_back(man::util::format_double(overload_factor, 0) + "C",
                     overload);
  settle(target);
  sweep.emplace_back("0.5C post",
                     http_open_loop(target, half, step_requests(half),
                                    senders, http_samples));

  man::util::Table sweep_table({"step", "offered", "achieved", "ok", "shed",
                                "errors", "p50 ms", "p99 ms", "p999 ms"});
  for (const auto& [label, step] : sweep) {
    sweep_table.add_row(
        {label, man::util::format_double(step.offered_qps, 0),
         man::util::format_double(step.achieved_qps, 0),
         std::to_string(step.ok), std::to_string(step.shed),
         std::to_string(step.errors),
         man::util::format_double(step.p50_ms, 3),
         man::util::format_double(step.p99_ms, 3),
         man::util::format_double(step.p999_ms, 3)});
  }
  std::cout << sweep_table.to_string();

  const SweepStep& pre = sweep[0].second;
  const SweepStep& at_1c = sweep[1].second;
  const SweepStep& post = sweep[3].second;
  const double shed_rate_overload =
      overload.ok + overload.shed > 0
          ? static_cast<double>(overload.shed) /
                static_cast<double>(overload.ok + overload.shed)
          : 0.0;
  const double recovery_p99_ratio =
      pre.p99_ms > 0 ? post.p99_ms / pre.p99_ms : 0.0;
  const bool http_ok = http_mismatches.load() == 0 &&
                       overload.retry_after_missing == 0;
  std::cout << "overload factor: "
            << man::util::format_double(overload_factor, 0)
            << "C, shed rate " << man::util::format_double(
                   shed_rate_overload * 100, 1)
            << "%, recovery p99 ratio "
            << man::util::format_double(recovery_p99_ratio, 2)
            << ", 429s missing Retry-After: "
            << overload.retry_after_missing << "\n";
  std::cout << "HTTP bit-identity spot checks: "
            << (http_mismatches.load() == 0 ? "all matched" : "MISMATCH")
            << "\n";

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
  if (!target.external) {
    // Digit-only capacity on the untiered phase-3 server: the common
    // normalizer, so the shed-only and tiered 2C steps offer the same
    // absolute rate to identically configured servers.
    HttpTarget digit_target = target;
    digit_target.models = {{"digit", digit_engine}};
    tiered_capacity = http_closed_loop(digit_target, 4, 300, http_samples,
                                       http_mismatches, http_failures);
    std::cout << "digit-only capacity: "
              << man::util::format_double(tiered_capacity, 0)
              << " requests/s\n";

    const double overload_rate = tiered_capacity * 2;
    shed_only_2c =
        http_open_loop(digit_target, overload_rate,
                       step_requests(overload_rate), senders, http_samples);
    settle(digit_target);

    ServeConfig qos_config = http_config;
    qos_config.qos_tiers = ladder;
    qos_server = std::make_unique<InferenceServer>(
        engine_cache.tiered(digit_spec, ladder), qos_config);
    qos_http = std::make_unique<man::serve::http::HttpServer>();
    qos_http->add_model("digit", *qos_server);
    qos_http->start();
    tiered_target = HttpTarget{};
    tiered_target.port = qos_http->port();
    tiered_target.models = {{"digit", digit_engine}};
  }

  // Discarded warm step: calibrates the tiered server's queue-delay
  // EWMA (and pays connection setup) before the measured curve.
  {
    const double rate = tiered_capacity * 0.6;
    http_open_loop(tiered_target, rate, step_requests(rate) / 4, senders,
                   http_samples);
    settle(tiered_target);
  }
  for (const double factor : {0.6, 1.15, 2.0}) {
    const double rate = tiered_capacity * factor;
    curve.emplace_back(factor,
                       http_open_loop(tiered_target, rate,
                                      step_requests(rate), senders,
                                      http_samples));
    settle(tiered_target);
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

      auto check_stats = pin_engine->make_stats();
      auto scratch = pin_engine->make_scratch();
      std::vector<std::int64_t> expected(pin_engine->output_size());
      pin_engine->infer_into(pixels, expected, check_stats, scratch);
      if (!result.ok() || result.tier_name != ladder[pin].name ||
          result.raw != expected) {
        tier_mismatches += 1;
      }
    }
  }

  const auto format_tiers = [](const SweepStep& step) {
    std::string out;
    for (const auto& [name, count] : step.tier_ok) {
      if (!out.empty()) out.push_back(' ');
      out += name + "=" + std::to_string(count);
    }
    return out.empty() ? std::string("-") : out;
  };
  man::util::Table tier_table(
      {"step", "offered", "ok", "shed", "shed %", "tiers", "p99 ms"});
  if (!target.external) {
    tier_table.add_row(
        {"2C shed-only", man::util::format_double(shed_only_2c.offered_qps, 0),
         std::to_string(shed_only_2c.ok), std::to_string(shed_only_2c.shed),
         man::util::format_double(shed_only_2c.shed_rate() * 100, 1),
         format_tiers(shed_only_2c),
         man::util::format_double(shed_only_2c.p99_ms, 3)});
  }
  for (const auto& [factor, step] : curve) {
    tier_table.add_row(
        {man::util::format_double(factor, 2) + "C tiered",
         man::util::format_double(step.offered_qps, 0),
         std::to_string(step.ok), std::to_string(step.shed),
         man::util::format_double(step.shed_rate() * 100, 1),
         format_tiers(step), man::util::format_double(step.p99_ms, 3)});
  }
  std::cout << tier_table.to_string();

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
        << ",\n    \"overload_factor\": "
        << man::util::format_double(overload_factor, 0)
        << ",\n    \"shed_rate_overload\": "
        << man::util::format_double(shed_rate_overload, 4)
        << ",\n    \"p999_ms\": "
        << man::util::format_double(at_1c.p999_ms, 4)
        << ",\n    \"recovery_p99_ratio\": "
        << man::util::format_double(recovery_p99_ratio, 4)
        << ",\n    \"external\": " << (target.external ? "true" : "false")
        << ",\n    \"bit_identical\": "
        << (http_mismatches.load() == 0 ? "true" : "false") << "\n  },\n"
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
  // Re-read http_mismatches: phase 4's closed-loop warmup also spot-checks
  // bit-identity, after the phase-3 http_ok snapshot was taken.
  return mismatches == 0 && http_ok && http_mismatches.load() == 0 && tiers_ok
             ? 0
             : 1;
}
