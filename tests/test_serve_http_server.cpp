// Loopback integration tests for the epoll HTTP front-end: the
// acceptance property (HTTP responses bit-identical to the in-process
// typed submit for digit- and face-shaped engines, across every
// registered kernel backend, under mixed interleaved traffic), the
// wire status mapping (400/404/405/413/429/431/503/504), keep-alive
// pipelining, abrupt disconnects, idle reaping and admission control.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "man/backend/kernel_backend.h"
#include "man/core/alphabet_set.h"
#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/dense.h"
#include "man/serve/http/http_client.h"
#include "man/serve/http/http_server.h"
#include "man/serve/inference_server.h"
#include "man/util/rng.h"

namespace man::serve::http {
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

FixedNetwork make_engine(std::uint64_t seed, int in, int hidden, int out) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Dense>(in, hidden).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<Dense>(hidden, out).init_xavier(rng);
  const QuantSpec spec = QuantSpec::bits8();
  const AlphabetSet set = AlphabetSet::man();
  const ProjectionPlan projection(spec, set, net.num_weight_layers());
  projection.project_network(net);
  return FixedNetwork(
      net, spec, LayerAlphabetPlan::uniform_asm(net.num_weight_layers(), set));
}

std::vector<float> random_samples(std::size_t count, std::size_t sample_size,
                                  std::uint64_t seed) {
  man::util::Rng rng(seed);
  std::vector<float> pixels(count * sample_size);
  for (float& p : pixels) p = static_cast<float>(rng.next_double());
  return pixels;
}

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

/// Extracts the "raw":[...] array from a response body.
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

bool body_has_status(const std::string& body, std::string_view name) {
  return body.find("\"status\":\"" + std::string(name) + "\"") !=
         std::string::npos;
}

std::string binary_payload(const std::vector<float>& pixels) {
  std::string body(pixels.size() * sizeof(float), '\0');
  std::memcpy(body.data(), pixels.data(), body.size());
  return body;
}

/// A digit-shaped and a face-shaped engine behind one front-end.
struct Fixture {
  FixedNetwork digit;
  FixedNetwork face;
  InferenceServer digit_server;
  InferenceServer face_server;
  HttpServer server;

  explicit Fixture(ServeConfig config = fast_config(),
                   HttpServerConfig http = {})
      : digit(make_engine(11, 16, 12, 10)),
        face(make_engine(22, 24, 10, 2)),
        digit_server(digit, config),
        face_server(face, config),
        server(std::move(http)) {
    server.add_model("digit", digit_server);
    server.add_model("face", face_server);
    server.start();
  }

  static ServeConfig fast_config() {
    ServeConfig config;
    config.max_wait = 500us;
    return config;
  }

  HttpClient client() const { return HttpClient("127.0.0.1", server.port()); }
};

TEST(HttpServer, HealthMetricsAndRouting) {
  Fixture fixture;
  HttpClient client = fixture.client();

  const HttpResponse health = client.request("GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_TRUE(body_has_status(health.body, "ok"));
  EXPECT_TRUE(health.keep_alive);

  const HttpResponse metrics = client.request("GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("\"requests\":"), std::string::npos);

  EXPECT_EQ(client.request("GET", "/nope").status, 404);
  EXPECT_EQ(client.request("POST", "/healthz").status, 404);
  EXPECT_EQ(client.request("DELETE", "/healthz").status, 405);
  EXPECT_EQ(
      client
          .infer("cats", std::vector<float>(
                             fixture.digit.input_size(), 0.5f))
          .status,
      404);

  const HttpServer::Metrics snapshot = fixture.server.metrics();
  EXPECT_EQ(snapshot.connections_accepted, 1u);
  EXPECT_EQ(snapshot.requests, 6u);
  EXPECT_GE(snapshot.not_found, 3u);
}

// The acceptance property: every accepted HTTP response is
// bit-identical to the in-process path (itself pinned to sequential
// infer_into), for both engines, on every registered backend, with
// JSON and binary bodies interleaved from concurrent connections.
TEST(HttpServer, BitIdenticalAcrossBackendsAndModels) {
  for (const auto* backend : man::backend::all_backends()) {
    ServeConfig config;
    config.max_wait = 200us;
    config.backend = backend->kind();
    Fixture fixture(config);

    constexpr int kClients = 3;
    constexpr int kRequestsPerClient = 8;
    std::vector<std::thread> clients;
    std::vector<std::string> failures(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        HttpClient client = fixture.client();
        for (int i = 0; i < kRequestsPerClient; ++i) {
          const bool use_digit = (c + i) % 2 == 0;
          const FixedNetwork& engine =
              use_digit ? fixture.digit : fixture.face;
          const std::size_t count = 1 + (i % 3);
          const auto pixels = random_samples(
              count, engine.input_size(),
              static_cast<std::uint64_t>(1000 + c * 100 + i));
          const char* model = use_digit ? "digit" : "face";
          const HttpResponse response =
              i % 2 == 0 ? client.infer(model, pixels)
                         : client.request(
                               "POST",
                               std::string("/v1/infer/") + model,
                               binary_payload(pixels),
                               "application/octet-stream");
          if (response.status != 200) {
            failures[c] = "status " + std::to_string(response.status) +
                          ": " + response.body;
            return;
          }
          if (parse_raw(response.body) != sequential_raw(engine, pixels)) {
            failures[c] = "raw mismatch on " + std::string(model);
            return;
          }
        }
      });
    }
    for (auto& thread : clients) thread.join();
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(failures[c], "") << "backend " << backend->name()
                                 << " client " << c;
    }
    const HttpServer::Metrics snapshot = fixture.server.metrics();
    EXPECT_EQ(snapshot.responses_ok,
              static_cast<std::uint64_t>(kClients * kRequestsPerClient))
        << backend->name();
    EXPECT_GT(snapshot.latency_count, 0u) << backend->name();
  }
}

TEST(HttpServer, PayloadErrorsAnswer400AndKeepTheConnection) {
  Fixture fixture;
  HttpClient client = fixture.client();

  const HttpResponse bad_json =
      client.request("POST", "/v1/infer/digit", "{\"pixels\":oops}");
  EXPECT_EQ(bad_json.status, 400);
  EXPECT_TRUE(body_has_status(bad_json.body, "bad_request"));

  const HttpResponse no_pixels =
      client.request("POST", "/v1/infer/digit", "{}");
  EXPECT_EQ(no_pixels.status, 400);

  // Ragged payload decodes fine but is rejected by the typed submit.
  const HttpResponse ragged = client.infer(
      "digit",
      std::vector<float>(fixture.digit.input_size() + 1, 0.25f));
  EXPECT_EQ(ragged.status, 400);
  EXPECT_TRUE(body_has_status(ragged.body, "bad_request"));

  const HttpResponse bad_binary = client.request(
      "POST", "/v1/infer/digit", "abc", "application/octet-stream");
  EXPECT_EQ(bad_binary.status, 400);

  // The connection survived all four errors.
  EXPECT_EQ(client.request("GET", "/healthz").status, 200);
  EXPECT_GE(fixture.server.metrics().bad_requests, 4u);
}

TEST(HttpServer, OversizedBodyRejected413) {
  HttpServerConfig http;
  http.limits.max_body_bytes = 256;
  Fixture fixture(Fixture::fast_config(), http);
  HttpClient client = fixture.client();

  const HttpResponse response = client.request(
      "POST", "/v1/infer/digit", std::string(512, 'x'));
  EXPECT_EQ(response.status, 413);
  EXPECT_FALSE(response.keep_alive);
  // Framing is unknown after a parser error: the server closes.
  EXPECT_THROW((void)client.request("GET", "/healthz"), std::runtime_error);
  EXPECT_GE(fixture.server.metrics().parse_errors, 1u);
}

TEST(HttpServer, OversizedHeadersRejected431) {
  HttpServerConfig http;
  http.limits.max_header_bytes = 128;
  Fixture fixture(Fixture::fast_config(), http);
  HttpClient client = fixture.client();
  const HttpResponse response = client.request(
      "GET", "/healthz", {}, "application/json",
      {"X-Big: " + std::string(400, 'a')});
  EXPECT_EQ(response.status, 431);
  EXPECT_FALSE(response.keep_alive);
}

TEST(HttpServer, MalformedRequestRejectedAndClosed) {
  Fixture fixture;
  HttpClient client = fixture.client();
  client.send_raw("THIS IS NOT HTTP\r\n\r\n");
  const HttpResponse response = client.read_response();
  EXPECT_EQ(response.status, 400);
  EXPECT_FALSE(response.keep_alive);
}

TEST(HttpServer, KeepAlivePipelining) {
  Fixture fixture;
  HttpClient client = fixture.client();
  const auto pixels =
      random_samples(1, fixture.digit.input_size(), 77);
  const auto expected = sequential_raw(fixture.digit, pixels);

  // Three requests in one burst; responses must come back in order.
  std::string burst = HttpClient::frame("GET", "/healthz");
  burst += HttpClient::frame("POST", "/v1/infer/digit",
                             binary_payload(pixels),
                             "application/octet-stream");
  burst += HttpClient::frame("GET", "/metrics");
  client.send_raw(burst);

  const HttpResponse first = client.read_response();
  EXPECT_EQ(first.status, 200);
  EXPECT_TRUE(body_has_status(first.body, "ok"));
  const HttpResponse second = client.read_response();
  EXPECT_EQ(second.status, 200);
  EXPECT_EQ(parse_raw(second.body), expected);
  const HttpResponse third = client.read_response();
  EXPECT_EQ(third.status, 200);
  EXPECT_NE(third.body.find("\"responses_ok\":"), std::string::npos);
}

// Admission control: a request that can never fit the bounded queue
// is shed immediately with 429 + Retry-After.
TEST(HttpServer, OverloadShedsWith429RetryAfter) {
  ServeConfig config;
  config.max_batch = 2;
  config.queue_capacity = 2;
  config.max_wait = 500us;
  Fixture fixture(config);
  HttpClient client = fixture.client();

  const auto pixels =
      random_samples(8, fixture.digit.input_size(), 88);
  const HttpResponse response = client.request(
      "POST", "/v1/infer/digit", binary_payload(pixels),
      "application/octet-stream");
  EXPECT_EQ(response.status, 429);
  EXPECT_TRUE(body_has_status(response.body, "rejected_overload"));
  const std::string* retry_after = response.find_header("Retry-After");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_GE(std::atoi(retry_after->c_str()), 1);
  EXPECT_TRUE(response.keep_alive);  // shedding is per-request
  EXPECT_GE(fixture.server.metrics().shed, 1u);

  // The same connection is immediately usable for admitted work.
  const auto small = random_samples(1, fixture.digit.input_size(), 89);
  const HttpResponse ok = client.request(
      "POST", "/v1/infer/digit", binary_payload(small),
      "application/octet-stream");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(parse_raw(ok.body), sequential_raw(fixture.digit, small));
}

// A hard deadline that expires while queued answers 504.
TEST(HttpServer, ExpiredDeadlineAnswers504) {
  Fixture fixture;
  HttpClient client = fixture.client();
  const auto pixels =
      random_samples(1, fixture.digit.input_size(), 99);
  const HttpResponse response = client.request(
      "POST", "/v1/infer/digit", binary_payload(pixels),
      "application/octet-stream", {"X-Man-Deadline-Ms: 0"});
  EXPECT_EQ(response.status, 504);
  EXPECT_TRUE(body_has_status(response.body, "deadline_exceeded"));
  EXPECT_GE(fixture.server.metrics().deadline_exceeded, 1u);
}

TEST(HttpServer, StoppedModelAnswers503) {
  Fixture fixture;
  fixture.digit_server.shutdown();
  HttpClient client = fixture.client();
  const auto pixels =
      random_samples(1, fixture.digit.input_size(), 101);
  const HttpResponse response = client.request(
      "POST", "/v1/infer/digit", binary_payload(pixels),
      "application/octet-stream");
  EXPECT_EQ(response.status, 503);
  EXPECT_TRUE(body_has_status(response.body, "shutdown"));

  // The face model on the same front-end still serves.
  const auto face_pixels =
      random_samples(1, fixture.face.input_size(), 102);
  const HttpResponse ok = client.request(
      "POST", "/v1/infer/face", binary_payload(face_pixels),
      "application/octet-stream");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(parse_raw(ok.body), sequential_raw(fixture.face, face_pixels));
}

// Abrupt client disconnects — mid-request and with a response in
// flight — must not take the server down or leak connection state.
TEST(HttpServer, AbruptDisconnectsLeaveServerHealthy) {
  Fixture fixture;
  {
    HttpClient half = fixture.client();
    half.send_raw("POST /v1/infer/digit HTTP/1.1\r\nContent-Length: 400\r\n");
    // Close with the request line parsed but the body never sent.
  }
  {
    HttpClient rst = fixture.client();
    const auto pixels =
        random_samples(64, fixture.digit.input_size(), 103);
    rst.send_raw(HttpClient::frame("POST", "/v1/infer/digit",
                                   binary_payload(pixels),
                                   "application/octet-stream"));
    // Force an RST while the response may be in flight: unread data
    // plus SO_LINGER-less close is enough on loopback.
    ::shutdown(rst.fd(), SHUT_RDWR);
  }
  // The server survives and serves fresh connections.
  for (int i = 0; i < 3; ++i) {
    HttpClient client = fixture.client();
    const auto pixels =
        random_samples(1, fixture.digit.input_size(),
                       static_cast<std::uint64_t>(110 + i));
    const HttpResponse response = client.request(
        "POST", "/v1/infer/digit", binary_payload(pixels),
        "application/octet-stream");
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(parse_raw(response.body),
              sequential_raw(fixture.digit, pixels));
  }
  // Eventually every disconnected conn is reaped (no leaked state).
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (fixture.server.metrics().connections_active > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(fixture.server.metrics().connections_active, 0u);
  EXPECT_TRUE(fixture.server.running());
}

TEST(HttpServer, IdleConnectionsAreReaped) {
  HttpServerConfig http;
  http.idle_timeout = 100ms;
  Fixture fixture(Fixture::fast_config(), http);
  HttpClient client = fixture.client();
  EXPECT_EQ(client.request("GET", "/healthz").status, 200);

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (fixture.server.metrics().idle_closed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_GE(fixture.server.metrics().idle_closed, 1u);
  EXPECT_EQ(fixture.server.metrics().connections_active, 0u);
}

// Every parsed inference request must land in exactly one outcome
// counter — the sum invariant that catches silently unmetered
// outcomes (kShutdown 503s used to fall through without a counter).
TEST(HttpServer, MetricsSumInvariantCoversEveryOutcome) {
  ServeConfig config;
  config.max_batch = 2;
  config.queue_capacity = 2;
  config.max_wait = 500us;
  Fixture fixture(config);
  HttpClient client = fixture.client();

  const auto one = random_samples(1, fixture.digit.input_size(), 301);
  EXPECT_EQ(client
                .request("POST", "/v1/infer/digit", binary_payload(one),
                         "application/octet-stream")
                .status,
            200);
  EXPECT_EQ(client
                .request("POST", "/v1/infer/cats", binary_payload(one),
                         "application/octet-stream")
                .status,
            404);
  EXPECT_EQ(client.request("POST", "/v1/infer/digit", "{}").status, 400);
  EXPECT_EQ(client
                .request("POST", "/v1/infer/digit", binary_payload(one),
                         "application/octet-stream",
                         {"X-Man-Deadline-Ms: 0"})
                .status,
            504);
  const auto big = random_samples(8, fixture.digit.input_size(), 302);
  EXPECT_EQ(client
                .request("POST", "/v1/infer/digit", binary_payload(big),
                         "application/octet-stream")
                .status,
            429);
  fixture.digit_server.shutdown();
  EXPECT_EQ(client
                .request("POST", "/v1/infer/digit", binary_payload(one),
                         "application/octet-stream")
                .status,
            503);

  const HttpServer::Metrics m = fixture.server.metrics();
  EXPECT_EQ(m.requests, 6u);
  EXPECT_EQ(m.responses_ok, 1u);
  EXPECT_EQ(m.not_found, 1u);
  EXPECT_EQ(m.bad_requests, 1u);
  EXPECT_EQ(m.deadline_exceeded, 1u);
  EXPECT_EQ(m.shed, 1u);
  EXPECT_EQ(m.shutdown, 1u);
  EXPECT_EQ(m.parse_errors, 0u);
  EXPECT_EQ(m.requests, m.responses_ok + m.shed + m.bad_requests +
                            m.not_found + m.deadline_exceeded + m.shutdown);

  // The model's own outcomes add up too, and its one 429 is the queue
  // bound's.
  const InferenceServer::Metrics digit = fixture.digit_server.metrics();
  EXPECT_EQ(digit.rejected_queue_full, 1u);
  EXPECT_EQ(digit.rejected_queue_delay, 0u);
  EXPECT_EQ(digit.rejected_overload,
            digit.rejected_queue_full + digit.rejected_queue_delay);

  // The JSON export carries the new counters too, per model with its
  // SLO.
  const HttpResponse metrics = client.request("GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("\"shutdown\":1"), std::string::npos);
  const std::string digit_json =
      "\"digit\":{\"queue_delay_slo_us\":" +
      std::to_string(config.queue_delay_slo.count()) +
      ",\"rejected_queue_full\":1,\"rejected_queue_delay\":0}";
  EXPECT_NE(metrics.body.find(digit_json), std::string::npos) << metrics.body;
}

// Each admission check counts its own 429s: an oversized request is
// the queue bound's, and a request behind a queue held past its flush
// time by a running batch is the SLO check's. /metrics reports both
// per model, and the HTTP outcome sum still covers every request.
TEST(HttpServer, MetricsAttributeEveryShedToItsCheck) {
  ServeConfig config;
  config.max_batch = 4;
  config.queue_capacity = 8;
  config.max_wait = 100us;
  config.queue_delay_slo = 1ms;
  Fixture fixture(config);
  // A long batch whose completion callback holds the dispatcher.
  std::promise<void> entered;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  fixture.digit_server.submit_async(
      {.payload = random_samples(8, fixture.digit.input_size(), 310)},
      [&entered, released](InferenceResult&&) {
        entered.set_value();
        released.wait();
      });
  entered.get_future().wait();
  auto held = fixture.digit_server.submit(
      {.payload = random_samples(1, fixture.digit.input_size(), 311)});
  std::this_thread::sleep_for(5ms);  // held is now ~5 ms past its flush

  HttpClient client = fixture.client();
  const auto one = random_samples(1, fixture.digit.input_size(), 312);
  const auto big = random_samples(9, fixture.digit.input_size(), 313);
  const int late = client
                       .request("POST", "/v1/infer/digit", binary_payload(one),
                                "application/octet-stream")
                       .status;
  const int full = client
                       .request("POST", "/v1/infer/digit", binary_payload(big),
                                "application/octet-stream")
                       .status;
  release.set_value();
  EXPECT_EQ(late, 429);
  EXPECT_EQ(full, 429);
  EXPECT_EQ(held.get().status, Status::kOk);

  const InferenceServer::Metrics digit = fixture.digit_server.metrics();
  EXPECT_EQ(digit.rejected_queue_delay, 1u);
  EXPECT_EQ(digit.rejected_queue_full, 1u);
  EXPECT_EQ(digit.rejected_overload, 2u);
  const HttpServer::Metrics m = fixture.server.metrics();
  EXPECT_EQ(m.shed, 2u);
  EXPECT_EQ(m.requests, m.responses_ok + m.shed + m.bad_requests +
                            m.not_found + m.deadline_exceeded + m.shutdown);
  const HttpResponse metrics = client.request("GET", "/metrics");
  EXPECT_NE(metrics.body.find("\"digit\":{\"queue_delay_slo_us\":1000,"
                              "\"rejected_queue_full\":1,"
                              "\"rejected_queue_delay\":1}"),
            std::string::npos)
      << metrics.body;
}

TEST(HttpServer, ConfigValidationAndLifecycle) {
  HttpServerConfig bad;
  bad.max_inflight = 0;
  EXPECT_THROW(HttpServer{bad}, std::invalid_argument);

  Fixture fixture;
  EXPECT_TRUE(fixture.server.running());
  EXPECT_GT(fixture.server.port(), 0);
  EXPECT_THROW(fixture.server.start(), std::logic_error);
  fixture.server.stop();
  EXPECT_FALSE(fixture.server.running());
  fixture.server.stop();  // idempotent
}

}  // namespace
}  // namespace man::serve::http
