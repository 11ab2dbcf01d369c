// Epoll-based HTTP/1.1 serving front-end over InferenceServer: a
// single event-loop thread drives a non-blocking accept loop,
// per-connection incremental RequestParser state, keep-alive with
// idle timeouts, and pipelined in-order responses. Inference requests
// (JSON or packed-float bodies, see wire.h) are fed to the routed
// model's deadline-aware micro-batcher via submit_async(); completed
// results come back through an eventfd-signalled completion queue, so
// the event loop never blocks on a future.
//
// Production-shape robustness, per the typed Status vocabulary:
//   * admission control — a bounded count of decoded-but-unanswered
//     requests (max_inflight) plus each InferenceServer's bounded
//     sample queue;
//   * backpressure — at max_inflight the loop stops reading sockets
//     (EPOLLIN interest dropped) until the backlog drains, pushing
//     the queue into the kernel's TCP buffers instead of memory;
//   * load shedding — the model's InferenceServer decides admission
//     (queue full, or queue delay past its ServeConfig::
//     queue_delay_slo); its kRejectedOverload results answer
//     429 + Retry-After.
#ifndef MAN_SERVE_HTTP_HTTP_SERVER_H
#define MAN_SERVE_HTTP_HTTP_SERVER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "man/serve/http/http_parser.h"
#include "man/serve/http/latency_histogram.h"
#include "man/serve/http/wire.h"
#include "man/serve/inference_server.h"

namespace man::serve::http {

/// Front-end knobs. validate() throws std::invalid_argument on
/// nonsense (zero max_inflight / max_pipeline / max_connections,
/// non-positive idle timeout).
struct HttpServerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port — read it back via HttpServer::port().
  std::uint16_t port = 0;
  int backlog = 128;
  std::size_t max_connections = 1024;
  std::chrono::milliseconds idle_timeout{5000};
  /// Admission bound: decoded inference requests awaiting a response,
  /// across all connections. Reaching it pauses socket reads.
  std::size_t max_inflight = 256;
  /// Per-connection pipelining depth (parsed-but-unanswered).
  std::size_t max_pipeline = 8;
  ParserLimits limits;

  void validate() const;
};

/// One epoll event-loop thread serving any number of registered
/// models. add_model() before start(); the InferenceServers (and
/// their engines) must outlive the HttpServer.
class HttpServer {
 public:
  /// Server-wide counters (snapshot; consistent under one lock).
  struct Metrics {
    std::uint64_t connections_accepted = 0;
    /// Accept-time rejections (max_connections reached).
    std::uint64_t connections_rejected = 0;
    std::size_t connections_active = 0;
    std::uint64_t requests = 0;  ///< complete HTTP requests parsed
    std::uint64_t responses_ok = 0;
    /// 200s split by the accuracy tier that served them (index =
    /// ladder position; untiered servers land in tier 0). Grows to
    /// the deepest tier observed; sums to responses_ok.
    std::vector<std::uint64_t> tier_ok;
    std::uint64_t shed = 0;  ///< 429s (SLO, inflight bound, queue full)
    std::uint64_t parse_errors = 0;  ///< malformed HTTP (400/413/431/...)
    std::uint64_t bad_requests = 0;  ///< well-framed HTTP, bad payload
    std::uint64_t not_found = 0;
    std::uint64_t deadline_exceeded = 0;  ///< 504s
    std::uint64_t shutdown = 0;           ///< 503s (model stopped)
    std::uint64_t idle_closed = 0;
    std::uint64_t backpressure_pauses = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    /// Latency of kOk responses, parse-complete → response queued.
    std::uint64_t latency_count = 0;
    std::uint64_t p50_ns = 0;
    std::uint64_t p99_ns = 0;
    std::uint64_t p999_ns = 0;
  };

  explicit HttpServer(HttpServerConfig config = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a model under /v1/infer/<key>. Call before start().
  void add_model(std::string key, InferenceServer& server);

  /// Binds, listens and spawns the event-loop thread ("man-http").
  /// Throws std::runtime_error on socket/bind failure.
  void start();

  /// Stops the loop, closes every connection and joins. In-flight
  /// inference completions arriving later are dropped safely.
  /// Idempotent; also run by the destructor.
  void stop();

  [[nodiscard]] bool running() const noexcept { return loop_.joinable(); }
  /// The bound port (after start(); 0 before).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] Metrics metrics() const;

 private:
  /// One in-order response slot of a connection (pipelining).
  struct Slot {
    std::uint64_t seq = 0;
    bool ready = false;
    bool keep_alive = true;
    std::string payload;  ///< full framed response once ready
    std::chrono::steady_clock::time_point started;
  };

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    RequestParser parser;
    std::string out;
    std::size_t out_off = 0;
    std::deque<Slot> slots;
    std::uint64_t next_seq = 0;
    bool close_after_flush = false;
    bool reading_paused = false;  ///< per-conn pipeline cap reached
    bool want_write = false;
    bool peer_half_closed = false;
    bool parse_failed = false;  ///< framing lost; drain writes and close
    std::chrono::steady_clock::time_point idle_deadline;

    explicit Conn(ParserLimits limits) : parser(limits) {}
  };

  /// Completed inference headed back to the event loop. Shared with
  /// submit_async callbacks via shared_ptr so completions arriving
  /// after stop() land in an orphaned (but alive) queue.
  struct CompletionQueue {
    std::mutex mutex;
    std::deque<std::tuple<std::uint64_t, std::uint64_t, std::string,
                          InferenceResult>>
        items;  ///< conn id, slot seq, model key, result
    int event_fd = -1;
    bool closed = false;

    void post(std::uint64_t conn_id, std::uint64_t slot_seq,
              std::string model_key, InferenceResult&& result);
  };

  void loop();
  void accept_ready();
  void on_readable(Conn& conn);
  void on_writable(Conn& conn);
  void process_parsed(Conn& conn);
  void handle_request(Conn& conn, ParsedRequest request);
  void handle_infer(Conn& conn, const ParsedRequest& request,
                    const std::string& model_key);
  void drain_completions();
  void finish_slot(Conn& conn, std::uint64_t seq, int http_code,
                   std::string body, const std::vector<ExtraHeader>& extra);
  Slot& open_slot(Conn& conn, bool keep_alive);
  void respond_now(Conn& conn, bool keep_alive, int http_code,
                   std::string body, const std::string& retry_after = {});
  /// Returns false when the connection was destroyed while flushing.
  bool flush(Conn& conn);
  void destroy(Conn& conn);
  void update_interest(Conn& conn);
  void apply_backpressure();
  void release_backpressure();
  void sweep_idle(std::chrono::steady_clock::time_point now);
  [[nodiscard]] std::string metrics_json() const;

  HttpServerConfig config_;
  std::map<std::string, InferenceServer*> models_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread loop_;
  std::atomic<bool> stop_requested_{false};

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 3;  ///< 1 = listen, 2 = eventfd
  std::size_t inflight_ = 0;
  bool globally_paused_ = false;
  std::shared_ptr<CompletionQueue> completions_;

  mutable std::mutex metrics_mutex_;
  Metrics metrics_;
  LatencyHistogram latency_;
};

}  // namespace man::serve::http

#endif  // MAN_SERVE_HTTP_HTTP_SERVER_H
