#include "man/serve/http/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "man/serve/thread_name.h"

namespace man::serve::http {

namespace {

constexpr std::uint64_t kListenId = 1;
constexpr std::uint64_t kEventId = 2;

/// Retry-After is expressed in whole seconds on the wire; round up
/// and keep at least 1 so a client always backs off.
std::string retry_after_seconds(std::chrono::milliseconds delay) {
  const auto seconds = (delay.count() + 999) / 1000;
  return std::to_string(std::max<long long>(seconds, 1));
}

void close_quietly(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

void HttpServerConfig::validate() const {
  if (max_connections == 0) {
    throw std::invalid_argument("HttpServerConfig: max_connections >= 1");
  }
  if (max_inflight == 0) {
    throw std::invalid_argument("HttpServerConfig: max_inflight >= 1");
  }
  if (max_pipeline == 0) {
    throw std::invalid_argument("HttpServerConfig: max_pipeline >= 1");
  }
  if (idle_timeout <= std::chrono::milliseconds::zero()) {
    throw std::invalid_argument("HttpServerConfig: idle_timeout > 0");
  }
  if (backlog <= 0) {
    throw std::invalid_argument("HttpServerConfig: backlog >= 1");
  }
  if (limits.max_header_bytes == 0 || limits.max_body_bytes == 0) {
    throw std::invalid_argument("HttpServerConfig: parser limits >= 1 byte");
  }
}

void HttpServer::CompletionQueue::post(std::uint64_t conn_id,
                                       std::uint64_t slot_seq,
                                       std::string model_key,
                                       InferenceResult&& result) {
  std::lock_guard<std::mutex> lock(mutex);
  if (closed) return;  // server stopped; the result is dropped safely
  items.emplace_back(conn_id, slot_seq, std::move(model_key),
                     std::move(result));
  const std::uint64_t one = 1;
  // A full eventfd counter is impossible here (one tick per item),
  // and a failed wake only delays drain to the next poll timeout.
  (void)::write(event_fd, &one, sizeof one);
}

HttpServer::HttpServer(HttpServerConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::add_model(std::string key, InferenceServer& server) {
  if (running()) {
    throw std::logic_error("HttpServer: add_model before start()");
  }
  if (key.empty()) {
    throw std::invalid_argument("HttpServer: empty model key");
  }
  models_[std::move(key)] = &server;
}

void HttpServer::start() {
  if (running()) throw std::logic_error("HttpServer: already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("HttpServer: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    close_quietly(listen_fd_);
    throw std::runtime_error("HttpServer: bad bind address " +
                             config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, config_.backlog) != 0) {
    const std::string reason = std::strerror(errno);
    close_quietly(listen_fd_);
    throw std::runtime_error("HttpServer: bind/listen on " +
                             config_.bind_address + ":" +
                             std::to_string(config_.port) + " failed: " +
                             reason);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  const int event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || event_fd < 0) {
    close_quietly(listen_fd_);
    close_quietly(epoll_fd_);
    throw std::runtime_error("HttpServer: epoll/eventfd setup failed");
  }
  completions_ = std::make_shared<CompletionQueue>();
  completions_->event_fd = event_fd;

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kEventId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd, &ev);

  stop_requested_.store(false);
  loop_ = std::thread([this] {
    name_this_thread("man-http");
    loop();
  });
}

void HttpServer::stop() {
  if (!loop_.joinable()) return;
  stop_requested_.store(true);
  {
    std::lock_guard<std::mutex> lock(completions_->mutex);
    const std::uint64_t one = 1;
    (void)::write(completions_->event_fd, &one, sizeof one);
  }
  loop_.join();

  for (auto& [id, conn] : conns_) close_quietly(conn->fd);
  conns_.clear();
  inflight_ = 0;
  globally_paused_ = false;
  {
    std::lock_guard<std::mutex> lock(completions_->mutex);
    completions_->closed = true;
    close_quietly(completions_->event_fd);
    completions_->items.clear();
  }
  close_quietly(listen_fd_);
  close_quietly(epoll_fd_);
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.connections_active = 0;
  }
}

HttpServer::Metrics HttpServer::metrics() const {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  Metrics snapshot = metrics_;
  snapshot.latency_count = latency_.count();
  snapshot.p50_ns = latency_.quantile_ns(0.50);
  snapshot.p99_ns = latency_.quantile_ns(0.99);
  snapshot.p999_ns = latency_.quantile_ns(0.999);
  return snapshot;
}

void HttpServer::loop() {
  std::vector<epoll_event> events(64);
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    // Wake for the nearest idle deadline (capped so a stop request is
    // honoured promptly even with no traffic).
    int timeout_ms = 500;
    const auto now = std::chrono::steady_clock::now();
    for (const auto& [id, conn] : conns_) {
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
                             conn->idle_deadline - now)
                             .count();
      timeout_ms = std::clamp<int>(static_cast<int>(until), 1, timeout_ms);
    }

    const int ready = ::epoll_wait(epoll_fd_, events.data(),
                                   static_cast<int>(events.size()),
                                   timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable; stop() will clean up
    }
    for (int i = 0; i < ready; ++i) {
      const std::uint64_t id = events[static_cast<std::size_t>(i)].data.u64;
      const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
      if (id == kListenId) {
        accept_ready();
        continue;
      }
      if (id == kEventId) {
        drain_completions();
        continue;
      }
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed earlier this round
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        destroy(*it->second);
        continue;
      }
      if ((mask & EPOLLOUT) != 0) on_writable(*it->second);
      it = conns_.find(id);  // on_writable may have destroyed it
      if (it == conns_.end()) continue;
      if ((mask & (EPOLLIN | EPOLLRDHUP)) != 0) on_readable(*it->second);
    }
    sweep_idle(std::chrono::steady_clock::now());
  }
}

void HttpServer::accept_ready() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (or transient failure): try again on next event
    }
    if (conns_.size() >= config_.max_connections) {
      // Admission control at the door: a bounded connection table.
      // Best-effort 503 so the client learns why, then close.
      static const char kBusy[] =
          "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n"
          "Connection: close\r\nRetry-After: 1\r\n\r\n";
      (void)::send(fd, kBusy, sizeof kBusy - 1, MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      metrics_.connections_rejected += 1;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    auto conn = std::make_unique<Conn>(config_.limits);
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->idle_deadline =
        std::chrono::steady_clock::now() + config_.idle_timeout;
    epoll_event ev{};
    ev.events = globally_paused_ ? 0 : (EPOLLIN | EPOLLRDHUP);
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(conn->id, std::move(conn));
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.connections_accepted += 1;
    metrics_.connections_active = conns_.size();
  }
}

void HttpServer::on_readable(Conn& conn) {
  char buffer[16 * 1024];
  for (;;) {
    if (conn.reading_paused || globally_paused_ || conn.close_after_flush) {
      break;  // leave unread bytes in the kernel buffer (backpressure)
    }
    const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
    if (n > 0) {
      conn.idle_deadline =
          std::chrono::steady_clock::now() + config_.idle_timeout;
      {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        metrics_.bytes_in += static_cast<std::uint64_t>(n);
      }
      conn.parser.feed(
          std::string_view(buffer, static_cast<std::size_t>(n)));
      process_parsed(conn);
      continue;
    }
    if (n == 0) {
      // Peer sent FIN. Finish writing whatever is pending (it may
      // have pipelined requests then shut down its write side);
      // destroy once nothing is owed.
      conn.peer_half_closed = true;
      if (conn.slots.empty() && conn.out_off >= conn.out.size()) {
        destroy(conn);
        return;
      }
      update_interest(conn);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    destroy(conn);  // reset or hard error mid-request
    return;
  }
  flush(conn);
}

void HttpServer::on_writable(Conn& conn) { flush(conn); }

void HttpServer::process_parsed(Conn& conn) {
  while (!conn.close_after_flush && !conn.parse_failed) {
    if (conn.slots.size() >= config_.max_pipeline || globally_paused_) break;
    const RequestParser::State state = conn.parser.resume();
    if (state == RequestParser::State::kComplete) {
      handle_request(conn, conn.parser.take());
      continue;
    }
    if (state == RequestParser::State::kError) {
      {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        metrics_.parse_errors += 1;
      }
      // The connection's framing is unknown past this point: answer
      // (in pipeline order, behind any still-pending responses) and
      // close. parse_failed gates any further reads/parses.
      conn.parse_failed = true;
      respond_now(conn, /*keep_alive=*/false, conn.parser.error_status(),
                  encode_error_json(Status::kBadRequest,
                                    conn.parser.error_reason()));
      break;
    }
    break;  // kNeedMore
  }
  conn.reading_paused = conn.slots.size() >= config_.max_pipeline;
  update_interest(conn);
}

void HttpServer::handle_request(Conn& conn, ParsedRequest request) {
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.requests += 1;
  }
  const bool keep = request.keep_alive;
  constexpr std::string_view kInferPrefix = "/v1/infer/";

  if (request.method == "GET") {
    if (request.target == "/healthz") {
      respond_now(conn, keep, 200, "{\"status\":\"ok\"}");
      return;
    }
    if (request.target == "/metrics") {
      respond_now(conn, keep, 200, metrics_json());
      return;
    }
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.not_found += 1;
    respond_now(conn, keep, 404,
                encode_error_json(Status::kBadRequest,
                                  "no handler for " + request.target));
    return;
  }
  if (request.method == "POST") {
    if (request.target.size() > kInferPrefix.size() &&
        std::string_view(request.target).substr(0, kInferPrefix.size()) ==
            kInferPrefix) {
      handle_infer(conn, request,
                   request.target.substr(kInferPrefix.size()));
      return;
    }
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.not_found += 1;
    respond_now(conn, keep, 404,
                encode_error_json(Status::kBadRequest,
                                  "no handler for " + request.target));
    return;
  }
  respond_now(conn, keep, 405,
              encode_error_json(Status::kBadRequest,
                                "method " + request.method +
                                    " not supported (GET/POST only)"));
}

void HttpServer::handle_infer(Conn& conn, const ParsedRequest& request,
                              const std::string& model_key) {
  const bool keep = request.keep_alive;
  const auto it = models_.find(model_key);
  if (it == models_.end()) {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.not_found += 1;
    respond_now(conn, keep, 404,
                encode_error_json(Status::kBadRequest,
                                  "unknown model \"" + model_key + "\""));
    return;
  }
  InferenceServer& server = *it->second;

  DecodedInfer decoded = decode_infer_body(request);
  if (!decoded.ok) {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.bad_requests += 1;
    respond_now(conn, keep, 400,
                encode_error_json(Status::kBadRequest, decoded.error));
    return;
  }

  if (inflight_ >= config_.max_inflight) {
    // Backpressure should keep us from reading this deep; shed
    // defensively if a burst outran the pause.
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.shed += 1;
    respond_now(conn, keep, 429,
                encode_error_json(Status::kRejectedOverload,
                                  "server request queue is full"),
                "1");
    return;
  }

  Slot& slot = open_slot(conn, keep);
  inflight_ += 1;
  if (inflight_ >= config_.max_inflight) apply_backpressure();

  InferenceRequest infer;
  infer.model_key = model_key;
  infer.payload = std::move(decoded.pixels);
  if (decoded.deadline.has_value()) {
    infer.deadline = InferenceRequest::Clock::now() + *decoded.deadline;
  }
  infer.priority = decoded.priority;

  // The callback runs on the micro-batcher's dispatcher thread (or
  // inline for immediate rejections): it only posts to the shared
  // completion queue, which outlives this HttpServer's loop.
  auto completions = completions_;
  const std::uint64_t conn_id = conn.id;
  const std::uint64_t seq = slot.seq;
  server.submit_async(
      std::move(infer),
      [completions, conn_id, seq, model_key](InferenceResult&& result) {
        completions->post(conn_id, seq, model_key, std::move(result));
      });
}

void HttpServer::drain_completions() {
  std::uint64_t ticks = 0;
  (void)::read(completions_->event_fd, &ticks, sizeof ticks);
  std::deque<std::tuple<std::uint64_t, std::uint64_t, std::string,
                        InferenceResult>>
      items;
  {
    std::lock_guard<std::mutex> lock(completions_->mutex);
    items.swap(completions_->items);
  }

  for (auto& [conn_id, seq, model_key, result] : items) {
    if (inflight_ > 0) inflight_ -= 1;

    const int code = http_status_for(result.status);
    std::vector<ExtraHeader> extra;
    if (result.status == Status::kOk) {
      // Every 200 declares the accuracy tier it was served at, so a
      // client (or the bench harness) can see degradation engage
      // without parsing bodies. "full" covers untiered servers.
      extra.push_back({"X-Man-Accuracy-Tier",
                       result.tier_name.empty() ? "full" : result.tier_name});
    }
    if (result.status == Status::kRejectedOverload) {
      extra.push_back(
          {"Retry-After", retry_after_seconds(result.retry_after)});
    }
    {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      switch (result.status) {
        case Status::kOk:
          metrics_.responses_ok += 1;
          if (metrics_.tier_ok.size() <= result.tier) {
            metrics_.tier_ok.resize(result.tier + 1, 0);
          }
          metrics_.tier_ok[result.tier] += 1;
          break;
        case Status::kRejectedOverload: metrics_.shed += 1; break;
        case Status::kDeadlineExceeded: metrics_.deadline_exceeded += 1;
          break;
        case Status::kBadRequest: metrics_.bad_requests += 1; break;
        case Status::kShutdown: metrics_.shutdown += 1; break;
      }
    }
    std::string body = result.ok()
                           ? encode_result_json(model_key, result)
                           : encode_error_json(result.status, result.message);

    const auto it = conns_.find(conn_id);
    if (it == conns_.end()) continue;  // client already disconnected
    Conn& conn = *it->second;
    finish_slot(conn, seq, code, std::move(body), extra);
    if (flush(conn)) {
      if (auto again = conns_.find(conn_id); again != conns_.end()) {
        process_parsed(*again->second);  // resume pipelined parsing
        flush(*again->second);
      }
    }
  }

  if (globally_paused_ && inflight_ <= config_.max_inflight * 3 / 4) {
    release_backpressure();
  }
}

HttpServer::Slot& HttpServer::open_slot(Conn& conn, bool keep_alive) {
  Slot slot;
  slot.seq = conn.next_seq++;
  slot.keep_alive = keep_alive;
  slot.started = std::chrono::steady_clock::now();
  conn.slots.push_back(std::move(slot));
  return conn.slots.back();
}

void HttpServer::finish_slot(Conn& conn, std::uint64_t seq, int http_code,
                             std::string body,
                             const std::vector<ExtraHeader>& extra) {
  for (Slot& slot : conn.slots) {
    if (slot.seq != seq) continue;
    slot.payload = encode_http_response(http_code, "application/json", body,
                                        slot.keep_alive, extra);
    slot.ready = true;
    if (http_code == 200) {
      const auto elapsed = std::chrono::steady_clock::now() - slot.started;
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      latency_.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));
    }
    return;
  }
  // Slot already dropped (connection error path): nothing to do.
}

void HttpServer::respond_now(Conn& conn, bool keep_alive, int http_code,
                             std::string body,
                             const std::string& retry_after) {
  Slot& slot = open_slot(conn, keep_alive);
  std::vector<ExtraHeader> extra;
  if (!retry_after.empty()) extra.push_back({"Retry-After", retry_after});
  finish_slot(conn, slot.seq, http_code, std::move(body), extra);
}

bool HttpServer::flush(Conn& conn) {
  // Move completed in-order responses into the write buffer. A
  // keep_alive=false slot seals the connection: anything pipelined
  // behind it is dropped.
  while (!conn.slots.empty() && conn.slots.front().ready &&
         !conn.close_after_flush) {
    Slot& slot = conn.slots.front();
    if (conn.out.empty() && conn.out_off == 0) {
      conn.out = std::move(slot.payload);
    } else {
      conn.out += slot.payload;
    }
    if (!slot.keep_alive) conn.close_after_flush = true;
    conn.slots.pop_front();
  }
  if (conn.close_after_flush) conn.slots.clear();

  while (conn.out_off < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      conn.idle_deadline =
          std::chrono::steady_clock::now() + config_.idle_timeout;
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      metrics_.bytes_out += static_cast<std::uint64_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!conn.want_write) {
        conn.want_write = true;
        update_interest(conn);
      }
      return true;
    }
    destroy(conn);  // peer reset mid-response: abrupt disconnect
    return false;
  }
  conn.out.clear();
  conn.out_off = 0;
  if (conn.want_write) {
    conn.want_write = false;
    update_interest(conn);
  }
  if (conn.close_after_flush ||
      (conn.peer_half_closed && conn.slots.empty())) {
    destroy(conn);
    return false;
  }
  return true;
}

void HttpServer::destroy(Conn& conn) {
  const std::uint64_t id = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  // Bounded lingering close: discard unread bytes (e.g. the body of
  // a 413-rejected request) so close() sends FIN rather than RST and
  // the final response is not torn away from the client.
  char discard[16 * 1024];
  for (int i = 0; i < 8; ++i) {
    if (::recv(conn.fd, discard, sizeof discard, 0) <= 0) break;
  }
  close_quietly(conn.fd);
  conns_.erase(id);  // invalidates `conn`
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  metrics_.connections_active = conns_.size();
}

void HttpServer::update_interest(Conn& conn) {
  const bool reading = !conn.reading_paused && !globally_paused_ &&
                       !conn.peer_half_closed && !conn.parse_failed &&
                       !conn.close_after_flush;
  epoll_event ev{};
  ev.events = (reading ? (EPOLLIN | EPOLLRDHUP) : 0u) |
              (conn.want_write ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void HttpServer::apply_backpressure() {
  if (globally_paused_) return;
  globally_paused_ = true;
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.backpressure_pauses += 1;
  }
  for (auto& [id, conn] : conns_) update_interest(*conn);
}

void HttpServer::release_backpressure() {
  if (!globally_paused_) return;
  globally_paused_ = false;
  // Re-arm reads, then give every connection the chance to parse
  // bytes it had already buffered before the pause.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    process_parsed(*it->second);
    flush(*it->second);
  }
}

void HttpServer::sweep_idle(std::chrono::steady_clock::time_point now) {
  std::vector<std::uint64_t> expired;
  for (const auto& [id, conn] : conns_) {
    // Only truly idle keep-alive connections are reaped: anything
    // with a response pending or bytes queued is still working.
    if (conn->slots.empty() && conn->out_off >= conn->out.size() &&
        now > conn->idle_deadline) {
      expired.push_back(id);
    }
  }
  for (const std::uint64_t id : expired) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    {
      std::lock_guard<std::mutex> lock(metrics_mutex_);
      metrics_.idle_closed += 1;
    }
    destroy(*it->second);
  }
}

std::string HttpServer::metrics_json() const {
  const Metrics snapshot = metrics();
  std::string out = "{";
  const auto field = [&out](const char* name, std::uint64_t value,
                            bool last = false) {
    out += "\"";
    out += name;
    out += "\":";
    out += std::to_string(value);
    if (!last) out.push_back(',');
  };
  field("connections_accepted", snapshot.connections_accepted);
  field("connections_rejected", snapshot.connections_rejected);
  field("connections_active", snapshot.connections_active);
  field("requests", snapshot.requests);
  field("responses_ok", snapshot.responses_ok);
  out += "\"tier_ok\":[";
  for (std::size_t i = 0; i < snapshot.tier_ok.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += std::to_string(snapshot.tier_ok[i]);
  }
  out += "],";
  field("shed", snapshot.shed);
  field("parse_errors", snapshot.parse_errors);
  field("bad_requests", snapshot.bad_requests);
  field("not_found", snapshot.not_found);
  field("deadline_exceeded", snapshot.deadline_exceeded);
  field("shutdown", snapshot.shutdown);
  field("idle_closed", snapshot.idle_closed);
  field("backpressure_pauses", snapshot.backpressure_pauses);
  field("bytes_in", snapshot.bytes_in);
  field("bytes_out", snapshot.bytes_out);
  field("latency_count", snapshot.latency_count);
  field("p50_us", snapshot.p50_ns / 1000);
  field("p99_us", snapshot.p99_ns / 1000);
  field("p999_us", snapshot.p999_ns / 1000);
  // Per model: its admission SLO and which check made each 429.
  out += "\"models\":{";
  for (auto it = models_.begin(); it != models_.end(); ++it) {
    if (it != models_.begin()) out.push_back(',');
    const InferenceServer::Metrics model = it->second->metrics();
    out.push_back('"');
    append_escaped(out, it->first);
    out += "\":{";
    field("queue_delay_slo_us",
          static_cast<std::uint64_t>(
              it->second->config().queue_delay_slo.count()));
    field("rejected_queue_full", model.rejected_queue_full);
    field("rejected_queue_delay", model.rejected_queue_delay, /*last=*/true);
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace man::serve::http
