#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/str_util.h"

namespace cardbench {

namespace {

/// Accepted connections beyond this are closed immediately (fd budget).
constexpr size_t kMaxConnections = 1024;

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(StrFormat("fcntl(O_NONBLOCK): %s",
                                     std::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace

/// Per-connection state owned by the event loop.
struct CardServer::Connection {
  uint64_t id = 0;
  int fd = -1;
  FrameReader reader;
  /// Bytes queued for the socket; `out_offset` already sent.
  std::string out;
  size_t out_offset = 0;
  bool http = false;              ///< downgraded to an HTTP metrics probe
  bool close_after_write = false;
  bool closed = false;
};

/// One finished request on its way back to its connection.
struct CardServer::Completion {
  uint64_t conn_id = 0;
  std::string estimator;
  double latency_seconds = 0.0;
  ServerResponse response;
};

/// Channel from service-worker callbacks back to the event loop. Shared via
/// shared_ptr so a completion that outlives the server (force-closed drain)
/// lands in a closed hub, not freed memory.
struct CardServer::CompletionHub {
  std::mutex mu;
  std::vector<Completion> ready;
  int wake_fd = -1;  ///< write end of the self-pipe (owned by the hub)
  bool closed = false;
  /// The event loop's thread while the loop runs (a default id before and
  /// after). A completion arriving on it needs no hub: the server is alive
  /// and the caller may touch connections.
  std::atomic<std::thread::id> loop_thread{};

  bool OnLoopThread() const {
    return loop_thread.load() == std::this_thread::get_id();
  }

  void Push(Completion completion) {
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (closed) return;
      wake = ready.empty();
      ready.push_back(std::move(completion));
    }
    if (wake) {
      const char byte = 'c';
      [[maybe_unused]] ssize_t n = send(wake_fd, &byte, 1, MSG_NOSIGNAL);
    }
  }

  ~CompletionHub() {
    if (wake_fd >= 0) close(wake_fd);
  }
};

CardServer::CardServer(EstimationService& service, const Database& db,
                       ServerOptions options)
    : service_(service),
      executor_(service, db),
      options_(std::move(options)) {
  // Model lifecycle events (incremental refreshes, hot-swaps) flow into the
  // metrics plane, surfacing model_version / refresh-latency / staleness-age
  // through /metrics and the JSON snapshot.
  service_.SetRefreshListener(
      [this](const std::string& name, uint64_t version, double seconds) {
        metrics_.RecordRefresh(name, version, seconds);
      });
}

CardServer::~CardServer() {
  // The listener captures `this`; detach it before the metrics plane dies
  // (the service may outlive the server and keep refreshing).
  service_.SetRefreshListener(nullptr);
  Stop();
}

Status CardServer::Start() {
  if (running_.load()) return Status::AlreadyExists("server already running");

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status = Status::IOError(
        StrFormat("bind %s:%u: %s", options_.host.c_str(), options_.port,
                  std::strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) < 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError(StrFormat("getsockname: %s",
                                     std::strerror(errno)));
  }
  port_ = ntohs(addr.sin_port);
  if (listen(listen_fd_, 128) < 0) {
    const Status status =
        Status::IOError(StrFormat("listen: %s", std::strerror(errno)));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  CARDBENCH_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  // The wake channel is a socketpair rather than a pipe so that writers can
  // use send(MSG_NOSIGNAL): a wakeup raced against teardown (the loop thread
  // has already closed the read end) then fails with EPIPE instead of
  // raising SIGPIPE.
  int pipe_fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, pipe_fds) < 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError(
        StrFormat("socketpair: %s", std::strerror(errno)));
  }
  CARDBENCH_RETURN_IF_ERROR(SetNonBlocking(pipe_fds[0]));
  CARDBENCH_RETURN_IF_ERROR(SetNonBlocking(pipe_fds[1]));
  wake_read_fd_ = pipe_fds[0];
  hub_ = std::make_shared<CompletionHub>();
  hub_->wake_fd = pipe_fds[1];

  shutdown_requested_.store(false);
  running_.store(true);
  loop_thread_ = std::thread([this] { EventLoop(); });
  return Status::OK();
}

void CardServer::NotifyShutdown() {
  shutdown_requested_.store(true, std::memory_order_relaxed);
  // One send(2) on the wake channel: an async-signal-safe wakeup that
  // cannot raise SIGPIPE even after the loop thread tore the channel down.
  if (hub_ != nullptr && hub_->wake_fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] ssize_t n = send(hub_->wake_fd, &byte, 1, MSG_NOSIGNAL);
  }
}

void CardServer::Stop() {
  NotifyShutdown();
  Wait();
}

void CardServer::Wait() {
  if (loop_thread_.joinable()) loop_thread_.join();
}

ServerGauges CardServer::Gauges() const {
  ServerGauges gauges;
  gauges.queue_depth = service_.queue_size();
  gauges.queue_capacity = service_.queue_capacity();
  gauges.in_flight = in_flight_.load();
  gauges.open_connections = open_connections_.load();
  gauges.cache = service_.cache_stats();
  return gauges;
}

void CardServer::EventLoop() {
  hub_->loop_thread.store(std::this_thread::get_id());
  Stopwatch uptime;
  bool draining = false;
  Stopwatch drain_watch;

  std::vector<pollfd> fds;
  std::vector<uint64_t> fd_conn;  // conn id per pollfd (0 = wake/listen)

  for (;;) {
    fds.clear();
    fd_conn.clear();
    fds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    fd_conn.push_back(0);
    if (!draining && listen_fd_ >= 0) {
      fds.push_back(pollfd{listen_fd_, POLLIN, 0});
      fd_conn.push_back(0);
    }
    for (const auto& [id, conn] : connections_) {
      short events = POLLIN;
      if (conn->out_offset < conn->out.size()) events |= POLLOUT;
      fds.push_back(pollfd{conn->fd, events, 0});
      fd_conn.push_back(id);
    }

    int timeout_ms = 500;
    if (options_.snapshot_period_seconds > 0.0) {
      timeout_ms = std::min(
          timeout_ms,
          static_cast<int>(options_.snapshot_period_seconds * 500.0) + 1);
    }
    if (draining) timeout_ms = 10;

    const int ready = poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      CARDBENCH_LOG("cardserved: poll failed: %s", std::strerror(errno));
      break;
    }

    if (fds[0].revents & POLLIN) {
      char sink[256];
      while (read(wake_read_fd_, sink, sizeof(sink)) > 0) {
      }
    }

    DrainCompletions();

    if (shutdown_requested_.load(std::memory_order_relaxed) && !draining) {
      draining = true;
      drain_watch.Reset();
      if (listen_fd_ >= 0) {
        close(listen_fd_);
        listen_fd_ = -1;
      }
      CARDBENCH_LOG("cardserved: draining %zu in-flight request(s), "
                    "%zu connection(s)",
                    in_flight_.load(), connections_.size());
    }

    // Walk the poll results. Index 0 is the wake pipe; the listen socket,
    // when armed, is index 1.
    size_t index = 1;
    if (!draining && listen_fd_ >= 0) {
      if (fds[index].revents & POLLIN) AcceptPending();
      ++index;
    }
    std::vector<uint64_t> to_close;
    for (; index < fds.size(); ++index) {
      auto it = connections_.find(fd_conn[index]);
      if (it == connections_.end()) continue;
      Connection& conn = *it->second;
      if (fds[index].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        conn.closed = true;
      }
      if (!conn.closed && (fds[index].revents & POLLIN)) {
        HandleReadable(conn);
      }
      if (!conn.closed && (fds[index].revents & POLLOUT)) {
        HandleWritable(conn);
      }
      if (conn.closed) to_close.push_back(conn.id);
    }
    for (uint64_t id : to_close) CloseConnection(id);

    MaybeWriteSnapshot(uptime.ElapsedSeconds());

    if (draining) {
      bool writes_pending = false;
      for (const auto& [id, conn] : connections_) {
        if (conn->out_offset < conn->out.size()) {
          writes_pending = true;
          break;
        }
      }
      if (in_flight_.load() == 0 && !writes_pending) break;
      if (drain_watch.ElapsedSeconds() > options_.drain_timeout_seconds) {
        CARDBENCH_LOG("cardserved: drain timeout after %.1fs with %zu "
                      "request(s) in flight; force-closing",
                      options_.drain_timeout_seconds, in_flight_.load());
        break;
      }
    }
  }

  // Teardown (still on the loop thread): close sockets, then close the hub
  // so straggler worker callbacks become no-ops.
  std::vector<uint64_t> ids;
  ids.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) ids.push_back(id);
  for (uint64_t id : ids) CloseConnection(id);
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(hub_->mu);
    hub_->closed = true;
    hub_->ready.clear();
  }
  hub_->loop_thread.store(std::thread::id());
  close(wake_read_fd_);
  wake_read_fd_ = -1;
  running_.store(false);
}

void CardServer::AcceptPending() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      CARDBENCH_LOG("cardserved: accept failed: %s", std::strerror(errno));
      return;
    }
    if (connections_.size() >= kMaxConnections) {
      close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    metrics_.counters().connections_opened.fetch_add(1);
    open_connections_.fetch_add(1);
    connections_.emplace(conn->id, std::move(conn));
  }
}

void CardServer::HandleReadable(Connection& conn) {
  char buf[64 << 10];
  for (;;) {
    const ssize_t n = recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      metrics_.counters().bytes_read.fetch_add(static_cast<uint64_t>(n));
      conn.reader.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      // Peer closed. Flush what we owe, then close.
      conn.close_after_write = true;
      if (conn.out_offset >= conn.out.size()) conn.closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    conn.closed = true;
    return;
  }

  if (conn.http || conn.reader.LooksLikeHttpGet()) {
    conn.http = true;
    HandleHttp(conn);
    return;
  }

  std::string payload;
  for (;;) {
    const Status next = conn.reader.Next(&payload);
    if (next.code() == StatusCode::kNotFound) break;
    if (!next.ok()) {
      // Framing violation (oversized length): the stream cannot be
      // re-synchronized, so the connection is closed outright.
      metrics_.counters().malformed_frames.fetch_add(1);
      conn.closed = true;
      return;
    }
    DispatchFrame(conn, payload);
    if (conn.closed) return;
  }
}

void CardServer::HandleHttp(Connection& conn) {
  const std::string& buffered = conn.reader.buffer();
  const size_t end = buffered.find("\r\n\r\n");
  if (end == std::string::npos) {
    if (buffered.size() > (16u << 10)) conn.closed = true;  // absurd header
    return;
  }
  metrics_.counters().http_requests.fetch_add(1);
  const size_t line_end = buffered.find("\r\n");
  const std::string request_line = buffered.substr(0, line_end);
  // "GET <path> HTTP/1.x"
  std::string path;
  {
    const size_t sp1 = request_line.find(' ');
    const size_t sp2 =
        sp1 == std::string::npos ? sp1 : request_line.find(' ', sp1 + 1);
    if (sp1 != std::string::npos && sp2 != std::string::npos) {
      path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
    }
  }

  std::string body;
  std::string content_type = "text/plain; version=0.0.4";
  int status_code = 200;
  if (path == "/metrics" || path == "/") {
    body = metrics_.RenderText(Gauges());
  } else if (path == "/metrics.json") {
    body = metrics_.RenderJson(Gauges());
    content_type = "application/json";
  } else {
    status_code = 404;
    body = "not found\n";
  }
  std::string response = StrFormat(
      "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      status_code, status_code == 200 ? "OK" : "Not Found",
      content_type.c_str(), body.size());
  response += body;
  conn.out += response;
  conn.close_after_write = true;
  HandleWritable(conn);
}

void CardServer::DispatchFrame(Connection& conn, const std::string& payload) {
  metrics_.counters().requests_received.fetch_add(1);
  auto decoded = DecodeRequest(payload);
  if (!decoded.ok()) {
    // The stream is still frame-synchronized: answer the error in-band and
    // keep the connection.
    metrics_.counters().malformed_frames.fetch_add(1);
    ServerResponse response;
    response.id = 0;
    response.code = decoded.status().code();
    response.error = decoded.status().message();
    QueueResponse(conn, response);
    return;
  }
  if (shutdown_requested_.load(std::memory_order_relaxed)) {
    metrics_.counters().failed.fetch_add(1);
    ServerResponse response;
    response.id = decoded->id;
    response.code = StatusCode::kUnavailable;
    response.error = "server is draining for shutdown";
    QueueResponse(conn, response);
    return;
  }

  in_flight_.fetch_add(1);
  Stopwatch watch;
  const uint64_t conn_id = conn.id;
  const std::string estimator = decoded->estimator;
  std::shared_ptr<CompletionHub> hub = hub_;
  // The callback runs on a service worker thread for queued requests, and
  // on this thread for rejections, for requests answered from the cache
  // inside Submit and for expired queued requests a later Submit purges.
  // Only the loop thread touches connections: the others hand over through
  // the hub and its wake-up, the loop thread delivers at once. `this` is
  // dereferenced only on the loop thread, where the server is alive.
  executor_.ExecuteAsync(
      *decoded,
      [this, hub, conn_id, estimator, watch](ServerResponse response) {
        Completion completion;
        completion.conn_id = conn_id;
        completion.estimator = estimator;
        completion.latency_seconds = watch.ElapsedSeconds();
        completion.response = std::move(response);
        if (hub->OnLoopThread()) {
          Deliver(completion);
        } else {
          hub->Push(std::move(completion));
        }
      });
}

void CardServer::DrainCompletions() {
  std::vector<Completion> ready;
  {
    std::lock_guard<std::mutex> lock(hub_->mu);
    ready.swap(hub_->ready);
  }
  for (const Completion& completion : ready) {
    Connection* conn = Deliver(completion);
    if (conn != nullptr && conn->closed) CloseConnection(completion.conn_id);
  }
}

CardServer::Connection* CardServer::Deliver(const Completion& completion) {
  in_flight_.fetch_sub(1);
  switch (completion.response.code) {
    case StatusCode::kOk:
      metrics_.counters().completed.fetch_add(1);
      break;
    case StatusCode::kResourceExhausted:
      metrics_.counters().rejected.fetch_add(1);
      break;
    case StatusCode::kDeadlineExceeded:
      metrics_.counters().deadline_exceeded.fetch_add(1);
      break;
    default:
      metrics_.counters().failed.fetch_add(1);
  }
  metrics_.RecordLatency(completion.estimator, completion.latency_seconds);
  auto it = connections_.find(completion.conn_id);
  if (it == connections_.end()) return nullptr;  // client went away: drop
  QueueResponse(*it->second, completion.response);
  return it->second.get();
}

void CardServer::QueueResponse(Connection& conn,
                               const ServerResponse& response) {
  conn.out += EncodeFrame(EncodeResponse(response));
  metrics_.counters().responses_sent.fetch_add(1);
  HandleWritable(conn);  // opportunistic flush; POLLOUT picks up the rest
}

void CardServer::HandleWritable(Connection& conn) {
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n =
        send(conn.fd, conn.out.data() + conn.out_offset,
             conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      metrics_.counters().bytes_written.fetch_add(static_cast<uint64_t>(n));
      conn.out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    conn.closed = true;
    return;
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
    if (conn.close_after_write) conn.closed = true;
  }
}

void CardServer::CloseConnection(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  close(it->second->fd);
  connections_.erase(it);
  metrics_.counters().connections_closed.fetch_add(1);
  open_connections_.fetch_sub(1);
}

void CardServer::MaybeWriteSnapshot(double uptime_seconds) {
  if (options_.snapshot_period_seconds <= 0.0 ||
      options_.snapshot_path.empty()) {
    return;
  }
  if (uptime_seconds - last_snapshot_seconds_ <
      options_.snapshot_period_seconds) {
    return;
  }
  last_snapshot_seconds_ = uptime_seconds;
  const Status status =
      metrics_.WriteJsonSnapshot(options_.snapshot_path, Gauges());
  if (!status.ok()) {
    CARDBENCH_LOG("cardserved: metrics snapshot failed: %s",
                  status.ToString().c_str());
  }
}

}  // namespace cardbench
