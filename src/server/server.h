#ifndef CARDBENCH_SERVER_SERVER_H_
#define CARDBENCH_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "server/metrics.h"
#include "server/protocol.h"
#include "server/request_executor.h"
#include "service/estimation_service.h"
#include "storage/catalog.h"

namespace cardbench {

/// Sizing and behavior knobs of the network server.
struct ServerOptions {
  /// Listen address (loopback by default — cardserved is a benchmark
  /// server, not an internet-facing one).
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Periodic metrics JSON snapshot: every `snapshot_period_seconds` the
  /// event loop rewrites `snapshot_path` (atomic rename). Disabled when the
  /// path is empty or the period is 0.
  std::string snapshot_path;
  double snapshot_period_seconds = 0.0;
  /// Graceful-shutdown drain budget: after NotifyShutdown the loop waits at
  /// most this long for in-flight requests and pending writes before
  /// force-closing (leak-free either way; responses past the budget are
  /// dropped, not leaked).
  double drain_timeout_seconds = 30.0;
};

/// cardserved: a standalone TCP front-end over the EstimationService.
///
/// One event-loop thread multiplexes every connection with poll() over
/// non-blocking sockets; requests are length-prefixed JSON frames
/// (src/server/protocol.h) that compile to QueryGraphs and go to the
/// EstimationService. A request whose every sub-plan is cached is answered
/// inside Submit, on the loop thread, and its response is queued on the
/// connection at once; the others fan out to the service's worker pool, and
/// their completions return to the loop through a self-pipe and are written
/// back on the owning connection. The same port answers plain-text
/// `GET /metrics` (and `/metrics.json`) probes.
///
/// Control flow per request:
///
///   socket bytes -> FrameReader -> DecodeRequest
///     -> RequestExecutor (graph LRU, admission, deadline stamp)
///       -> EstimationService::Submit
///          -- all cached: answered on the loop thread ----------+
///          -- otherwise: workers -> completion self-pipe -> event loop
///            -> EncodeResponse frame -> socket  <---------------+
///
/// Admission control composes two layers: the service's bounded queue
/// rejects with ResourceExhausted (+ queue depth and retry-after hint in
/// the payload), and the server itself answers Unavailable while draining.
/// Rejections are immediate structured responses — an overloaded server
/// never hangs a client — and a cached request takes no queue slot, so it
/// is answered even when the queue is full.
///
/// Shutdown: NotifyShutdown() is async-signal-safe (one write(2) to the
/// self-pipe); the loop then stops accepting, rejects new frames, waits for
/// the in-flight requests to complete and their responses to flush, and
/// exits. Stop() additionally joins the loop thread.
class CardServer {
 public:
  /// `service` and `db` are borrowed and must outlive the server.
  CardServer(EstimationService& service, const Database& db,
             ServerOptions options = ServerOptions());
  ~CardServer();

  CardServer(const CardServer&) = delete;
  CardServer& operator=(const CardServer&) = delete;

  /// Binds + listens and starts the event-loop thread. Fails (without a
  /// thread) on bind/listen errors, e.g. an occupied port.
  Status Start();

  /// The bound TCP port (valid after a successful Start; resolves port 0).
  uint16_t port() const { return port_; }

  /// Async-signal-safe shutdown trigger: safe to call from a SIGTERM
  /// handler. The event loop drains and exits; it does not block.
  void NotifyShutdown();

  /// NotifyShutdown + join. Idempotent; the destructor calls it.
  void Stop();

  /// Blocks until the event loop exits (signal-driven servers park their
  /// main thread here).
  void Wait();

  /// True between a successful Start and loop exit.
  bool running() const { return running_.load(); }

  ServerMetrics& metrics() { return metrics_; }
  const ServerMetrics& metrics() const { return metrics_; }

  /// Requests admitted to the service whose responses have not been
  /// delivered to a connection buffer yet.
  size_t in_flight() const { return in_flight_.load(); }

  /// Point-in-time gauge set for rendering (queue, cache, connections).
  ServerGauges Gauges() const;

 private:
  struct Connection;
  struct Completion;
  struct CompletionHub;

  void EventLoop();
  void AcceptPending();
  void HandleReadable(Connection& conn);
  void HandleWritable(Connection& conn);
  void HandleHttp(Connection& conn);
  void DispatchFrame(Connection& conn, const std::string& payload);
  void QueueResponse(Connection& conn, const ServerResponse& response);
  void DrainCompletions();
  /// Accounts a completed request and queues its response on its
  /// connection, if still open (returned; nullptr otherwise). Loop thread
  /// only; never closes a connection.
  Connection* Deliver(const Completion& completion);
  void CloseConnection(uint64_t conn_id);
  void MaybeWriteSnapshot(double uptime_seconds);

  EstimationService& service_;
  RequestExecutor executor_;
  ServerOptions options_;
  ServerMetrics metrics_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<size_t> in_flight_{0};
  std::atomic<size_t> open_connections_{0};

  /// Completion state shared with service-worker callbacks. A shared_ptr
  /// so a callback completing after the server object died (force-close
  /// path) lands in a closed hub instead of freed memory.
  std::shared_ptr<CompletionHub> hub_;

  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_conn_id_ = 1;
  double last_snapshot_seconds_ = 0.0;

  std::thread loop_thread_;
};

}  // namespace cardbench

#endif  // CARDBENCH_SERVER_SERVER_H_
