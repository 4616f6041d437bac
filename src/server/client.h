#ifndef CARDBENCH_SERVER_CLIENT_H_
#define CARDBENCH_SERVER_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "service/load_driver.h"

namespace cardbench {

/// Blocking client for one cardserved connection. Not thread-safe: a
/// connection carries one caller's requests (use one client per load-driver
/// thread, or the pool inside SocketEstimateBackend).
class CardClient {
 public:
  CardClient() = default;
  ~CardClient();

  CardClient(const CardClient&) = delete;
  CardClient& operator=(const CardClient&) = delete;
  CardClient(CardClient&& other) noexcept;
  CardClient& operator=(CardClient&& other) noexcept;

  /// Opens the TCP connection. Fails on unreachable host/port.
  Status Connect(const std::string& host, uint16_t port);

  bool connected() const { return fd_ >= 0; }

  /// Sends `request` and blocks for its response (requests and responses
  /// are matched 1:1 on a client connection — no pipelining here). A
  /// transport failure closes the connection and returns IOError; protocol-
  /// level errors (rejection, deadline, bad SQL) come back as a decoded
  /// ServerResponse with its structured code instead.
  Result<ServerResponse> Call(const ServerRequest& request);

  void Close();

 private:
  int fd_ = -1;
  FrameReader reader_;
  uint64_t next_id_ = 1;
};

/// One-shot HTTP GET against the server's metrics endpoint ("/metrics" or
/// "/metrics.json"); returns the response body. Opens its own connection —
/// the server treats HTTP probes as connection-per-request.
Result<std::string> FetchServerMetrics(const std::string& host, uint16_t port,
                                       const std::string& path = "/metrics");

/// LoadDriver backend that speaks the wire protocol to a remote cardserved
/// instead of an in-process EstimationService — the socket-client mode of
/// the load driver. Thread-safe: concurrent EstimateQuery calls each borrow
/// a pooled connection (grown on demand, capped only by use).
///
/// Cache statistics are accumulated from the per-response hit/miss counters
/// (the server owns the cache; the client only observes per-request
/// deltas), so LoadReport cache numbers remain comparable with in-process
/// runs.
class SocketEstimateBackend : public EstimateBackend {
 public:
  /// `sqls` is the workload: query text sent to the server, which compiles
  /// each once into its graph LRU.
  SocketEstimateBackend(std::string host, uint16_t port,
                        std::vector<std::string> sqls);

  size_t num_queries() const override { return sqls_.size(); }

  Status Validate(const std::string& estimator) override;

  BackendCallResult EstimateQuery(const std::string& estimator,
                                  size_t query_index) override;

  EstimateCacheStats cache_stats() const override;

 private:
  Result<std::unique_ptr<CardClient>> AcquireClient();
  void ReleaseClient(std::unique_ptr<CardClient> client);

  const std::string host_;
  const uint16_t port_;
  const std::vector<std::string> sqls_;

  std::mutex pool_mu_;
  std::vector<std::unique_ptr<CardClient>> pool_;

  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
};

}  // namespace cardbench

#endif  // CARDBENCH_SERVER_CLIENT_H_
