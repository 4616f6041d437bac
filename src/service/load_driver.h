#ifndef CARDBENCH_SERVICE_LOAD_DRIVER_H_
#define CARDBENCH_SERVICE_LOAD_DRIVER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "metrics/metrics.h"
#include "service/estimation_service.h"

namespace cardbench {

/// Load-generation knobs.
struct LoadOptions {
  /// Registered estimator to drive.
  std::string estimator;
  /// Client threads. In closed-loop mode each keeps exactly one request in
  /// flight, so offered load self-adjusts to service capacity (no
  /// coordinated-omission inflation in the latency numbers). In open-loop
  /// mode they jointly pace the arrival schedule.
  size_t concurrency = 8;
  /// Passes over the workload. Replays after the first hit the sub-plan
  /// cache — the serving-layer analogue of a plan-cache-warm steady state.
  size_t replays = 1;
  /// Open-loop arrival rate in requests/second; 0 selects closed-loop mode.
  /// Open-loop arrivals follow a fixed schedule independent of completions
  /// (the overload-measurement mode), and each request's latency counts
  /// from its scheduled arrival, so time spent waiting for a busy client
  /// shows up. A backpressure rejection is counted as dropped and NOT
  /// retried, so the report shows how an overloaded server sheds load
  /// instead of hiding it behind retries.
  double offered_qps = 0.0;
  /// Per-request deadline in milliseconds forwarded to the backend; 0
  /// disables it. Expired requests count as `timeouts` in the report.
  double timeout_ms = 0.0;
};

/// Outcome of one load run.
struct LoadReport {
  size_t requests = 0;   ///< completed query-estimation requests
  size_t rejected = 0;   ///< backpressure rejections (closed loop: retried)
  size_t dropped = 0;    ///< open-loop rejections, shed without retry
  size_t timeouts = 0;   ///< requests answered with DeadlineExceeded
  size_t estimates = 0;  ///< sub-plan estimates inside completed requests
  double wall_seconds = 0.0;
  /// Per-request latency distribution over completed requests, in seconds
  /// (open loop: from each request's scheduled arrival).
  Percentiles latency;
  /// Cache counters accumulated over this run only (delta, not lifetime).
  EstimateCacheStats cache;

  double QueriesPerSecond() const {
    return wall_seconds > 0.0
               ? static_cast<double>(requests) / wall_seconds
               : 0.0;
  }
};

/// Result of one backend call (one whole-query estimation request).
struct BackendCallResult {
  Status status;
  size_t estimates = 0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
};

/// Transport abstraction under the load driver: an indexed workload plus a
/// blocking "estimate every sub-plan of query i" call. Two implementations
/// exist — ServiceEstimateBackend (in-process, below) and
/// SocketEstimateBackend (wire protocol to cardserved, server/client.h) —
/// so the same driver measures both transports with identical mechanics.
///
/// EstimateQuery must be safe to call from many driver threads at once.
class EstimateBackend {
 public:
  virtual ~EstimateBackend() = default;

  virtual size_t num_queries() const = 0;

  /// Pre-flight check before a run (estimator registered, server
  /// reachable). Failures abort the run before any load is offered.
  virtual Status Validate(const std::string& estimator) = 0;

  /// Estimates every connected sub-plan of query `query_index`, blocking
  /// until the response. `timeout_seconds` (0 = none) is the per-request
  /// deadline. Protocol-level failures (rejection, deadline) come back in
  /// `status` — the call itself reports, it does not retry.
  virtual BackendCallResult EstimateQuery(const std::string& estimator,
                                          size_t query_index,
                                          double timeout_seconds) = 0;

  /// Lifetime cache counters as seen through this backend; the driver
  /// reports per-run deltas of them.
  virtual EstimateCacheStats cache_stats() const = 0;
};

/// In-process backend: submits one request per compiled query directly to
/// an EstimationService.
class ServiceEstimateBackend : public EstimateBackend {
 public:
  /// `graphs` are borrowed and must outlive the backend's use.
  ServiceEstimateBackend(EstimationService& service,
                         std::vector<const QueryGraph*> graphs);

  size_t num_queries() const override { return graphs_.size(); }
  Status Validate(const std::string& estimator) override;
  BackendCallResult EstimateQuery(const std::string& estimator,
                                  size_t query_index,
                                  double timeout_seconds) override;
  EstimateCacheStats cache_stats() const override {
    return service_.cache_stats();
  }

 private:
  EstimationService& service_;
  std::vector<const QueryGraph*> graphs_;
};

/// Workload replayer against an estimation backend: `concurrency` clients
/// round-robin the workload's queries, each requesting estimation of every
/// connected sub-plan of its query (one request = one planner visit to the
/// estimator, the unit the paper times as inference latency). Records
/// throughput and P50/P95/P99 latency — the Figure-3-style practicality
/// numbers, but under concurrent load — in closed-loop (capacity-seeking)
/// or open-loop (fixed offered rate, overload-measuring) mode.
class LoadDriver {
 public:
  /// In-process convenience constructor; `graphs` are borrowed and must
  /// outlive Run calls.
  LoadDriver(EstimationService& service,
             std::vector<const QueryGraph*> graphs);

  /// Drives an explicit backend (e.g. SocketEstimateBackend for the
  /// network server). `backend` is borrowed and must outlive Run calls.
  explicit LoadDriver(EstimateBackend& backend);

  /// Runs one load session. Fails fast on the first non-backpressure,
  /// non-deadline error (unknown estimator, transport failure);
  /// backpressure is retried in closed-loop mode and shed in open-loop
  /// mode, never silently ignored.
  Result<LoadReport> Run(const LoadOptions& options);

 private:
  std::unique_ptr<ServiceEstimateBackend> owned_backend_;
  EstimateBackend& backend_;
};

}  // namespace cardbench

#endif  // CARDBENCH_SERVICE_LOAD_DRIVER_H_
