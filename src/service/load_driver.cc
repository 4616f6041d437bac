#include "service/load_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace cardbench {

ServiceEstimateBackend::ServiceEstimateBackend(
    EstimationService& service, std::vector<const QueryGraph*> graphs)
    : service_(service), graphs_(std::move(graphs)) {}

Status ServiceEstimateBackend::Validate(const std::string& estimator) {
  if (service_.GetEstimator(estimator) == nullptr) {
    return Status::NotFound("no estimator registered as '" + estimator +
                            "'");
  }
  return Status::OK();
}

BackendCallResult ServiceEstimateBackend::EstimateQuery(
    const std::string& estimator, size_t query_index) {
  BackendCallResult result;
  if (query_index >= num_queries()) {
    result.status = Status::OutOfRange("query index out of range");
    return result;
  }
  EstimateRequest request;
  request.estimator = estimator;
  request.subplan_mask = kAllSubplans;
  request.graph = graphs_[query_index];
  std::promise<EstimateResponse> promise;
  std::future<EstimateResponse> future = promise.get_future();
  const Status submitted =
      service_.Submit(std::move(request), [&promise](EstimateResponse r) {
        promise.set_value(std::move(r));
      });
  if (!submitted.ok()) {
    result.status = submitted;
    return result;
  }
  EstimateResponse response = future.get();
  result.status = std::move(response.status);
  result.estimates = response.cards.size();
  result.cache_hits = response.cache_hits;
  result.cache_misses = response.cache_misses;
  return result;
}

LoadDriver::LoadDriver(EstimateBackend& backend) : backend_(backend) {}

Result<LoadReport> LoadDriver::Run(const LoadOptions& options) {
  const size_t num_queries = backend_.num_queries();
  if (num_queries == 0) {
    return Status::InvalidArgument("load driver has no queries");
  }
  if (options.estimator.empty()) {
    return Status::InvalidArgument("LoadOptions.estimator is empty");
  }
  if (options.offered_qps < 0.0) {
    return Status::InvalidArgument("negative offered_qps");
  }
  CARDBENCH_RETURN_IF_ERROR(backend_.Validate(options.estimator));

  const size_t total_requests =
      num_queries * std::max<size_t>(1, options.replays);
  const size_t concurrency = std::max<size_t>(1, options.concurrency);
  const bool open_loop = options.offered_qps > 0.0;
  const double arrival_interval =
      open_loop ? 1.0 / options.offered_qps : 0.0;
  const EstimateCacheStats before = backend_.cache_stats();

  // Work distribution: one shared ticket counter; clients pull the next
  // query index until the replay budget is exhausted. In open-loop mode
  // the ticket also fixes the request's scheduled arrival time, so the
  // offered rate is independent of completions, and latency counts from
  // that time (no coordinated omission).
  std::atomic<size_t> next_ticket{0};
  std::atomic<size_t> total_estimates{0};
  std::atomic<size_t> total_rejected{0};
  std::atomic<size_t> total_dropped{0};
  std::atomic<bool> failed{false};
  Status first_error = Status::OK();
  std::mutex error_mu;

  std::vector<std::vector<double>> client_latencies(concurrency);
  std::vector<std::thread> clients;
  clients.reserve(concurrency);

  Stopwatch wall;
  for (size_t c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      std::vector<double>& latencies = client_latencies[c];
      for (;;) {
        const size_t ticket = next_ticket.fetch_add(1);
        if (ticket >= total_requests || failed.load()) return;
        const size_t q = ticket % num_queries;
        // When the request's latency starts, on the `wall` clock.
        double start = 0.0;
        if (open_loop) {
          // Hold to the schedule: request `ticket` departs at
          // ticket * interval, regardless of how earlier ones fared.
          const double depart =
              static_cast<double>(ticket) * arrival_interval;
          for (;;) {
            const double now = wall.ElapsedSeconds();
            if (now >= depart || failed.load()) break;
            std::this_thread::sleep_for(std::chrono::duration<double>(
                std::min(depart - now, 1e-3)));
          }
          if (failed.load()) return;
          // From the due time, not the actual send: a client running behind
          // schedule adds its delay to the request's latency.
          start = depart;
        } else {
          start = wall.ElapsedSeconds();
        }
        for (;;) {
          BackendCallResult result =
              backend_.EstimateQuery(options.estimator, q);
          if (result.status.ok()) {
            total_estimates.fetch_add(result.estimates);
            latencies.push_back(wall.ElapsedSeconds() - start);
            break;
          }
          if (result.status.code() == StatusCode::kResourceExhausted) {
            if (open_loop) {
              // Open loop measures shedding: the rejection is the result.
              total_dropped.fetch_add(1);
              break;
            }
            // Closed loop: the queue is full, so yield and retry — load
            // self-adjusts instead of dropping work.
            total_rejected.fetch_add(1);
            std::this_thread::yield();
            continue;
          }
          {
            std::lock_guard<std::mutex> lock(error_mu);
            if (first_error.ok()) first_error = result.status;
          }
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  const double wall_seconds = wall.ElapsedSeconds();

  if (failed.load()) return first_error;

  LoadReport report;
  report.wall_seconds = wall_seconds;
  report.rejected = total_rejected.load();
  report.dropped = total_dropped.load();
  report.estimates = total_estimates.load();
  std::vector<double> all_latencies;
  for (const auto& latencies : client_latencies) {
    all_latencies.insert(all_latencies.end(), latencies.begin(),
                         latencies.end());
  }
  report.requests = all_latencies.size();
  report.latency = ComputePercentiles(std::move(all_latencies));

  const EstimateCacheStats after = backend_.cache_stats();
  report.cache.hits = after.hits - before.hits;
  report.cache.misses = after.misses - before.misses;
  report.cache.evictions = after.evictions - before.evictions;
  return report;
}

}  // namespace cardbench
