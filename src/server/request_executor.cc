#include "server/request_executor.h"

#include <future>
#include <utility>

#include "common/stopwatch.h"
#include "query/parser.h"

namespace cardbench {

RequestExecutor::RequestExecutor(EstimationService& service,
                                 const Database& db,
                                 size_t graph_cache_capacity)
    : service_(service),
      db_(db),
      cache_capacity_(graph_cache_capacity == 0 ? 1 : graph_cache_capacity) {}

Result<std::shared_ptr<const QueryGraph>> RequestExecutor::Compile(
    const std::string& sql) {
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = graphs_.find(sql);
    if (it != graphs_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.graph;
    }
  }
  // Compile outside the lock: parsing + graph construction is the expensive
  // part and must not serialize concurrent misses on different queries.
  CARDBENCH_ASSIGN_OR_RETURN(const Query query, ParseSql(sql));
  CARDBENCH_RETURN_IF_ERROR(ValidateQuery(query, db_));
  auto graph = std::make_shared<const QueryGraph>(query, db_);

  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = graphs_.find(sql);
  if (it != graphs_.end()) {
    // A concurrent miss won the insert race; keep its graph (estimates are
    // deterministic either way, this only avoids holding two copies).
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.graph;
  }
  lru_.push_front(sql);
  graphs_.emplace(sql, CachedGraph{graph, lru_.begin()});
  while (graphs_.size() > cache_capacity_) {
    graphs_.erase(lru_.back());
    lru_.pop_back();
  }
  return graph;
}

size_t RequestExecutor::graph_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return graphs_.size();
}

ServerResponse RequestExecutor::ErrorResponse(const ServerRequest& request,
                                              const Status& status) const {
  ServerResponse response;
  response.id = request.id;
  response.code = status.code();
  response.error = status.message();
  if (status.code() == StatusCode::kResourceExhausted) {
    response.queue_depth = service_.queue_size();
    response.retry_after_ms = service_.SuggestedRetrySeconds() * 1e3;
  }
  return response;
}

void RequestExecutor::ExecuteAsync(const ServerRequest& request,
                                   std::function<void(ServerResponse)> done) {
  Stopwatch watch;
  auto compiled = Compile(request.sql);
  if (!compiled.ok()) {
    done(ErrorResponse(request, compiled.status()));
    return;
  }
  std::shared_ptr<const QueryGraph> graph = std::move(*compiled);

  // Submit rejects a mask that names absent tables or is not connected.
  EstimateRequest estimate;
  estimate.estimator = request.estimator;
  estimate.graph = graph.get();
  estimate.subplan_mask = request.subplan_mask;  // 0 == kAllSubplans
  estimate.timeout_seconds = request.deadline_ms * 1e-3;

  // The graph shared_ptr rides in the callback, keeping the borrowed
  // pointer inside the service alive until the response is delivered.
  // `done` is captured by copy: on a queue-full rejection the service
  // destroys the un-run callback and the rejection branch below still needs
  // its own copy to answer with.
  const uint64_t id = request.id;
  Status submitted = service_.Submit(
      std::move(estimate),
      [graph, id, watch, done](EstimateResponse result) {
        ServerResponse response;
        response.id = id;
        response.code = result.status.code();
        response.error = result.status.message();
        response.cache_hits = result.cache_hits;
        response.cache_misses = result.cache_misses;
        response.model_version = result.model_version;
        for (const auto& [mask, card] : result.cards) {
          response.cards[mask] = card;
        }
        response.elapsed_us = watch.ElapsedMicros();
        done(std::move(response));
      });
  if (!submitted.ok()) {
    ServerResponse response = ErrorResponse(request, submitted);
    response.elapsed_us = watch.ElapsedMicros();
    done(std::move(response));
  }
}

ServerResponse RequestExecutor::ExecuteSync(const ServerRequest& request) {
  std::promise<ServerResponse> promise;
  std::future<ServerResponse> future = promise.get_future();
  ExecuteAsync(request, [&promise](ServerResponse response) {
    promise.set_value(std::move(response));
  });
  return future.get();
}

}  // namespace cardbench
