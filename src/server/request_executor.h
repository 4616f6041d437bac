#ifndef CARDBENCH_SERVER_REQUEST_EXECUTOR_H_
#define CARDBENCH_SERVER_REQUEST_EXECUTOR_H_

#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "query/query_graph.h"
#include "server/protocol.h"
#include "service/estimation_service.h"
#include "storage/catalog.h"

namespace cardbench {

/// The one place a ServerRequest is turned into an EstimateResponse —
/// shared by the network server (async) and the cardserve CLI (sync), so
/// both paths parse, validate, compile and dispatch identically.
///
/// Compilation is memoized: SQL text maps to a shared immutable QueryGraph
/// through a bounded LRU, so a workload replay compiles each query once and
/// every later request rides the resolve-once IR (the same
/// "compile once, estimate many" contract the in-process harness enjoys).
class RequestExecutor {
 public:
  /// `service` and `db` are borrowed and must outlive the executor.
  /// `graph_cache_capacity` bounds the compiled-graph LRU (CardServer and
  /// cardserve take the default).
  RequestExecutor(EstimationService& service, const Database& db,
                  size_t graph_cache_capacity = 512);

  /// Parses + validates `sql` and compiles (or recalls) its QueryGraph.
  /// The returned graph is shared: it stays valid while any caller holds
  /// the pointer, even across cache eviction.
  Result<std::shared_ptr<const QueryGraph>> Compile(const std::string& sql);

  /// Executes `request` and delivers the response through `done`, exactly
  /// once. Parse/validation errors, admission rejections and requests whose
  /// every sub-plan is cached are answered synchronously (from the calling
  /// thread); the others complete later on a service worker thread. The
  /// rejection path never blocks — a full queue answers ResourceExhausted
  /// with the observed queue depth and the service's retry-after hint.
  void ExecuteAsync(const ServerRequest& request,
                    std::function<void(ServerResponse)> done);

  /// Blocking convenience over ExecuteAsync (the CLI path).
  ServerResponse ExecuteSync(const ServerRequest& request);

  EstimationService& service() { return service_; }

  size_t graph_cache_size() const;

 private:
  ServerResponse ErrorResponse(const ServerRequest& request,
                               const Status& status) const;

  EstimationService& service_;
  const Database& db_;

  mutable std::mutex cache_mu_;
  size_t cache_capacity_;
  /// LRU order: front = most recent. The map owns iterators into the list.
  std::list<std::string> lru_;
  struct CachedGraph {
    std::shared_ptr<const QueryGraph> graph;
    std::list<std::string>::iterator lru_it;
  };
  std::unordered_map<std::string, CachedGraph> graphs_;
};

}  // namespace cardbench

#endif  // CARDBENCH_SERVER_REQUEST_EXECUTOR_H_
