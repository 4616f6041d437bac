#ifndef CARDBENCH_EXEC_TRUE_CARD_H_
#define CARDBENCH_EXEC_TRUE_CARD_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "exec/executor.h"
#include "query/query.h"
#include "query/query_graph.h"

namespace cardbench {

/// Computes and memoizes exact cardinalities of (sub-plan) queries by
/// executing count-only greedy hash-join plans. This backs the TrueCard
/// oracle baseline, the Q-Error/P-Error metrics, and the training labels of
/// the query-driven estimators.
class TrueCardService {
 public:
  explicit TrueCardService(const Database& db,
                           ExecLimits limits = DefaultLimits(),
                           ExecOptions options = ExecOptions());

  /// Exact COUNT(*) of `query` (which may be a sub-plan query). Cached by
  /// the query's canonical key; the query is compiled into a QueryGraph
  /// only on a miss. Returns OutOfRange if execution exceeded the
  /// (generous) limits. Thread-safe: the memo table is synchronized, and an
  /// uncached execution serializes callers (the harness precomputes all
  /// workload sub-plans, so the concurrent paths hit the memo).
  Result<double> Card(const Query& query);

  /// Exact COUNT(*) of the sub-plan of `graph` selected by the connected
  /// table subset `mask`. Memo-compatible with the Query overload: the key
  /// is the precomputed canonical key of the induced sub-query, so disk
  /// caches written by either path serve the other.
  Result<double> Card(const QueryGraph& graph, uint64_t mask);

  /// Exact cardinalities of every connected sub-plan of `graph`, keyed by
  /// table-subset bitmask — the full sub-plan query space of §4.2.
  Result<std::unordered_map<uint64_t, double>> AllSubplanCards(
      const QueryGraph& graph);

  /// Builds the greedy left-deep hash-join counting plan of the connected
  /// sub-plan `mask` of `graph`. The plan holds no pointer into the graph.
  /// Exposed for tests and for the executor's own test coverage.
  std::unique_ptr<PlanNode> BuildCountingPlan(const QueryGraph& graph,
                                              uint64_t mask) const;

  /// Persists / restores the memo table (one "key<TAB>card" line per entry)
  /// so repeated bench runs skip recomputation. SaveCache replaces the file
  /// atomically (processes sharing a cache directory may be loading it).
  /// LoadCache rejects a file with any malformed line, loading nothing.
  Status SaveCache(const std::string& path) const;
  Status LoadCache(const std::string& path);

  /// Copies every memoized cardinality from `other` (used to transfer
  /// results computed under different execution limits).
  void ImportFrom(const TrueCardService& other);

  size_t cache_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }

  const Database& db() const { return db_; }

  static ExecLimits DefaultLimits() {
    ExecLimits limits;
    limits.timeout_seconds = 120.0;
    limits.max_intermediate_tuples = 50000000;
    return limits;
  }

 private:
  std::optional<double> Cached(const std::string& key) const;
  /// Executes `plan` and memoizes its count under `key`.
  Result<double> CountAndMemoize(const std::string& key, const PlanNode& plan);

  const Database& db_;
  Executor executor_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, double> cache_;
};

}  // namespace cardbench

#endif  // CARDBENCH_EXEC_TRUE_CARD_H_
