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
  /// (generous) limits. A run cut off by the intermediate-result cap is
  /// memoized too, as a verdict with the cap it exceeded: it answers,
  /// without executing, every later call on a service whose cap is no
  /// larger. A run cut off by the wall clock is not memoized. Thread-safe:
  /// the memo tables are synchronized, and an uncached execution serializes
  /// callers (the harness precomputes all workload sub-plans, so the
  /// concurrent paths hit the memo).
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

  /// Persists / restores the memo tables so repeated bench runs skip
  /// recomputation: cardinalities in `path` (one "key<TAB>card" line per
  /// entry), cap verdicts beside it in VerdictPath(path) (one
  /// "key<TAB>cap" line per entry). SaveCache replaces both files
  /// atomically (processes sharing a cache directory may be loading them).
  /// LoadCache rejects the files if either has any malformed line, loading
  /// nothing; a missing verdict file loads no verdicts.
  Status SaveCache(const std::string& path) const;
  Status LoadCache(const std::string& path);

  /// The verdict file beside the cardinality cache `path`. A separate file,
  /// so that code reading only cardinalities reads `path` unchanged.
  static std::string VerdictPath(const std::string& path) {
    return path + ".over_cap";
  }

  /// Copies every memoized cardinality and cap verdict from `other` (used
  /// to transfer results computed under different execution limits).
  void ImportFrom(const TrueCardService& other);

  size_t cache_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }

  /// Number of memoized cap verdicts.
  size_t verdict_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return over_cap_.size();
  }

  const Database& db() const { return db_; }

  static ExecLimits DefaultLimits() {
    ExecLimits limits;
    limits.timeout_seconds = 120.0;
    limits.max_intermediate_tuples = 50000000;
    return limits;
  }

 private:
  /// The memoized answer for `key`: its cardinality, or the OutOfRange of
  /// a cap verdict that answers this service; nullopt if neither.
  std::optional<Result<double>> Memoized(const std::string& key) const;
  /// Executes `plan` and memoizes its count, or its cap verdict, under
  /// `key`.
  Result<double> CountAndMemoize(const std::string& key, const PlanNode& plan);

  const Database& db_;
  ExecLimits limits_;
  Executor executor_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, double> cache_;
  /// Cap verdicts: key → the largest max_intermediate_tuples its counting
  /// plan is known to exceed.
  std::unordered_map<std::string, size_t> over_cap_;
};

}  // namespace cardbench

#endif  // CARDBENCH_EXEC_TRUE_CARD_H_
