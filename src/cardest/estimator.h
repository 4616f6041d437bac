#ifndef CARDBENCH_CARDEST_ESTIMATOR_H_
#define CARDBENCH_CARDEST_ESTIMATOR_H_

#include <algorithm>
#include <ostream>
#include <span>
#include <streambuf>
#include <string>
#include <vector>

#include "cardest/insertion_batch.h"
#include "common/logging.h"
#include "common/status.h"
#include "query/query.h"
#include "query/query_graph.h"

namespace cardbench {

/// The cardinality-estimator interface, the reproduction of the paper's
/// PostgreSQL integration point (§4.2): the optimizer derives the sub-plan
/// query space of each query and calls EstimateCard for every sub-plan
/// exactly as the overwritten `calc_joinrel_size_estimate` injects
/// estimates into PostgreSQL's planner. Implementations range from the
/// built-in histogram baseline to learned data-driven models; each writes
/// one estimation body, EstimateCard(graph, mask), over the compiled
/// QueryGraph (and may batch it in EstimateCards).
///
/// Thread-safety contract (required by `src/service` and the harness's
/// `--threads=N` fan-out): EstimateCard is const and must be safe to call
/// concurrently from many threads on one shared instance, and deterministic
/// — the same sub-plan always receives the same estimate regardless of
/// call order or interleaving (samplers derive their randomness from a
/// hash of the sub-plan, never from shared mutable generator state).
/// Internal memo caches are allowed but must be internally synchronized.
/// Update is exempt: it is an exclusive-access operation and callers must
/// quiesce all concurrent EstimateCard calls around it (EstimationService
/// enforces this with a shared/exclusive lock).
class CardinalityEstimator {
 public:
  virtual ~CardinalityEstimator() = default;

  /// Method name as it appears in the paper's tables ("PostgreSQL",
  /// "BayesCard", "FLAT", ...).
  virtual std::string name() const = 0;

  /// Estimated COUNT(*) of the sub-plan of `graph` selected by `mask` (a
  /// *connected* table subset, as enumerated by the optimizer's DP). The
  /// graph carries pre-resolved table/column ids, pre-bound predicate slots
  /// and precomputed canonical keys, so no name is re-resolved per
  /// sub-plan. Never executes the query; implementations should return a
  /// non-negative finite value (the optimizer clamps >= 1). Const and
  /// thread-safe per the class-level contract.
  virtual double EstimateCard(const QueryGraph& graph, uint64_t mask) const = 0;

  /// Estimated COUNT(*) of a whole (connected) query: compiles it against
  /// the estimator's database and estimates the full mask. A convenience
  /// for callers holding a Query; planning and serving compile once and
  /// use the graph overload. Dies if the estimator was built without a
  /// database. Overriding the graph overload hides this one on the derived
  /// type; estimators re-expose it with `using
  /// CardinalityEstimator::EstimateCard;`.
  virtual double EstimateCard(const Query& query) const {
    CARDBENCH_CHECK(db_ != nullptr, "%s has no database to compile against",
                    name().c_str());
    const QueryGraph graph(query, *db_);
    return EstimateCard(graph, graph.full_mask());
  }

  /// Batch estimation: the cardinalities of every sub-plan in `masks`, in
  /// order. This is the serving entry point — the optimizer issues one call
  /// per query over graph.connected_subsets() and the service layer forwards
  /// cache misses as one (smaller) batch — so learned estimators can
  /// featurize all masks into a single matrix and run one batched GEMM, and
  /// sampling estimators can materialize per-table probes once per query.
  ///
  /// Parity contract: overrides must be *bit-identical* to calling
  /// EstimateCard(graph, mask) per element — same doubles, byte for byte.
  /// Batching may only amortize work whose per-mask arithmetic order is
  /// unchanged (row-independent GEMMs, shared read-only factor caches,
  /// per-mask hash-seeded RNG streams). batch_parity_test enforces this for
  /// the whole zoo. Const and thread-safe per the class-level contract.
  virtual std::vector<double> EstimateCards(
      const QueryGraph& graph, std::span<const uint64_t> masks) const {
    std::vector<double> out;
    out.reserve(masks.size());
    for (uint64_t mask : masks) out.push_back(EstimateCard(graph, mask));
    return out;
  }

  /// Writes the trained model as a versioned CBMD artifact (common/serde.h)
  /// to `out`, covering everything EstimateCard needs: a deserialized twin
  /// (via the registry's DeserializeEstimator) must produce bit-identical
  /// estimates for every sub-plan. Oracle/model-free methods return
  /// Unsupported and are rebuilt from the database instead of persisted.
  virtual Status Serialize(std::ostream& out) const {
    (void)out;
    return Status::Unsupported(name() + " does not support serialization");
  }

  /// Model size in bytes, defined once for the whole zoo as the size of the
  /// serialized artifact — the thing that actually ships (paper Figure 3).
  /// Methods whose Serialize is unsupported report 0.
  size_t ModelBytes() const {
    // Discards everything written to it and counts the bytes: the exact
    // artifact size without materializing the payload.
    class CountingStreambuf : public std::streambuf {
     public:
      size_t count() const { return count_; }

     protected:
      int_type overflow(int_type ch) override {
        if (ch != traits_type::eof()) ++count_;
        return ch;
      }
      std::streamsize xsputn(const char*, std::streamsize n) override {
        count_ += static_cast<size_t>(n);
        return n;
      }

     private:
      size_t count_ = 0;
    };
    CountingStreambuf counter;
    std::ostream out(&counter);
    if (!Serialize(out).ok()) return 0;
    return counter.count();
  }

  /// Offline training / construction time in seconds (paper Figure 3).
  virtual double TrainSeconds() const { return 0.0; }

  /// Absorbs one applied insertion batch: rows already appended to
  /// database() (paper §6.3, Table 6). A full-refresh batch (no deltas)
  /// refreshes the model from the data as it stands. The batch is checked
  /// against database() first (InsertionBatch::CheckAgainst), so a batch
  /// that names rows or tables the database does not hold fails before the
  /// model changes. An estimator with no path for the batch answers
  /// Unsupported, the "full retrain required" signal: O9's query-driven
  /// methods refresh only from a batch carrying `refresh_training`.
  /// Exclusive-access: callers quiesce concurrent EstimateCard calls first.
  Status Update(const InsertionBatch& batch) {
    if (!batch.IsFullRefresh()) {
      if (db_ == nullptr) {
        return Status::InvalidArgument(name() +
                                       " has no database to check a batch");
      }
      CARDBENCH_RETURN_IF_ERROR(batch.CheckAgainst(*db_));
    }
    return UpdateImpl(batch);
  }

  /// The database the Query overload compiles against; null for
  /// estimators built without one (wrappers over such estimators, fakes).
  const Database* database() const { return db_; }

 protected:
  CardinalityEstimator() = default;
  /// Estimators built over a database pass it here.
  explicit CardinalityEstimator(const Database& db) : db_(&db) {}
  /// Wrappers pass the database of what they wrap (possibly null).
  explicit CardinalityEstimator(const Database* db) : db_(db) {}

  /// The model's refresh for a batch Update has checked. Estimators whose
  /// refresh reads no deltas treat every batch as a full refresh.
  virtual Status UpdateImpl(const InsertionBatch& batch) {
    (void)batch;
    return Status::Unsupported(name() + " has no update path");
  }

 private:
  const Database* db_ = nullptr;
};

/// The join-uniformity divisor of an equi-join edge, max(1, ndv_left,
/// ndv_right): estimators without a join model take 1/max(ndv) as the
/// edge's selectivity, PostgreSQL's rule for keys without statistics.
inline double JoinUniformityDivisor(const QueryGraph::EdgeInfo& edge) {
  return std::max(
      {1.0,
       static_cast<double>(
           edge.left_table->GetIndex(edge.left_column_id).num_distinct()),
       static_cast<double>(
           edge.right_table->GetIndex(edge.right_column_id).num_distinct())});
}

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_ESTIMATOR_H_
