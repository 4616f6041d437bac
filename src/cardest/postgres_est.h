#ifndef CARDBENCH_CARDEST_POSTGRES_EST_H_
#define CARDBENCH_CARDEST_POSTGRES_EST_H_

#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cardest/binner.h"
#include "cardest/estimator.h"
#include "storage/catalog.h"

namespace cardbench {

/// The PostgreSQL baseline (§4.1 method 1): per-attribute 1-D statistics
/// (equi-depth histogram with per-value counts, playing the role of
/// pg_stats' MCV list + histogram), attribute-independence multiplication
/// of clause selectivities, and the eqjoinsel formula
/// (1-nullfrac_l)(1-nullfrac_r)/max(ndv_l, ndv_r) per join edge.
class PostgresEstimator : public CardinalityEstimator {
 public:
  /// `stats_target` bounds histogram resolution, like PostgreSQL's
  /// default_statistics_target (default 100).
  explicit PostgresEstimator(const Database& db, size_t stats_target = 100);

  std::string name() const override { return "PostgreSQL"; }
  using CardinalityEstimator::EstimateCard;
  double EstimateCard(const QueryGraph& graph, uint64_t mask) const override {
    return EstimateCards(graph, {&mask, 1})[0];
  }
  /// Per-table selectivities from the graph's pre-resolved predicate
  /// groups, eqjoinsel per in-mask edge through a dense (table_id,
  /// column_id) statistics index — no name lookups. Each table's
  /// selectivity (its predicates folded through the column histograms,
  /// mask-independent) is computed at most once per call.
  std::vector<double> EstimateCards(
      const QueryGraph& graph,
      std::span<const uint64_t> masks) const override;
  double TrainSeconds() const override { return train_seconds_; }

  /// Persists the collected statistics (the "model") as a CBMD artifact and
  /// restores an estimator from one — deployment without re-ANALYZE (§4.3's
  /// model transfer aspect). The database is still needed for table row
  /// counts.
  Status Serialize(std::ostream& out) const override;
  static Result<std::unique_ptr<PostgresEstimator>> Deserialize(
      const Database& db, std::istream& in);

 private:
  /// Re-ANALYZE: rebuilds all per-column statistics, whatever the batch.
  Status UpdateImpl(const InsertionBatch& batch) override;

  struct DeferredInit {};
  /// Load path: constructs without ANALYZE; state injected by Deserialize.
  PostgresEstimator(const Database& db, DeferredInit)
      : CardinalityEstimator(db), db_(db), stats_target_(0) {}

  void Analyze();

  struct ColumnStatsEntry {
    std::unique_ptr<ColumnBinner> binner;
    double ndv = 1.0;
    double null_frac = 0.0;
  };

  /// Rebuilds the dense (table_id, column_id) view over stats_ — called
  /// whenever stats_ is replaced (Analyze, LoadModel).
  void RebuildIdIndex();
  const ColumnStatsEntry* StatsById(int table_id, int column_id) const {
    return stats_by_id_[table_id][column_id];
  }
  double GraphTableSelectivity(const QueryGraph::TableInfo& info) const;

  const Database& db_;
  size_t stats_target_;
  double train_seconds_ = 0.0;
  // (table, column) -> stats for every column (join keys included: joins
  // need ndv/nullfrac).
  std::map<std::pair<std::string, std::string>, ColumnStatsEntry> stats_;
  // Dense id-indexed pointers into stats_ (nullptr where absent), indexed
  // [table_id][column_id] in database order.
  std::vector<std::vector<const ColumnStatsEntry*>> stats_by_id_;
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_POSTGRES_EST_H_
