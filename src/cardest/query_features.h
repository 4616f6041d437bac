#ifndef CARDBENCH_CARDEST_QUERY_FEATURES_H_
#define CARDBENCH_CARDEST_QUERY_FEATURES_H_

#include <map>
#include <string>
#include <vector>

#include "cardest/extended_table.h"
#include "common/rng.h"
#include "query/query.h"
#include "query/query_graph.h"
#include "storage/catalog.h"

namespace cardbench {

/// A training example for query-driven estimators: a query and its true
/// cardinality (the paper's executed-query training data, §4.1).
struct TrainingQuery {
  Query query;
  double cardinality = 0.0;
};

/// Shared featurization for the query-driven estimators (MSCN, LW-NN,
/// LW-XGB), built once per database:
///  - table vocabulary (one-hot),
///  - join vocabulary: every join-compatible column pair of the schema,
///  - per filterable column: [has predicate, normalized lo, normalized hi],
///  - per table: a small materialized row sample for MSCN's bitmap feature.
class QueryFeaturizer {
 public:
  explicit QueryFeaturizer(const Database& db, uint64_t seed = 3,
                           size_t bitmap_size = 64);

  /// Length of the flat feature vector LW-style regressors read (see
  /// FlatFeaturePlan).
  size_t flat_dim() const;

  /// Per-set element features for MSCN's three modules, which training
  /// reads. Empty sets are represented by one all-zero element so pooling
  /// stays defined.
  struct SetFeatures {
    std::vector<std::vector<double>> tables;
    std::vector<std::vector<double>> joins;
    std::vector<std::vector<double>> predicates;
  };
  SetFeatures MscnFeatures(const QueryGraph& graph, uint64_t mask) const;

  /// Per-element builders. A sub-plan's MSCN element
  /// vectors are mask-independent — a table's one-hot + bitmap, an edge's
  /// one-hot, a predicate's encoding never change across the sub-plans of
  /// one query — so batch callers featurize each distinct element once and
  /// gather. MscnFeatures(graph, mask) is defined in terms of these, so
  /// inference sees the elements training saw.
  std::vector<double> MscnTableElement(const QueryGraph::TableInfo& info) const;
  std::vector<double> MscnJoinElement(const QueryGraph::EdgeInfo& edge) const;
  std::vector<double> MscnPredElement(const QueryGraph::PredInfo& pred) const;

  /// Raw-row variants writing into `out[0..*_element_dim())`, which must be
  /// zero-initialized (only the non-zero entries are written — batch callers
  /// featurize straight into zero-initialized Matrix rows, no copies). The
  /// vector builders above delegate here. The table variant evaluates the
  /// sample bitmap through the batched storage filter kernels on the
  /// thread's arena instead of row-at-a-time predicate evaluation.
  void MscnTableElementInto(const QueryGraph::TableInfo& info,
                            double* out) const;
  void MscnJoinElementInto(const QueryGraph::EdgeInfo& edge, double* out) const;
  void MscnPredElementInto(const QueryGraph::PredInfo& pred, double* out) const;
  size_t table_element_dim() const { return table_index_.size() + bitmap_size_; }
  size_t join_element_dim() const { return join_index_.size(); }
  size_t predicate_element_dim() const { return column_index_.size() + 6 + 1; }

 private:
  friend class FlatFeaturePlan;

  /// Canonical key of a join edge (endpoint-sorted).
  static std::string EdgeKey(const JoinEdge& edge);

  struct ColumnInfo {
    double min = 0.0;
    double max = 1.0;
  };

  size_t bitmap_size_;
  std::map<std::string, size_t> table_index_;
  std::map<std::string, size_t> join_index_;
  std::map<std::pair<std::string, std::string>, size_t> column_index_;
  std::map<std::pair<std::string, std::string>, ColumnInfo> column_info_;
  // Per table: sampled row ids for the bitmap feature.
  std::map<std::string, std::vector<uint32_t>> bitmap_rows_;
  // Dense views over the vocabularies, indexed by global table id (and
  // column id), built alongside the maps above.
  std::vector<size_t> table_slot_;
  std::vector<const std::vector<uint32_t>*> bitmap_by_id_;
  std::vector<std::vector<int>> column_slot_;  // -1: not in the vocabulary
  std::vector<std::vector<const ColumnInfo*>> column_info_by_id_;
};

/// Flat featurization of one query's sub-plans for LW-style regressors:
/// table and join one-hots, then [has predicate, normalized lo, normalized
/// hi] per filterable column. Vocabulary slots are resolved through dense
/// (table_id, column_id) tables and the graph's precomputed canonical edge
/// keys, once at construction together with the per-table predicate range
/// folds; each mask's feature row is then the default row plus the sparse
/// patches of the mask's tables and edges. A training example is its
/// query's compiled graph at full_mask(), so training and inference share
/// this one featurization.
class FlatFeaturePlan {
 public:
  FlatFeaturePlan(const QueryFeaturizer& featurizer, const QueryGraph& graph);

  size_t dim() const { return base_.size(); }

  /// Writes the mask's flat feature vector over row[0..dim()).
  void FillRow(const QueryGraph& graph, uint64_t mask, double* row) const;

 private:
  std::vector<double> base_;  ///< all-unconstrained defaults
  /// Per local table: (flat index, value) writes covering its one-hot slot
  /// and the folded ranges of its predicated columns.
  std::vector<std::vector<std::pair<size_t, double>>> table_patches_;
  std::vector<int> edge_slots_;  ///< per edge: flat index, -1 if unknown
};

}  // namespace cardbench

#endif  // CARDBENCH_CARDEST_QUERY_FEATURES_H_
