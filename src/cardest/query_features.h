#ifndef CARDBENCH_CARDEST_QUERY_FEATURES_H_
#define CARDBENCH_CARDEST_QUERY_FEATURES_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "cardest/extended_table.h"
#include "common/rng.h"
#include "ml/matrix.h"
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

  /// One MSCN set module's input over the sub-plans of one call: one row
  /// per element, and each mask's element rows.
  struct MscnSet {
    Matrix x;
    /// Mask i's rows of `x` are rows[offsets[i] .. offsets[i + 1]).
    std::vector<uint32_t> rows;
    std::vector<size_t> offsets;

    std::span<const uint32_t> RowsOf(size_t i) const {
      return std::span<const uint32_t>(rows).subspan(
          offsets[i], offsets[i + 1] - offsets[i]);
    }
  };
  struct MscnSets {
    MscnSet tables;
    MscnSet joins;
    MscnSet predicates;
  };

  /// MSCN's three set-module inputs for the sub-plans `masks` of one query.
  /// A set element is mask-independent — a table's one-hot + sample
  /// bitmap, an edge's one-hot, a predicate's encoding — so each element
  /// of the masks' union is featurized once, into a zero-initialized row:
  /// tables in ascending local order, edges and predicates in graph order.
  /// A mask with an empty set pools one all-zero row, which is appended
  /// only when some mask needs it. Training featurizes a query as its
  /// graph's full mask, so inference sees the elements training saw.
  MscnSets MscnElements(const QueryGraph& graph,
                        std::span<const uint64_t> masks) const;

  size_t table_element_dim() const { return table_index_.size() + bitmap_size_; }
  size_t join_element_dim() const { return join_index_.size(); }
  size_t predicate_element_dim() const { return column_index_.size() + 6 + 1; }

 private:
  friend class FlatFeaturePlan;

  /// MscnElements' per-element builders, writing into
  /// `out[0..*_element_dim())`, which must be zero-initialized (only the
  /// non-zero entries are written). The table variant evaluates the sample
  /// bitmap through the batched storage filter kernels on the thread's
  /// arena instead of row-at-a-time predicate evaluation.
  void MscnTableElementInto(const QueryGraph::TableInfo& info,
                            double* out) const;
  void MscnJoinElementInto(const QueryGraph::EdgeInfo& edge, double* out) const;
  void MscnPredElementInto(const QueryGraph::PredInfo& pred, double* out) const;

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
