#ifndef CARDBENCH_EXEC_PLAN_H_
#define CARDBENCH_EXEC_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/query_graph.h"
#include "storage/catalog.h"
#include "storage/filter.h"

namespace cardbench {

/// Physical table-access method, chosen by the optimizer based on estimated
/// selectivity (mirroring PostgreSQL's seq-scan vs index-scan choice, §4.2).
enum class ScanMethod : uint8_t {
  kSeqScan = 0,
  kIndexScan,  ///< equality lookup on an indexed (key) column, then filter
};

/// Physical join algorithm (PostgreSQL's three: §4.2 / Figure 2).
enum class JoinMethod : uint8_t {
  kHashJoin = 0,
  kMergeJoin,
  kIndexNestLoop,  ///< inner side must be a base-table scan with an index
};

std::string ScanMethodName(ScanMethod method);
std::string JoinMethodName(JoinMethod method);

/// A column of the catalog: the table's id (its index in
/// Database::table_names()) and the column's index within that table.
struct CatalogColumn {
  int table_id = -1;
  int column_id = -1;
};

/// An equi-join condition between two catalog columns, oriented as the query
/// wrote it; the executor binds whichever endpoint lies in the outer subtree
/// to the outer input.
struct PlanEdge {
  CatalogColumn left;
  CatalogColumn right;

  static PlanEdge Of(const QueryGraph::EdgeInfo& edge) {
    return {{edge.left_table_id, edge.left_column_id},
            {edge.right_table_id, edge.right_column_id}};
  }
};

/// A node of a physical execution plan. Plans are binary trees whose leaves
/// scan base tables and whose inner nodes join two sub-plans on one primary
/// equi-join edge (additional connecting edges become post-join filters).
///
/// Nodes refer to tables and columns by catalog id, never by name, and hold
/// no pointer into the QueryGraph or Query they were planned from, so a plan
/// outlives both; only Explain turns ids back into names.
struct PlanNode {
  enum class Type : uint8_t { kScan = 0, kJoin };

  Type type = Type::kScan;

  // --- scan fields ---
  int table_id = -1;
  ScanMethod scan_method = ScanMethod::kSeqScan;
  /// Filters applied during the scan, bound to columns of `table_id`. For
  /// index scans, the first filter is the equality served by the index.
  std::vector<CompiledPredicate> filters;

  // --- join fields ---
  JoinMethod join_method = JoinMethod::kHashJoin;
  /// Primary join condition.
  PlanEdge edge;
  /// Extra equi-join conditions between the two subtrees, applied as
  /// post-join filters.
  std::vector<PlanEdge> extra_edges;
  std::unique_ptr<PlanNode> left;   ///< outer / probe side
  std::unique_ptr<PlanNode> right;  ///< inner / build side

  // --- optimizer annotations ---
  /// Bitmask of the owning query's tables covered by this subtree.
  uint64_t table_mask = 0;
  /// Cardinality the active estimator predicted for this sub-plan.
  double estimated_card = 0.0;
  /// Total cost of this subtree under the estimator's cardinalities.
  double estimated_cost = 0.0;

  bool IsScan() const { return type == Type::kScan; }

  /// Number of base tables under this node.
  size_t NumTables() const;

  /// Deep copy (plans are cheap relative to execution; used when recosting
  /// a plan under true cardinalities for P-Error).
  std::unique_ptr<PlanNode> Clone() const;

  /// Multi-line EXPLAIN rendering with costs and cardinalities, naming
  /// tables and columns from `db`'s catalog. With `actual_rows` (from
  /// Executor::ExecuteCount with analyze=true, keyed by table_mask) it is
  /// EXPLAIN ANALYZE: each node also shows its actual output rows, or
  /// "actual=?" for a node that never ran.
  std::string Explain(
      const Database& db,
      const std::unordered_map<uint64_t, double>* actual_rows = nullptr)
      const;
};

}  // namespace cardbench

#endif  // CARDBENCH_EXEC_PLAN_H_
