#ifndef CARDBENCH_QUERY_QUERY_GRAPH_H_
#define CARDBENCH_QUERY_QUERY_GRAPH_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/query.h"
#include "storage/catalog.h"
#include "storage/filter.h"

namespace cardbench {

/// A per-query compiled IR, built once after parsing and shared read-only by
/// every layer that touches sub-plans: the optimizer's DP, the estimators'
/// per-sub-plan dispatch, the service cache and the P-Error recosting.
///
/// Construction resolves every name exactly once — table names to global
/// table ids (the table's index in Database::table_names() order) and
/// Table pointers, predicate/join columns to column ids and Column pointers
/// — and precomputes what the planning loop otherwise recomputes per
/// (estimator x sub-plan): per-table adjacency bitmasks, the connected
/// subset enumeration and a stable 64-bit fingerprint of the whole query.
/// The canonical key of each connected sub-plan is built on the first
/// CanonicalKey call, since only the oracles, the sampling-based estimators
/// and the true-cardinality service read them.
///
/// The graph deliberately stores *no* data statistics (NDV, null fractions,
/// histograms): those live in the table indexes and estimator models and
/// may change under data updates; the graph only pins identities, so it
/// stays valid across appends to the underlying tables.
///
/// Thread-safety: immutable after construction (the canonical keys are
/// built once, under std::call_once); safe to share across the service's
/// worker threads without locking. Non-copyable and non-movable so
/// internal pointers (into the owned Query copy) can never dangle.
class QueryGraph {
 public:
  /// One resolved predicate of the query, in query order.
  struct PredInfo {
    int local_table = -1;     ///< index into the query's `tables`
    int table_id = -1;        ///< global id: index in db.table_names()
    int column_id = -1;       ///< column index within the table
    const Column* column = nullptr;
    Predicate pred;           ///< the original predicate, verbatim
  };

  /// Predicates of one table that filter the same column, sorted by column
  /// name across groups (the iteration order the string-keyed estimators
  /// used, preserved so floating-point products fold identically).
  struct PredGroup {
    std::string column;
    int column_id = -1;
    std::vector<Predicate> preds;  ///< original query order within the column
  };

  /// One resolved table of the query, in query order (local id = index).
  struct TableInfo {
    std::string name;
    int table_id = -1;            ///< global id: index in db.table_names()
    const Table* table = nullptr;
    uint64_t adjacency = 0;       ///< local-id bitmask of join neighbours
    std::vector<Predicate> preds;         ///< this table's filters, query order
    /// `preds` bound to base columns, with their column ids.
    std::vector<CompiledPredicate> compiled;
    std::vector<PredGroup> pred_groups;
  };

  /// One resolved join edge, in query order.
  struct EdgeInfo {
    int left_local = -1;
    int right_local = -1;
    int left_table_id = -1;
    int right_table_id = -1;
    int left_column_id = -1;
    int right_column_id = -1;
    const Table* left_table = nullptr;
    const Table* right_table = nullptr;
    const Column* left_column = nullptr;
    const Column* right_column = nullptr;
    uint64_t mask = 0;            ///< (1 << left_local) | (1 << right_local)
    uint64_t left_bit = 0;        ///< 1 << left_local
    uint64_t right_bit = 0;       ///< 1 << right_local
    std::string canonical;        ///< endpoint-sorted "a.b=c.d"
    const JoinEdge* edge = nullptr;  ///< the original edge, inside query()
  };

  /// Dies (CHECK) on a table or column name that does not resolve against
  /// `db` — a graph only exists for validated queries.
  QueryGraph(const Query& query, const Database& db);

  QueryGraph(const QueryGraph&) = delete;
  QueryGraph& operator=(const QueryGraph&) = delete;

  const Query& query() const { return query_; }
  const Database& db() const { return *db_; }

  size_t num_tables() const { return tables_.size(); }
  uint64_t full_mask() const { return (uint64_t{1} << tables_.size()) - 1; }
  const TableInfo& table(size_t local) const { return tables_[local]; }
  const std::vector<TableInfo>& tables() const { return tables_; }
  const std::vector<EdgeInfo>& edges() const { return edges_; }
  const std::vector<PredInfo>& predicates() const { return preds_; }

  /// Union of the adjacency masks of the tables in `mask`: every local
  /// table one join edge away from the set. A split (outer, inner) has a
  /// connecting edge iff `AdjacencyOf(outer) & inner` is non-empty — the
  /// O(1) pre-check that replaces the per-split O(edges) scan.
  uint64_t AdjacencyOf(uint64_t mask) const;

  /// True if the tables in `mask` form a connected subgraph (bitmask BFS
  /// over adjacency masks; no name resolution).
  bool IsConnected(uint64_t mask) const;

  /// All connected table subsets in increasing popcount order — identical
  /// to EnumerateConnectedSubsets(query()), enumerated once at build time.
  const std::vector<uint64_t>& connected_subsets() const {
    return connected_subsets_;
  }

  /// Canonical key of the sub-plan `mask` — byte-for-byte equal to
  /// query().Induced(mask).CanonicalKey(), so hash-seeded samplers and the
  /// true-cardinality disk cache see exactly the keys the string path
  /// produced. The first call on a graph builds every connected mask's key
  /// (thread-safe); later calls look one up. Dies on a non-connected mask
  /// (no caller dispatches a disconnected sub-plan).
  const std::string& CanonicalKey(uint64_t mask) const;

  /// Stable 64-bit fingerprint of the whole query: FNV-1a of the full-mask
  /// canonical key. Equal queries (up to table/join/predicate order) agree;
  /// the service cache keys sub-plan estimates on (estimator, fingerprint,
  /// mask).
  uint64_t fingerprint() const { return fingerprint_; }

 private:
  Query query_;  // owned copy; EdgeInfo::edge points into its joins
  const Database* db_;
  std::vector<TableInfo> tables_;
  std::vector<EdgeInfo> edges_;
  std::vector<PredInfo> preds_;
  std::vector<uint64_t> connected_subsets_;
  // Canonical keys by connected mask, built by the first CanonicalKey call.
  mutable std::once_flag canonical_keys_once_;
  mutable std::unordered_map<uint64_t, std::string> canonical_keys_;
  uint64_t fingerprint_ = 0;
};

}  // namespace cardbench

#endif  // CARDBENCH_QUERY_QUERY_GRAPH_H_
