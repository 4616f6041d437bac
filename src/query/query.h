#ifndef CARDBENCH_QUERY_QUERY_H_
#define CARDBENCH_QUERY_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/predicate.h"

namespace cardbench {

/// One equi-join condition "left_table.left_column = right_table.right_column"
/// appearing in a query. Query-level edges are not restricted to schema
/// relations: FK-FK joins (e.g. comments.UserId = badges.UserId) are valid
/// edges even though the schema only records the PK-FK relations.
struct JoinEdge {
  std::string left_table;
  std::string left_column;
  std::string right_table;
  std::string right_column;

  std::string ToString() const {
    return left_table + "." + left_column + " = " + right_table + "." +
           right_column;
  }
};

/// A COUNT(*) select-project-join query in the paper's canonical form:
/// a set of tables, a conjunction of equi-join edges, and a conjunction of
/// filter predicates. This is the unit the estimators see.
struct Query {
  /// Optional workload label (e.g. "STATS-CEB Q57").
  std::string name;
  /// Referenced tables; order defines the table indexes used by masks.
  std::vector<std::string> tables;
  std::vector<JoinEdge> joins;
  std::vector<Predicate> predicates;

  /// Index of `table` within `tables`, or -1.
  int TableIndex(const std::string& table) const;

  /// Bitmask with one bit per table, all set.
  uint64_t FullMask() const { return (uint64_t{1} << tables.size()) - 1; }

  /// The sub-query induced by the table subset `mask`: tables in the mask,
  /// join edges with both endpoints inside, predicates on inside tables.
  /// This is exactly the "sub-plan query" of the paper (§4.2).
  Query Induced(uint64_t mask) const;

  /// True if the tables in `mask` form a connected subgraph under `joins`.
  /// The optimizer only enumerates connected sub-plans.
  bool IsConnected(uint64_t mask) const;

  /// Canonical single-line key used to memoize true cardinalities.
  std::string CanonicalKey() const;

  /// SQL text ("SELECT COUNT(*) FROM ... WHERE ...").
  std::string ToSql() const;
};

/// All connected table subsets of `query` (the sub-plan query space of
/// §4.2), in increasing popcount order. Singletons are included.
std::vector<uint64_t> EnumerateConnectedSubsets(const Query& query);

}  // namespace cardbench

#endif  // CARDBENCH_QUERY_QUERY_H_
