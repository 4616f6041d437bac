#include "query/query_graph.h"

#include <algorithm>
#include <bit>
#include <map>

#include "common/logging.h"
#include "common/str_util.h"

namespace cardbench {

QueryGraph::QueryGraph(const Query& query, const Database& db)
    : query_(query), db_(&db) {
  // --- Tables: resolve names to catalog ids once. ---
  std::unordered_map<std::string, int> local_id;
  tables_.reserve(query_.tables.size());
  for (size_t i = 0; i < query_.tables.size(); ++i) {
    const std::string& name = query_.tables[i];
    TableInfo info;
    info.name = name;
    info.table_id = db.TableId(name);
    CARDBENCH_CHECK(info.table_id >= 0, "query table '%s' not in database",
                    name.c_str());
    info.table = db.TableById(info.table_id);
    tables_.push_back(std::move(info));
    local_id[name] = static_cast<int>(i);
  }

  // --- Predicates: pre-bind column slots. ---
  preds_.reserve(query_.predicates.size());
  for (const Predicate& pred : query_.predicates) {
    auto it = local_id.find(pred.table);
    CARDBENCH_CHECK(it != local_id.end(),
                    "predicate table '%s' not in query", pred.table.c_str());
    PredInfo info;
    info.local_table = it->second;
    TableInfo& owner = tables_[info.local_table];
    info.table_id = owner.table_id;
    info.column_id =
        static_cast<int>(owner.table->ColumnIndexOrDie(pred.column));
    info.column = &owner.table->column(info.column_id);
    info.pred = pred;
    owner.preds.push_back(pred);
    preds_.push_back(std::move(info));
  }
  for (TableInfo& info : tables_) {
    info.compiled = CompilePredicates(*info.table, info.preds);
    // Group by column in column-name order, predicates keeping query order
    // within a group — the exact fold order of the string-keyed estimators
    // (they grouped through std::map<std::string, ...>).
    std::map<std::string, PredGroup> groups;
    for (size_t p = 0; p < info.preds.size(); ++p) {
      PredGroup& group = groups[info.preds[p].column];
      group.column = info.preds[p].column;
      group.column_id = info.compiled[p].column_id;
      group.preds.push_back(info.preds[p]);
    }
    info.pred_groups.reserve(groups.size());
    for (auto& [column, group] : groups) {
      info.pred_groups.push_back(std::move(group));
    }
  }

  // --- Join edges: id pairs + adjacency bitmasks. ---
  edges_.reserve(query_.joins.size());
  for (const JoinEdge& edge : query_.joins) {
    auto lit = local_id.find(edge.left_table);
    auto rit = local_id.find(edge.right_table);
    CARDBENCH_CHECK(lit != local_id.end() && rit != local_id.end(),
                    "join edge '%s' references a table not in the query",
                    edge.ToString().c_str());
    EdgeInfo info;
    info.left_local = lit->second;
    info.right_local = rit->second;
    info.left_table_id = tables_[info.left_local].table_id;
    info.right_table_id = tables_[info.right_local].table_id;
    info.left_table = tables_[info.left_local].table;
    info.right_table = tables_[info.right_local].table;
    info.left_column_id = static_cast<int>(
        info.left_table->ColumnIndexOrDie(edge.left_column));
    info.right_column_id = static_cast<int>(
        info.right_table->ColumnIndexOrDie(edge.right_column));
    info.left_column = &info.left_table->column(info.left_column_id);
    info.right_column = &info.right_table->column(info.right_column_id);
    info.left_bit = uint64_t{1} << info.left_local;
    info.right_bit = uint64_t{1} << info.right_local;
    info.mask = info.left_bit | info.right_bit;
    const std::string a = edge.left_table + "." + edge.left_column;
    const std::string b = edge.right_table + "." + edge.right_column;
    info.canonical = a < b ? a + "=" + b : b + "=" + a;
    info.edge = &edge;  // stable: query_.joins never reallocates again
    tables_[info.left_local].adjacency |= uint64_t{1} << info.right_local;
    tables_[info.right_local].adjacency |= uint64_t{1} << info.left_local;
    edges_.push_back(std::move(info));
  }

  // --- Sub-plan space: connected subsets. ---
  const uint64_t full = full_mask();
  for (uint64_t mask = 1; mask <= full; ++mask) {
    if (IsConnected(mask)) connected_subsets_.push_back(mask);
  }
  std::stable_sort(connected_subsets_.begin(), connected_subsets_.end(),
                   [](uint64_t a, uint64_t b) {
                     return std::popcount(a) < std::popcount(b);
                   });
  fingerprint_ = Fnv1aHash(query_.CanonicalKey());
}

uint64_t QueryGraph::AdjacencyOf(uint64_t mask) const {
  uint64_t adjacent = 0;
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    adjacent |= tables_[std::countr_zero(rest)].adjacency;
  }
  return adjacent;
}

bool QueryGraph::IsConnected(uint64_t mask) const {
  if (mask == 0) return false;
  uint64_t visited = uint64_t{1} << std::countr_zero(mask);
  for (;;) {
    const uint64_t next = (AdjacencyOf(visited) & mask) | visited;
    if (next == visited) break;
    visited = next;
  }
  return visited == mask;
}

const std::string& QueryGraph::CanonicalKey(uint64_t mask) const {
  std::call_once(canonical_keys_once_, [this] {
    canonical_keys_.reserve(connected_subsets_.size());
    for (uint64_t connected : connected_subsets_) {
      canonical_keys_[connected] = query_.Induced(connected).CanonicalKey();
    }
  });
  auto it = canonical_keys_.find(mask);
  CARDBENCH_CHECK(it != canonical_keys_.end(),
                  "mask %llu is not a connected sub-plan of this query",
                  static_cast<unsigned long long>(mask));
  return it->second;
}

}  // namespace cardbench
