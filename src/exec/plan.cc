#include "exec/plan.h"

#include "common/str_util.h"

namespace cardbench {

std::string ScanMethodName(ScanMethod method) {
  switch (method) {
    case ScanMethod::kSeqScan: return "SeqScan";
    case ScanMethod::kIndexScan: return "IndexScan";
  }
  return "?";
}

std::string JoinMethodName(JoinMethod method) {
  switch (method) {
    case JoinMethod::kHashJoin: return "HashJoin";
    case JoinMethod::kMergeJoin: return "MergeJoin";
    case JoinMethod::kIndexNestLoop: return "IndexNestLoop";
  }
  return "?";
}

size_t PlanNode::NumTables() const {
  if (IsScan()) return 1;
  return left->NumTables() + right->NumTables();
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto copy = std::make_unique<PlanNode>();
  copy->type = type;
  copy->table_id = table_id;
  copy->scan_method = scan_method;
  copy->filters = filters;
  copy->join_method = join_method;
  copy->edge = edge;
  copy->extra_edges = extra_edges;
  copy->table_mask = table_mask;
  copy->estimated_card = estimated_card;
  copy->estimated_cost = estimated_cost;
  if (left != nullptr) copy->left = left->Clone();
  if (right != nullptr) copy->right = right->Clone();
  return copy;
}

namespace {

/// Catalog name of `table_id`, or "?" for an id that names no table.
std::string TableName(const Database& db, int table_id) {
  const Table* table = db.TableById(table_id);
  return table != nullptr ? table->name() : "?";
}

/// Catalog name of the column `ref`, or "?" for an id that names nothing.
std::string ColumnName(const Database& db, CatalogColumn ref) {
  const Column* column = db.ColumnById(ref.table_id, ref.column_id);
  return column != nullptr ? column->name() : "?";
}

/// `edge` with its ids turned back into names, rendered as the query wrote
/// it.
std::string EdgeText(const Database& db, const PlanEdge& edge) {
  return JoinEdge{TableName(db, edge.left.table_id), ColumnName(db, edge.left),
                  TableName(db, edge.right.table_id),
                  ColumnName(db, edge.right)}
      .ToString();
}

void Render(const PlanNode& node, const Database& db,
            const std::unordered_map<uint64_t, double>* actual_rows,
            int indent, std::string* out) {
  *out += std::string(static_cast<size_t>(indent) * 2, ' ');
  if (node.IsScan()) {
    *out += ScanMethodName(node.scan_method) + " on " +
            TableName(db, node.table_id);
    for (size_t i = 0; i < node.filters.size(); ++i) {
      const CompiledPredicate& f = node.filters[i];
      *out += (i == 0 ? "  filter: " : " AND ") +
              Predicate{TableName(db, node.table_id),
                        ColumnName(db, {node.table_id, f.column_id}), f.op,
                        f.value}
                  .ToString();
    }
  } else {
    *out += JoinMethodName(node.join_method) + " on " +
            EdgeText(db, node.edge);
    for (const PlanEdge& e : node.extra_edges) {
      *out += " AND " + EdgeText(db, e);
    }
  }
  if (actual_rows == nullptr) {
    *out += StrFormat("  (rows=%.0f cost=%.1f)\n", node.estimated_card,
                      node.estimated_cost);
  } else {
    auto it = actual_rows->find(node.table_mask);
    const std::string actual = it != actual_rows->end()
                                   ? StrFormat("%.0f", it->second)
                                   : std::string("?");
    *out += StrFormat("  (rows=%.0f actual=%s cost=%.1f)\n",
                      node.estimated_card, actual.c_str(),
                      node.estimated_cost);
  }
  for (const PlanNode* child : {node.left.get(), node.right.get()}) {
    if (child != nullptr) Render(*child, db, actual_rows, indent + 1, out);
  }
}

}  // namespace

std::string PlanNode::Explain(
    const Database& db,
    const std::unordered_map<uint64_t, double>* actual_rows) const {
  std::string out;
  Render(*this, db, actual_rows, 0, &out);
  return out;
}

}  // namespace cardbench
