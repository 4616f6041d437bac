#include "optimizer/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace cardbench {

namespace {

double ClampCard(double card) {
  if (!std::isfinite(card) || card < 1.0) return 1.0;
  return card;
}

uint64_t NdvKey(int table_id, int column_id) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(table_id)) << 32) |
         static_cast<uint32_t>(column_id);
}

}  // namespace

Optimizer::Optimizer(const Database& db, CostModel cost_model)
    : db_(db), cost_(cost_model) {}

double Optimizer::NdvOf(int table_id, int column_id) const {
  const uint64_t key = NdvKey(table_id, column_id);
  {
    std::lock_guard<std::mutex> lock(ndv_mu_);
    auto it = ndv_cache_.find(key);
    if (it != ndv_cache_.end()) return it->second;
  }
  CARDBENCH_CHECK(db_.ColumnById(table_id, column_id) != nullptr,
                  "no column %d in table id %d", column_id, table_id);
  const double ndv = std::max<double>(
      1.0, static_cast<double>(db_.TableById(table_id)
                                   ->GetIndex(static_cast<size_t>(column_id))
                                   .num_distinct()));
  std::lock_guard<std::mutex> lock(ndv_mu_);
  ndv_cache_[key] = ndv;
  return ndv;
}

Result<PlanResult> Optimizer::Plan(const QueryGraph& graph,
                                   const CardinalityEstimator& estimator) const {
  Stopwatch total_watch;
  PlanResult result;

  struct Entry {
    std::unique_ptr<PlanNode> plan;
    double cost = std::numeric_limits<double>::infinity();
    double card = 1.0;
  };
  std::unordered_map<uint64_t, Entry> dp;

  // --- Estimate every connected sub-plan (the sub-plan query space) in one
  // batched call, so learned estimators run one GEMM per query instead of
  // one per sub-plan, and inject the clamped cardinalities.
  const std::vector<uint64_t>& subsets = graph.connected_subsets();
  Stopwatch est_watch;
  const std::vector<double> cards = estimator.EstimateCards(graph, subsets);
  result.estimation_seconds = est_watch.ElapsedSeconds();
  result.num_estimates = subsets.size();
  CARDBENCH_CHECK(cards.size() == subsets.size(),
                  "estimator returned %zu cards for %zu sub-plans",
                  cards.size(), subsets.size());
  for (size_t i = 0; i < subsets.size(); ++i) {
    result.injected_cards[subsets[i]] = ClampCard(cards[i]);
  }

  // --- Base relations: access-path selection. ---
  for (size_t i = 0; i < graph.num_tables(); ++i) {
    const uint64_t mask = uint64_t{1} << i;
    const QueryGraph::TableInfo& info = graph.table(i);
    const double table_rows = static_cast<double>(info.table->num_rows());
    const double out_card = result.injected_cards.at(mask);
    const std::vector<CompiledPredicate>& filters = info.compiled;

    Entry entry;
    // Sequential scan is always available.
    {
      auto scan = std::make_unique<PlanNode>();
      scan->type = PlanNode::Type::kScan;
      scan->table_id = info.table_id;
      scan->scan_method = ScanMethod::kSeqScan;
      scan->filters = filters;
      scan->table_mask = mask;
      scan->estimated_card = out_card;
      scan->estimated_cost = cost_.SeqScanCost(table_rows, filters.size());
      entry.cost = scan->estimated_cost;
      entry.plan = std::move(scan);
    }
    // Index scan: leading equality predicate on an indexed (key) column.
    for (size_t f = 0; f < filters.size(); ++f) {
      if (filters[f].op != CompareOp::kEq) continue;
      if (filters[f].column->kind() != ColumnKind::kKey) continue;
      const double matched =
          table_rows / NdvOf(info.table_id, filters[f].column_id);
      const double cost = cost_.IndexScanCost(matched, filters.size() - 1);
      if (cost < entry.cost) {
        auto scan = std::make_unique<PlanNode>();
        scan->type = PlanNode::Type::kScan;
        scan->table_id = info.table_id;
        scan->scan_method = ScanMethod::kIndexScan;
        scan->filters = filters;
        std::swap(scan->filters[0], scan->filters[f]);
        scan->table_mask = mask;
        scan->estimated_card = out_card;
        scan->estimated_cost = cost;
        entry.cost = cost;
        entry.plan = std::move(scan);
      }
    }
    entry.card = out_card;
    dp[mask] = std::move(entry);
  }

  // --- Join enumeration: DP over connected subsets in popcount order. ---
  std::vector<const QueryGraph::EdgeInfo*> in_mask_edges;
  std::vector<const QueryGraph::EdgeInfo*> connecting;
  for (uint64_t mask : subsets) {
    if (std::popcount(mask) < 2) continue;
    // Edges with both endpoints inside `mask`, collected once per subset in
    // query edge order; only these can connect a split, so the per-split
    // work drops to two bit tests per candidate edge.
    in_mask_edges.clear();
    for (const QueryGraph::EdgeInfo& edge : graph.edges()) {
      if ((edge.mask & mask) == edge.mask) in_mask_edges.push_back(&edge);
    }
    const double out_card = result.injected_cards.at(mask);
    Entry best;
    // Enumerate ordered splits (outer, inner) of `mask`.
    for (uint64_t outer = (mask - 1) & mask; outer != 0;
         outer = (outer - 1) & mask) {
      const uint64_t inner = mask ^ outer;
      // Adjacency pre-check: a split with no edge between the two sides is
      // a cross product; skip it without touching the edge list.
      if ((graph.AdjacencyOf(outer) & inner) == 0) continue;
      auto outer_it = dp.find(outer);
      auto inner_it = dp.find(inner);
      if (outer_it == dp.end() || inner_it == dp.end()) continue;

      // Connecting edges between the two sides, in query edge order (the
      // first one is the primary hash/merge join condition). An in-mask
      // edge crosses the split iff exactly one endpoint is in `outer`.
      connecting.clear();
      for (const QueryGraph::EdgeInfo* edge : in_mask_edges) {
        if (((outer & edge->left_bit) != 0) !=
            ((outer & edge->right_bit) != 0)) {
          connecting.push_back(edge);
        }
      }
      if (connecting.empty()) continue;  // unreachable given the pre-check

      const Entry& oe = outer_it->second;
      const Entry& ie = inner_it->second;
      const double child_cost = oe.cost + ie.cost;
      const size_t num_extra = connecting.size() - 1;

      // Keeps the join of the two sides on `primary` when its total cost
      // beats the best so far; the other connecting edges become post-join
      // filters, in query edge order. True if the join was kept.
      auto consider = [&](JoinMethod method, double total,
                          const QueryGraph::EdgeInfo* primary) {
        if (total >= best.cost) return false;
        auto node = std::make_unique<PlanNode>();
        node->type = PlanNode::Type::kJoin;
        node->join_method = method;
        node->edge = PlanEdge::Of(*primary);
        for (const QueryGraph::EdgeInfo* e : connecting) {
          if (e != primary) node->extra_edges.push_back(PlanEdge::Of(*e));
        }
        node->left = oe.plan->Clone();
        node->right = ie.plan->Clone();
        node->table_mask = mask;
        node->estimated_card = out_card;
        node->estimated_cost = total;
        best.cost = total;
        best.card = out_card;
        best.plan = std::move(node);
        return true;
      };

      consider(JoinMethod::kHashJoin,
               child_cost +
                   cost_.HashJoinCost(oe.card, ie.card, out_card, num_extra),
               connecting[0]);
      consider(JoinMethod::kMergeJoin,
               child_cost +
                   cost_.MergeJoinCost(oe.card, ie.card, out_card, num_extra),
               connecting[0]);

      // Index nested loop: inner side must be a single base table whose
      // join-edge endpoint is an indexed key column.
      if (std::popcount(inner) == 1 && ie.plan->IsScan() &&
          ie.plan->scan_method == ScanMethod::kSeqScan) {
        const int inner_local = std::countr_zero(inner);
        const QueryGraph::TableInfo& it_info = graph.table(inner_local);
        for (const QueryGraph::EdgeInfo* edge : connecting) {
          int inner_col;
          const Column* inner_column;
          if (edge->left_local == inner_local) {
            inner_col = edge->left_column_id;
            inner_column = edge->left_column;
          } else if (edge->right_local == inner_local) {
            inner_col = edge->right_column_id;
            inner_column = edge->right_column;
          } else {
            continue;
          }
          if (inner_column->kind() != ColumnKind::kKey) continue;
          const double matched_per_probe =
              static_cast<double>(it_info.table->num_rows()) /
              NdvOf(it_info.table_id, inner_col);
          // The inner scan's cost is not paid: probes replace the scan.
          const double join_cost = cost_.IndexNestLoopCost(
              oe.card, matched_per_probe, out_card, ie.plan->filters.size(),
              num_extra);
          if (consider(JoinMethod::kIndexNestLoop, oe.cost + join_cost,
                       edge)) {
            break;
          }
        }
      }
    }
    if (best.plan == nullptr) {
      return Status::Internal("no join plan found for connected subset");
    }
    dp[mask] = std::move(best);
  }

  auto full_it = dp.find(graph.full_mask());
  if (full_it == dp.end() || full_it->second.plan == nullptr) {
    return Status::Internal("planning failed for " + graph.query().ToSql());
  }
  result.plan = std::move(full_it->second.plan);
  result.planning_seconds = total_watch.ElapsedSeconds();
  return result;
}

Result<PlanResult> Optimizer::Plan(const Query& query,
                                   const CardinalityEstimator& estimator) const {
  Stopwatch total_watch;
  const QueryGraph graph(query, db_);
  auto result = Plan(graph, estimator);
  // Count the one-time compile in the plan time the caller observes.
  if (result.ok()) result->planning_seconds = total_watch.ElapsedSeconds();
  return result;
}

double Optimizer::RecostWithCards(
    const PlanNode& plan,
    const std::unordered_map<uint64_t, double>& cards) const {
  auto card_of = [&](const PlanNode& node) {
    auto it = cards.find(node.table_mask);
    return ClampCard(it != cards.end() ? it->second : node.estimated_card);
  };

  auto rows_of = [this](int table_id) {
    const Table* table = db_.TableById(table_id);
    CARDBENCH_CHECK(table != nullptr, "plan names unknown table id %d",
                    table_id);
    return static_cast<double>(table->num_rows());
  };

  if (plan.IsScan()) {
    const double table_rows = rows_of(plan.table_id);
    if (plan.scan_method == ScanMethod::kIndexScan) {
      const double matched =
          table_rows / NdvOf(plan.table_id, plan.filters[0].column_id);
      return cost_.IndexScanCost(matched, plan.filters.size() - 1);
    }
    return cost_.SeqScanCost(table_rows, plan.filters.size());
  }

  const double left_cost = RecostWithCards(*plan.left, cards);
  const double out_card = card_of(plan);
  const double outer_card = card_of(*plan.left);
  const size_t num_extra = plan.extra_edges.size();

  if (plan.join_method == JoinMethod::kIndexNestLoop) {
    const int inner_table = plan.right->table_id;
    const CatalogColumn key = plan.edge.left.table_id == inner_table
                                  ? plan.edge.left
                                  : plan.edge.right;
    const double matched_per_probe =
        rows_of(inner_table) / NdvOf(inner_table, key.column_id);
    return left_cost + cost_.IndexNestLoopCost(outer_card, matched_per_probe,
                                               out_card,
                                               plan.right->filters.size(),
                                               num_extra);
  }

  const double right_cost = RecostWithCards(*plan.right, cards);
  const double inner_card = card_of(*plan.right);
  if (plan.join_method == JoinMethod::kHashJoin) {
    return left_cost + right_cost +
           cost_.HashJoinCost(outer_card, inner_card, out_card, num_extra);
  }
  return left_cost + right_cost +
         cost_.MergeJoinCost(outer_card, inner_card, out_card, num_extra);
}

}  // namespace cardbench
