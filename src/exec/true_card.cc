#include "exec/true_card.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>

#include "common/file_util.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "storage/filter.h"

namespace cardbench {

TrueCardService::TrueCardService(const Database& db, ExecLimits limits,
                                 ExecOptions options)
    : db_(db), executor_(db, limits, options) {}

double TrueCardService::FilteredBaseCard(const Query& query,
                                         const std::string& table_name) const {
  const Table& table = db_.TableOrDie(table_name);
  const auto compiled =
      CompilePredicatesFor(table, table_name, query.predicates);
  return static_cast<double>(
      CountRangeConjunction(compiled, 0, table.num_rows()));
}

std::unique_ptr<PlanNode> TrueCardService::BuildCountingPlan(
    const Query& query) const {
  auto make_scan = [&](const std::string& table) {
    auto scan = std::make_unique<PlanNode>();
    scan->type = PlanNode::Type::kScan;
    scan->table = table;
    scan->scan_method = ScanMethod::kSeqScan;
    for (const auto& pred : query.predicates) {
      if (pred.table == table) scan->filters.push_back(pred);
    }
    const int idx = query.TableIndex(table);
    scan->table_mask = uint64_t{1} << idx;
    return scan;
  };

  // Greedy left-deep order: start from the smallest filtered table, then
  // repeatedly attach the connected table with the smallest filtered
  // cardinality. Any order yields the same exact count; small-first keeps
  // intermediates manageable.
  std::vector<std::string> remaining = query.tables;
  std::string first = remaining[0];
  double best = std::numeric_limits<double>::max();
  for (const auto& t : remaining) {
    const double card = FilteredBaseCard(query, t);
    if (card < best) {
      best = card;
      first = t;
    }
  }
  std::unique_ptr<PlanNode> plan = make_scan(first);
  remaining.erase(std::find(remaining.begin(), remaining.end(), first));
  std::vector<std::string> joined = {first};

  while (!remaining.empty()) {
    // Pick the connected remaining table with the smallest filtered card.
    std::string next;
    double next_card = std::numeric_limits<double>::max();
    for (const auto& cand : remaining) {
      bool connected = false;
      for (const auto& edge : query.joins) {
        const bool touches_cand =
            edge.left_table == cand || edge.right_table == cand;
        if (!touches_cand) continue;
        const std::string& other =
            edge.left_table == cand ? edge.right_table : edge.left_table;
        if (std::find(joined.begin(), joined.end(), other) != joined.end()) {
          connected = true;
          break;
        }
      }
      if (!connected) continue;
      const double card = FilteredBaseCard(query, cand);
      if (card < next_card) {
        next_card = card;
        next = cand;
      }
    }
    CARDBENCH_CHECK(!next.empty(), "query join graph disconnected: %s",
                    query.CanonicalKey().c_str());

    // Collect the edges connecting `next` to the joined set.
    std::vector<JoinEdge> connecting;
    for (const auto& edge : query.joins) {
      const bool next_left = edge.left_table == next;
      const bool next_right = edge.right_table == next;
      if (!next_left && !next_right) continue;
      const std::string& other = next_left ? edge.right_table : edge.left_table;
      if (std::find(joined.begin(), joined.end(), other) != joined.end()) {
        connecting.push_back(edge);
      }
    }
    CARDBENCH_CHECK(!connecting.empty(), "no connecting edge for %s",
                    next.c_str());

    auto join = std::make_unique<PlanNode>();
    join->type = PlanNode::Type::kJoin;
    join->join_method = JoinMethod::kHashJoin;
    join->edge = connecting[0];
    join->extra_edges.assign(connecting.begin() + 1, connecting.end());
    auto scan = make_scan(next);
    join->table_mask = plan->table_mask | scan->table_mask;
    join->left = std::move(plan);
    join->right = std::move(scan);
    plan = std::move(join);

    joined.push_back(next);
    remaining.erase(std::find(remaining.begin(), remaining.end(), next));
  }
  return plan;
}

Result<double> TrueCardService::Card(const Query& query) {
  const std::string key = query.CanonicalKey();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }

  auto plan = BuildCountingPlan(query);
  CARDBENCH_ASSIGN_OR_RETURN(ExecResult result,
                             executor_.ExecuteCount(*plan));
  if (result.timed_out) {
    return Status::OutOfRange("true-cardinality computation exceeded limits: " +
                              query.ToSql());
  }
  const double card = static_cast<double>(result.count);
  std::lock_guard<std::mutex> lock(mu_);
  cache_[key] = card;
  return card;
}

Result<double> TrueCardService::Card(const QueryGraph& graph, uint64_t mask) {
  const std::string& key = graph.CanonicalKey(mask);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  // Uncached: execute the counting plan of the precomputed induced
  // sub-query (the slow path; identical to the Query overload's).
  return Card(graph.InducedRef(mask));
}

Result<std::unordered_map<uint64_t, double>> TrueCardService::AllSubplanCards(
    const Query& query) {
  std::unordered_map<uint64_t, double> cards;
  for (uint64_t mask : EnumerateConnectedSubsets(query)) {
    CARDBENCH_ASSIGN_OR_RETURN(double card, Card(query.Induced(mask)));
    cards[mask] = card;
  }
  return cards;
}

Result<std::unordered_map<uint64_t, double>> TrueCardService::AllSubplanCards(
    const QueryGraph& graph) {
  std::unordered_map<uint64_t, double> cards;
  for (uint64_t mask : graph.connected_subsets()) {
    CARDBENCH_ASSIGN_OR_RETURN(double card, Card(graph, mask));
    cards[mask] = card;
  }
  return cards;
}

void TrueCardService::ImportFrom(const TrueCardService& other) {
  std::scoped_lock lock(mu_, other.mu_);
  for (const auto& [key, card] : other.cache_) cache_[key] = card;
}

Status TrueCardService::SaveCache(const std::string& path) const {
  return AtomicWriteFile(path, [&](std::ostream& out) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, card] : cache_) {
      out << key << '\t' << StrFormat("%.17g", card) << '\n';
    }
    return Status::OK();
  });
}

Status TrueCardService::LoadCache(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  const std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  // Parse everything before touching the memo: one bad line rejects the
  // whole file. Every line SaveCache writes ends in '\n', so a missing
  // final newline means a torn file.
  std::unordered_map<std::string, double> loaded;
  size_t begin = 0;
  for (size_t line_no = 1; begin < contents.size(); ++line_no) {
    const auto malformed = [&] {
      return Status::InvalidArgument(
          StrFormat("malformed true-cardinality cache line %zu in %s",
                    line_no, path.c_str()));
    };
    const size_t end = contents.find('\n', begin);
    if (end == std::string::npos) return malformed();
    const std::string line = contents.substr(begin, end - begin);
    const size_t tab = line.rfind('\t');
    if (tab == std::string::npos || tab == 0 || tab + 1 == line.size()) {
      return malformed();
    }
    char* parsed_end = nullptr;
    const double card = std::strtod(line.c_str() + tab + 1, &parsed_end);
    if (parsed_end != line.c_str() + line.size() || !std::isfinite(card) ||
        card < 0.0) {
      return malformed();
    }
    loaded[line.substr(0, tab)] = card;
    begin = end + 1;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, card] : loaded) cache_[key] = card;
  return Status::OK();
}

}  // namespace cardbench
