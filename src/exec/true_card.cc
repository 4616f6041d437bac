#include "exec/true_card.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/file_util.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "storage/filter.h"

namespace cardbench {

TrueCardService::TrueCardService(const Database& db, ExecLimits limits,
                                 ExecOptions options)
    : db_(db), limits_(limits), executor_(db, limits, options) {}

std::unique_ptr<PlanNode> TrueCardService::BuildCountingPlan(
    const QueryGraph& graph, uint64_t mask) const {
  auto make_scan = [&](int local) {
    const QueryGraph::TableInfo& info = graph.table(local);
    auto scan = std::make_unique<PlanNode>();
    scan->type = PlanNode::Type::kScan;
    scan->table_id = info.table_id;
    scan->scan_method = ScanMethod::kSeqScan;
    scan->filters = info.compiled;
    scan->table_mask = uint64_t{1} << local;
    return scan;
  };

  // Greedy left-deep order: start from the smallest filtered table, then
  // repeatedly attach the connected table with the smallest filtered
  // cardinality, ties going to the earlier table in query order. Any order
  // yields the same exact count; small-first keeps intermediates
  // manageable.
  std::vector<double> base_card(graph.num_tables(), 0.0);
  for (uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    const int local = std::countr_zero(rest);
    const QueryGraph::TableInfo& info = graph.table(local);
    base_card[local] = static_cast<double>(
        CountRangeConjunction(info.compiled, 0, info.table->num_rows()));
  }
  auto smallest = [&](uint64_t candidates) {
    int best = -1;
    for (uint64_t rest = candidates; rest != 0; rest &= rest - 1) {
      const int local = std::countr_zero(rest);
      if (best < 0 || base_card[local] < base_card[best]) best = local;
    }
    return best;
  };

  const int first = smallest(mask);
  std::unique_ptr<PlanNode> plan = make_scan(first);
  uint64_t joined = uint64_t{1} << first;
  while (joined != mask) {
    const int next = smallest(graph.AdjacencyOf(joined) & mask & ~joined);
    CARDBENCH_CHECK(next >= 0, "sub-plan %llu of %s is not connected",
                    static_cast<unsigned long long>(mask),
                    graph.query().CanonicalKey().c_str());
    // Every edge between `next` and the joined set, in query edge order:
    // the first is the hash join's key, the rest post-join filters.
    const uint64_t next_bit = uint64_t{1} << next;
    std::vector<PlanEdge> connecting;
    for (const QueryGraph::EdgeInfo& edge : graph.edges()) {
      if ((edge.mask & next_bit) != 0 && (edge.mask & joined) != 0) {
        connecting.push_back(PlanEdge::Of(edge));
      }
    }
    auto join = std::make_unique<PlanNode>();
    join->type = PlanNode::Type::kJoin;
    join->join_method = JoinMethod::kHashJoin;
    join->edge = connecting[0];
    join->extra_edges.assign(connecting.begin() + 1, connecting.end());
    join->table_mask = joined | next_bit;
    join->left = std::move(plan);
    join->right = make_scan(next);
    plan = std::move(join);
    joined |= next_bit;
  }
  return plan;
}

namespace {

/// Records that `key`'s counting plan exceeds `cap`: the largest cap a
/// plan is known to exceed answers for every smaller one.
void NoteOverCap(const std::string& key, size_t cap,
                 std::unordered_map<std::string, size_t>* verdicts) {
  size_t& known = (*verdicts)[key];
  known = std::max(known, cap);
}

Status OverCap(const std::string& key, size_t cap) {
  return Status::OutOfRange(StrFormat(
      "true-cardinality computation exceeded the intermediate-result cap "
      "(%zu tuples): %s",
      cap, key.c_str()));
}

}  // namespace

std::optional<Result<double>> TrueCardService::Memoized(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = cache_.find(key); it != cache_.end()) return it->second;
  if (auto it = over_cap_.find(key);
      it != over_cap_.end() && limits_.max_intermediate_tuples <= it->second) {
    return OverCap(key, it->second);
  }
  return std::nullopt;
}

Result<double> TrueCardService::CountAndMemoize(const std::string& key,
                                                const PlanNode& plan) {
  CARDBENCH_ASSIGN_OR_RETURN(ExecResult result, executor_.ExecuteCount(plan));
  if (result.cap_exceeded) {
    const size_t cap = limits_.max_intermediate_tuples;
    std::lock_guard<std::mutex> lock(mu_);
    NoteOverCap(key, cap, &over_cap_);
    return OverCap(key, cap);
  }
  if (result.timed_out) {
    return Status::OutOfRange(StrFormat(
        "true-cardinality computation exceeded the time limit (%g s): %s",
        limits_.timeout_seconds, key.c_str()));
  }
  const double card = static_cast<double>(result.count);
  std::lock_guard<std::mutex> lock(mu_);
  cache_[key] = card;
  return card;
}

Result<double> TrueCardService::Card(const Query& query) {
  const std::string key = query.CanonicalKey();
  if (auto memo = Memoized(key)) return *memo;
  // Compiled only on a miss: workload generation probes thousands of
  // candidate queries and mostly hits the memo.
  const QueryGraph graph(query, db_);
  return CountAndMemoize(key, *BuildCountingPlan(graph, graph.full_mask()));
}

Result<double> TrueCardService::Card(const QueryGraph& graph, uint64_t mask) {
  const std::string& key = graph.CanonicalKey(mask);
  if (auto memo = Memoized(key)) return *memo;
  return CountAndMemoize(key, *BuildCountingPlan(graph, mask));
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
  for (const auto& [key, cap] : other.over_cap_) {
    NoteOverCap(key, cap, &over_cap_);
  }
}

Status TrueCardService::SaveCache(const std::string& path) const {
  CARDBENCH_RETURN_IF_ERROR(AtomicWriteFile(path, [&](std::ostream& out) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, card] : cache_) {
      out << key << '\t' << StrFormat("%.17g", card) << '\n';
    }
    return Status::OK();
  }));
  return AtomicWriteFile(VerdictPath(path), [&](std::ostream& out) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, cap] : over_cap_) out << key << '\t' << cap << '\n';
    return Status::OK();
  });
}

namespace {

/// Parses a memo file of "key<TAB>value" lines through `parse_value`
/// (false for a malformed value) into `*out`. Every line SaveCache writes
/// ends in '\n', so a missing final newline means a torn file.
template <typename T, typename Parse>
Status ParseMemoFile(const std::string& path, const Parse& parse_value,
                     std::unordered_map<std::string, T>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  const std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  size_t begin = 0;
  for (size_t line_no = 1; begin < contents.size(); ++line_no) {
    const size_t end = contents.find('\n', begin);
    const std::string line = contents.substr(
        begin, end == std::string::npos ? std::string::npos : end - begin);
    const size_t tab = line.rfind('\t');
    T value{};
    if (end == std::string::npos || tab == std::string::npos || tab == 0 ||
        tab + 1 == line.size() || !parse_value(line.c_str() + tab + 1,
                                               line.c_str() + line.size(),
                                               &value)) {
      return Status::InvalidArgument(StrFormat(
          "malformed true-cardinality cache line %zu in %s", line_no,
          path.c_str()));
    }
    (*out)[line.substr(0, tab)] = value;
    begin = end + 1;
  }
  return Status::OK();
}

}  // namespace

Status TrueCardService::LoadCache(const std::string& path) {
  // Parse everything before touching the memo: one bad line in either file
  // rejects both.
  std::unordered_map<std::string, double> cards;
  CARDBENCH_RETURN_IF_ERROR(ParseMemoFile<double>(
      path,
      [](const char* text, const char* end, double* card) {
        char* parsed_end = nullptr;
        *card = std::strtod(text, &parsed_end);
        return parsed_end == end && std::isfinite(*card) && *card >= 0.0;
      },
      &cards));
  std::unordered_map<std::string, size_t> verdicts;
  if (std::filesystem::exists(VerdictPath(path))) {
    CARDBENCH_RETURN_IF_ERROR(ParseMemoFile<size_t>(
        VerdictPath(path),
        [](const char* text, const char* end, size_t* cap) {
          if (*text < '0' || *text > '9') return false;
          char* parsed_end = nullptr;
          errno = 0;
          const unsigned long long value = std::strtoull(text, &parsed_end, 10);
          *cap = static_cast<size_t>(value);
          return parsed_end == end && errno == 0;
        },
        &verdicts));
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, card] : cards) cache_[key] = card;
  for (const auto& [key, cap] : verdicts) NoteOverCap(key, cap, &over_cap_);
  return Status::OK();
}

}  // namespace cardbench
