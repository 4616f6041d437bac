#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "datagen/stats_gen.h"
#include "exec/executor.h"
#include "storage/filter.h"

namespace cardbench {
namespace {

/// Rows per table of the synthetic multi-morsel fixture.
constexpr size_t kMultiMorselRows = 60000;

/// Parity suite of the vectorized, morsel-parallel executor: every join
/// method × scan method must produce the same count as its materialization,
/// every (num_threads, batch_size) configuration must produce results
/// identical to the serial run — counts, tuples AND tuple order (morsel
/// outputs are concatenated in morsel order) — and the hash join must
/// match a nested-loop join written in this file.
///
/// Five fixtures: STATS at scale 0.01 (real schema and data, but every
/// scan, probe and build input fits in one morsel), a synthetic two-table
/// database whose scan, probe and build inputs each span at least three
/// morsels, so multi-thread runs take the executor's parallel scan and
/// probe branches (the build side's pipeline among them) and their
/// morsel-order concatenation, a synthetic four-table database for
/// multi-join pipelines, a synthetic three-table database for index
/// nested loops with inner filters, and a synthetic four-table database of
/// fan-out chains whose probe keys repeat in runs.
class ExecParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatsGenConfig config;
    config.scale = 0.01;
    db_ = GenerateStatsDatabase(config).release();
    multi_morsel_db_ = MakeMultiMorselDatabase().release();
    chain_db_ = MakeChainDatabase().release();
    index_nl_db_ = MakeIndexNestLoopDatabase().release();
    fanout_db_ = MakeFanoutDatabase().release();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    delete multi_morsel_db_;
    multi_morsel_db_ = nullptr;
    delete chain_db_;
    chain_db_ = nullptr;
    delete index_nl_db_;
    index_nl_db_ = nullptr;
    delete fanout_db_;
    fanout_db_ = nullptr;
  }

  /// r(k, v, w) and s(k, f, w), kMultiMorselRows rows each. Join keys k
  /// are uniform over 20000 values with 2% NULLs on both sides; r.v is
  /// uniform over [0, 100) for the probe side's range filter; s.f is 1 for
  /// 60% of rows for the build side's equality filter; w is uniform over
  /// [0, 4) on both sides, for an extra edge that keeps about a quarter of
  /// the matches.
  static std::unique_ptr<Database> MakeMultiMorselDatabase() {
    auto db = std::make_unique<Database>("multi_morsel");
    std::mt19937_64 rng(2021);
    auto key = [&rng]() -> std::optional<Value> {
      if (rng() % 50 == 0) return std::nullopt;
      return static_cast<Value>(rng() % 20000);
    };
    auto uniform = [&rng](uint64_t n) { return static_cast<Value>(rng() % n); };
    auto bernoulli = [&rng](uint64_t percent) -> Value {
      return rng() % 100 < percent ? 1 : 0;
    };
    Table* r = db->AddTable("r").value();
    Table* s = db->AddTable("s").value();
    for (const char* column : {"k", "v", "w"}) {
      CARDBENCH_CHECK(r->AddColumn(column, ColumnKind::kNumeric).ok(),
                      "add r.%s", column);
    }
    for (const char* column : {"k", "f", "w"}) {
      CARDBENCH_CHECK(s->AddColumn(column, ColumnKind::kNumeric).ok(),
                      "add s.%s", column);
    }
    for (size_t i = 0; i < kMultiMorselRows; ++i) {
      // Braced-list elements are evaluated in order: deterministic rows.
      CARDBENCH_CHECK(r->AppendRow({key(), uniform(100), uniform(4)}).ok(),
                      "append r");
      CARDBENCH_CHECK(
          s->AppendRow({key(), bernoulli(60), uniform(4)}).ok(),
          "append s");
    }
    return db;
  }

  /// A hub table and three dimension tables for multi-join pipelines. Every
  /// join key repeats (duplicate keys fan out) and has NULLs on both sides:
  ///   hub(a, b, v, w): 20000 rows; a ~ [0, 2000) → d1.k, b ~ [0, 1000) →
  ///     d2.k, v ~ [0, 100) for filters, w ~ [0, 4) for extra edges.
  ///   d1(k, c, x, w): 2000 rows; k ~ [0, 1800), c ~ [0, 500) → d3.k.
  ///   d2(k, y, w): 1500 rows; k ~ [0, 1000), y ~ [0, 10).
  ///   d3(k, z, w): 600 rows; k ~ [0, 500), z ~ [0, 10).
  /// The hub's filtered scans span several probe morsels, so parallel runs
  /// stream chains over more morsels than threads after a materialized
  /// prefix.
  static std::unique_ptr<Database> MakeChainDatabase() {
    auto db = std::make_unique<Database>("chains");
    std::mt19937_64 rng(2014);
    auto key = [&rng](uint64_t n) -> std::optional<Value> {
      if (rng() % 40 == 0) return std::nullopt;
      return static_cast<Value>(rng() % n);
    };
    auto uniform = [&rng](uint64_t n) -> std::optional<Value> {
      return static_cast<Value>(rng() % n);
    };
    auto add = [&db](const char* name,
                     std::initializer_list<const char*> columns) {
      Table* table = db->AddTable(name).value();
      for (const char* column : columns) {
        CARDBENCH_CHECK(table->AddColumn(column, ColumnKind::kNumeric).ok(),
                        "add %s.%s", name, column);
      }
      return table;
    };
    Table* hub = add("hub", {"a", "b", "v", "w"});
    Table* d1 = add("d1", {"k", "c", "x", "w"});
    Table* d2 = add("d2", {"k", "y", "w"});
    Table* d3 = add("d3", {"k", "z", "w"});
    auto append = [](Table* table, std::vector<std::optional<Value>> row) {
      CARDBENCH_CHECK(table->AppendRow(row).ok(), "append %s",
                      table->name().c_str());
    };
    // Braced-list elements are evaluated in order: deterministic rows.
    for (int i = 0; i < 20000; ++i) {
      append(hub, {key(2000), key(1000), uniform(100), uniform(4)});
    }
    for (int i = 0; i < 2000; ++i) {
      append(d1, {key(1800), key(500), uniform(10), uniform(4)});
    }
    for (int i = 0; i < 1500; ++i) {
      append(d2, {key(1000), uniform(10), uniform(4)});
    }
    for (int i = 0; i < 600; ++i) {
      append(d3, {key(500), uniform(10), uniform(4)});
    }
    return db;
  }

  /// Inner rows of i holding the heavy key 0: more than two filter chunks
  /// of an index nested loop, so its run splits across three.
  static constexpr size_t kHeavyRunRows = 2 * kIndexChunkRows + 300;

  /// Index nested loops with inner filters:
  ///   o(k, w): 3000 rows; k = 0 (the heavy key) on every 150th row, else
  ///     ~ [1, 400) with 1/40 NULLs; w ~ [0, 4) for an extra edge.
  ///   i(k, a, b, w): kHeavyRunRows rows of k = 0 spread over 6000 rows
  ///     of k ~ [1, 400) (1/40 NULLs); the filtered columns a ~ [0, 100)
  ///     and b ~ [0, 10) are NULL on 1/8 of the rows each; w ~ [0, 4).
  ///   d(k): 40 rows, k ~ [0, 10) → i.b, to put the join inside a chain.
  static std::unique_ptr<Database> MakeIndexNestLoopDatabase() {
    auto db = std::make_unique<Database>("index_nl");
    std::mt19937_64 rng(2023);
    auto maybe = [&rng](uint64_t null_one_in, uint64_t n,
                        Value base = 0) -> std::optional<Value> {
      if (rng() % null_one_in == 0) return std::nullopt;
      return base + static_cast<Value>(rng() % n);
    };
    auto add = [&db](const char* name,
                     std::initializer_list<const char*> columns) {
      Table* table = db->AddTable(name).value();
      for (const char* column : columns) {
        CARDBENCH_CHECK(table->AddColumn(column, ColumnKind::kNumeric).ok(),
                        "add %s.%s", name, column);
      }
      return table;
    };
    Table* o = add("o", {"k", "w"});
    Table* i = add("i", {"k", "a", "b", "w"});
    Table* d = add("d", {"k"});
    auto append = [](Table* table, std::vector<std::optional<Value>> row) {
      CARDBENCH_CHECK(table->AppendRow(row).ok(), "append %s",
                      table->name().c_str());
    };
    // Braced-list elements are evaluated in order: deterministic rows.
    for (int r = 0; r < 3000; ++r) {
      const std::optional<Value> k =
          r % 150 == 0 ? std::optional<Value>(0) : maybe(40, 399, 1);
      append(o, {k, static_cast<Value>(rng() % 4)});
    }
    const size_t rows = 6000 + kHeavyRunRows;
    size_t heavy_left = kHeavyRunRows;
    for (size_t r = 0; r < rows; ++r) {
      // Heavy rows drawn without replacement: exactly kHeavyRunRows of them.
      const bool heavy = rng() % (rows - r) < heavy_left;
      heavy_left -= heavy ? 1 : 0;
      const std::optional<Value> k =
          heavy ? std::optional<Value>(0) : maybe(40, 399, 1);
      append(i, {k, maybe(8, 100), maybe(8, 10),
                 static_cast<Value>(rng() % 4)});
    }
    for (int r = 0; r < 40; ++r) append(d, {static_cast<Value>(rng() % 10)});
    return db;
  }

  /// Rows of the fan-out fixture's driving table f: more than one scan
  /// morsel, so a run of equal keys crosses the morsel boundary.
  static constexpr size_t kFanoutRows = kScanMorselRows + 3616;

  /// Fan-out chains whose probe keys repeat in runs (the previous input
  /// tuple's key reused, the ids a later join reads kept):
  ///   f(k, k2, w): kFanoutRows rows in runs of 7 of k = row / 7 (so runs
  ///     cross batches of 3 and the morsel boundary); k is NULL on the
  ///     run's fourth row in every fourth run, the run of key 0 among
  ///     them; k2 = k / 2 (runs of 14), NULL on the run's sixth row in
  ///     every third run of k; w ~ [0, 4).
  ///   g(k, c, w): 6000 rows, k ~ [0, 2858) → f.k (about two rows per key,
  ///     so a join with f fans out and repeats f's components), c ~
  ///     [0, 500) → d.k.
  ///   h(k, c, w): 3000 rows, k ~ [0, 1500) → f.k2, c ~ [0, 300) → d.k
  ///     and for an inner filter.
  ///   d(k, w): 1000 rows, k ~ [0, 500).
  /// g.k and h.k hold key 0 on their first three rows and NULL on the
  /// fourth, so the NULLs inside f's runs of key 0 follow a key with
  /// matches, and so does the NULL in h's scan order. Other keys are NULL on
  /// 1/40 of the rows; w ~ [0, 4) everywhere, for extra edges.
  static std::unique_ptr<Database> MakeFanoutDatabase() {
    auto db = std::make_unique<Database>("fanout");
    std::mt19937_64 rng(2025);
    auto add = [&db](const char* name,
                     std::initializer_list<const char*> columns) {
      Table* table = db->AddTable(name).value();
      for (const char* column : columns) {
        CARDBENCH_CHECK(table->AddColumn(column, ColumnKind::kNumeric).ok(),
                        "add %s.%s", name, column);
      }
      return table;
    };
    auto append = [](Table* table, std::vector<std::optional<Value>> row) {
      CARDBENCH_CHECK(table->AppendRow(row).ok(), "append %s",
                      table->name().c_str());
    };
    auto key = [&rng](uint64_t n) -> std::optional<Value> {
      if (rng() % 40 == 0) return std::nullopt;
      return static_cast<Value>(rng() % n);
    };
    auto zero_first = [&key](size_t row, uint64_t n) -> std::optional<Value> {
      if (row < 3) return 0;
      if (row == 3) return std::nullopt;
      return key(n);
    };
    auto w = [&rng]() -> std::optional<Value> {
      return static_cast<Value>(rng() % 4);
    };
    Table* f = add("f", {"k", "k2", "w"});
    Table* g = add("g", {"k", "c", "w"});
    Table* h = add("h", {"k", "c", "w"});
    Table* d = add("d", {"k", "w"});
    for (size_t r = 0; r < kFanoutRows; ++r) {
      const Value run = static_cast<Value>(r / 7);
      std::optional<Value> k = run, k2 = run / 2;
      if (r % 7 == 3 && run % 4 == 0) k.reset();
      if (r % 7 == 5 && run % 3 == 0) k2.reset();
      append(f, {k, k2, w()});
    }
    // Braced-list elements are evaluated in order: deterministic rows.
    for (size_t r = 0; r < 6000; ++r) {
      append(g, {zero_first(r, 2858), key(500), w()});
    }
    for (size_t r = 0; r < 3000; ++r) {
      append(h, {zero_first(r, 1500), key(300), w()});
    }
    for (size_t r = 0; r < 1000; ++r) append(d, {key(500), w()});
    return db;
  }

  /// A scan of `table` filtered by `filters`, its names resolved once
  /// against `db`.
  static std::unique_ptr<PlanNode> Scan(const Database& db,
                                        const std::string& table,
                                        ScanMethod method,
                                        const std::vector<Predicate>& filters,
                                        uint64_t mask) {
    auto scan = std::make_unique<PlanNode>();
    scan->type = PlanNode::Type::kScan;
    scan->table_id = db.TableId(table);
    scan->scan_method = method;
    scan->filters = CompilePredicates(db.TableOrDie(table), filters);
    scan->table_mask = mask;
    return scan;
  }

  /// The join edge `edge`, its names resolved once against `db`.
  static PlanEdge Edge(const Database& db, const JoinEdge& edge) {
    auto column = [&db](const std::string& table, const std::string& name) {
      return CatalogColumn{
          db.TableId(table),
          static_cast<int>(db.TableOrDie(table).ColumnIndexOrDie(name))};
    };
    return {column(edge.left_table, edge.left_column),
            column(edge.right_table, edge.right_column)};
  }

  /// users ⋈ comments on users.Id = comments.UserId. The comments leaf
  /// carries the equality filter comments.Score = 1, so it supports both
  /// scan methods; the users leaf keeps a range filter (seq scan only).
  static std::unique_ptr<PlanNode> TwoWayPlan(JoinMethod join_method,
                                              ScanMethod inner_scan) {
    auto join = std::make_unique<PlanNode>();
    join->type = PlanNode::Type::kJoin;
    join->join_method = join_method;
    join->edge = Edge(*db_, {"users", "Id", "comments", "UserId"});
    join->left = Scan(*db_, "users", ScanMethod::kSeqScan,
                      {{"users", "Reputation", CompareOp::kGe, 20}}, 1);
    join->right = Scan(*db_, "comments", inner_scan,
                       {{"comments", "Score", CompareOp::kEq, 1}}, 2);
    join->table_mask = 3;
    return join;
  }

  /// r ⋈ s on r.k = s.k over the multi-morsel fixture. The r leaf keeps
  /// r.v < 16 (about 9600 probe tuples, seq scan only); the s leaf carries
  /// the equality filter s.f = 1 (about 36000 build tuples), so it supports
  /// both scan methods.
  static std::unique_ptr<PlanNode> MultiMorselPlan(JoinMethod join_method,
                                                   ScanMethod inner_scan) {
    auto join = std::make_unique<PlanNode>();
    join->type = PlanNode::Type::kJoin;
    join->join_method = join_method;
    join->edge = Edge(*multi_morsel_db_, {"r", "k", "s", "k"});
    join->left = Scan(*multi_morsel_db_, "r", ScanMethod::kSeqScan,
                      {{"r", "v", CompareOp::kLt, 16}}, 1);
    join->right = Scan(*multi_morsel_db_, "s", inner_scan,
                       {{"s", "f", CompareOp::kEq, 1}}, 2);
    join->table_mask = 3;
    return join;
  }

  /// A join of `left` and `right` on `edge` (names in `db`), with the
  /// extra edges `extra`.
  static std::unique_ptr<PlanNode> Join(const Database& db, JoinMethod method,
                                        const JoinEdge& edge,
                                        std::unique_ptr<PlanNode> left,
                                        std::unique_ptr<PlanNode> right,
                                        const std::vector<JoinEdge>& extra = {}) {
    auto join = std::make_unique<PlanNode>();
    join->type = PlanNode::Type::kJoin;
    join->join_method = method;
    join->edge = Edge(db, edge);
    for (const JoinEdge& e : extra) join->extra_edges.push_back(Edge(db, e));
    join->table_mask = left->table_mask | right->table_mask;
    join->left = std::move(left);
    join->right = std::move(right);
    return join;
  }

  static std::unique_ptr<PlanNode> ChainScan(
      const std::string& table, const std::vector<Predicate>& filters,
      uint64_t mask) {
    return Scan(*chain_db_, table, ScanMethod::kSeqScan, filters, mask);
  }

  /// hub ⋈ d1 ⋈ d2 ⋈ d3 as three index nested loops: d2 carries the inner
  /// filter d2.y < 6, d3 joins on d1.c with the extra edge hub.w = d3.w.
  static std::unique_ptr<PlanNode> IndexChainPlan() {
    const Database& db = *chain_db_;
    auto j1 = Join(db, JoinMethod::kIndexNestLoop, {"hub", "a", "d1", "k"},
                   ChainScan("hub", {{"hub", "v", CompareOp::kLt, 60}}, 1),
                   ChainScan("d1", {}, 2));
    auto j2 = Join(db, JoinMethod::kIndexNestLoop, {"hub", "b", "d2", "k"},
                   std::move(j1),
                   ChainScan("d2", {{"d2", "y", CompareOp::kLt, 6}}, 4));
    return Join(db, JoinMethod::kIndexNestLoop, {"d1", "c", "d3", "k"},
                std::move(j2), ChainScan("d3", {}, 8),
                {{"hub", "w", "d3", "w"}});
  }

  /// (hub ⋈ (d1 ⋈ d3)) ⋈ d2 as hash joins: the first join's build side is
  /// itself a join. `root_extra` gives the root the extra edge
  /// hub.w = d2.w.
  static std::unique_ptr<PlanNode> HashChainPlan(bool root_extra) {
    const Database& db = *chain_db_;
    auto build = Join(db, JoinMethod::kHashJoin, {"d1", "c", "d3", "k"},
                      ChainScan("d1", {{"d1", "x", CompareOp::kLt, 8}}, 2),
                      ChainScan("d3", {}, 8));
    auto j1 = Join(db, JoinMethod::kHashJoin, {"hub", "a", "d1", "k"},
                   ChainScan("hub", {{"hub", "v", CompareOp::kLt, 60}}, 1),
                   std::move(build));
    std::vector<JoinEdge> extra;
    if (root_extra) extra.push_back({"hub", "w", "d2", "w"});
    return Join(db, JoinMethod::kHashJoin, {"hub", "b", "d2", "k"},
                std::move(j1), ChainScan("d2", {}, 4), extra);
  }

  /// (hub ⋈ d1) as a merge join, then a hash join with d2 (filtered) and an
  /// index nested loop with d3: a merge join as a pipeline's source.
  static std::unique_ptr<PlanNode> MergeChainPlan() {
    const Database& db = *chain_db_;
    auto merge = Join(db, JoinMethod::kMergeJoin, {"hub", "a", "d1", "k"},
                      ChainScan("hub", {{"hub", "v", CompareOp::kLt, 60}}, 1),
                      ChainScan("d1", {}, 2));
    auto j2 = Join(db, JoinMethod::kHashJoin, {"hub", "b", "d2", "k"},
                   std::move(merge),
                   ChainScan("d2", {{"d2", "y", CompareOp::kLt, 6}}, 4));
    return Join(db, JoinMethod::kIndexNestLoop, {"d1", "c", "d3", "k"},
                std::move(j2), ChainScan("d3", {}, 8));
  }

  /// o ⋈ i on o.k = i.k as an index nested loop with the inner filters
  /// `filters` (and the extra edge o.w = i.w); with `chain`, the left input
  /// of an unfiltered index nested loop with d on i.b = d.k.
  static std::unique_ptr<PlanNode> FilteredIndexPlan(
      const std::vector<Predicate>& filters, bool extra_edge, bool chain) {
    const Database& db = *index_nl_db_;
    std::vector<JoinEdge> extra;
    if (extra_edge) extra.push_back({"o", "w", "i", "w"});
    auto join = Join(db, JoinMethod::kIndexNestLoop, {"o", "k", "i", "k"},
                     Scan(db, "o", ScanMethod::kSeqScan, {}, 1),
                     Scan(db, "i", ScanMethod::kSeqScan, filters, 2), extra);
    if (!chain) return join;
    return Join(db, JoinMethod::kIndexNestLoop, {"i", "b", "d", "k"},
                std::move(join),
                Scan(db, "d", ScanMethod::kSeqScan, {}, 4));
  }

  static std::unique_ptr<PlanNode> FanoutScan(
      const std::string& table, const std::vector<Predicate>& filters = {}) {
    const uint64_t mask = uint64_t{1} << fanout_db_->TableId(table);
    return Scan(*fanout_db_, table, ScanMethod::kSeqScan, filters, mask);
  }

  /// f ⋈ g as an index nested loop: the fan-out every chain below starts
  /// with, repeating f's components over g's matches.
  static std::unique_ptr<PlanNode> FanoutJoin(JoinMethod method) {
    return Join(*fanout_db_, method, {"f", "k", "g", "k"}, FanoutScan("f"),
                FanoutScan("g"));
  }

  /// The fan-out fixture's plans, each with a later join keyed on an
  /// upstream component, whose keys arrive in runs with NULLs inside:
  ///   index: f ⋈ g ⋈ h ⋈ d as index nested loops; h (inner filter h.c <
  ///     200) joins on f.k2 with the extra edge f.w = h.w, whose outer
  ///     endpoint sits two joins up; d joins on g.c at the count-only root.
  ///   index root: f ⋈ g ⋈ h as index nested loops, h on f.k2 at a
  ///     count-only root without filters or extra edges.
  ///   hash: (f ⋈ g) ⋈ (h ⋈ d) with a hash join on f.k2 = h.k whose build
  ///     side, an index nested loop, feeds the extra edge f.w = d.w.
  ///   merge: (f ⋈ g as a merge join) ⋈ h as a hash join on f.k2 with the
  ///     extra edge f.w = h.w, then d on g.c as an index nested loop.
  ///   key counts: h ⋈ (f ⋈ g ⋈ d) as a count-only hash join on h.k = f.k2
  ///     whose build side is an index-NL chain: a key-count root.
  static std::vector<std::pair<std::string, std::unique_ptr<PlanNode>>>
  FanoutPlans() {
    const Database& db = *fanout_db_;
    std::vector<std::pair<std::string, std::unique_ptr<PlanNode>>> plans;
    auto fgh = Join(db, JoinMethod::kIndexNestLoop, {"f", "k2", "h", "k"},
                    FanoutJoin(JoinMethod::kIndexNestLoop),
                    FanoutScan("h", {{"h", "c", CompareOp::kLt, 200}}),
                    {{"f", "w", "h", "w"}});
    plans.emplace_back(
        "index", Join(db, JoinMethod::kIndexNestLoop, {"g", "c", "d", "k"},
                      std::move(fgh), FanoutScan("d")));
    plans.emplace_back(
        "index root",
        Join(db, JoinMethod::kIndexNestLoop, {"f", "k2", "h", "k"},
             FanoutJoin(JoinMethod::kIndexNestLoop), FanoutScan("h")));
    plans.emplace_back(
        "hash",
        Join(db, JoinMethod::kHashJoin, {"f", "k2", "h", "k"},
             FanoutJoin(JoinMethod::kIndexNestLoop),
             Join(db, JoinMethod::kIndexNestLoop, {"h", "c", "d", "k"},
                  FanoutScan("h"), FanoutScan("d")),
             {{"f", "w", "d", "w"}}));
    auto merge = Join(db, JoinMethod::kHashJoin, {"f", "k2", "h", "k"},
                      FanoutJoin(JoinMethod::kMergeJoin), FanoutScan("h"),
                      {{"f", "w", "h", "w"}});
    plans.emplace_back(
        "merge", Join(db, JoinMethod::kIndexNestLoop, {"g", "c", "d", "k"},
                      std::move(merge), FanoutScan("d")));
    auto build = Join(db, JoinMethod::kIndexNestLoop, {"g", "c", "d", "k"},
                      FanoutJoin(JoinMethod::kIndexNestLoop), FanoutScan("d"));
    plans.emplace_back("key counts",
                       Join(db, JoinMethod::kHashJoin, {"h", "k", "f", "k2"},
                            FanoutScan("h"), std::move(build)));
    return plans;
  }

  static Database* db_;
  static Database* multi_morsel_db_;
  static Database* chain_db_;
  static Database* index_nl_db_;
  static Database* fanout_db_;
};

Database* ExecParityTest::db_ = nullptr;
Database* ExecParityTest::multi_morsel_db_ = nullptr;
Database* ExecParityTest::chain_db_ = nullptr;
Database* ExecParityTest::index_nl_db_ = nullptr;
Database* ExecParityTest::fanout_db_ = nullptr;

/// Reference evaluation of any plan: nested loops over the reference
/// outputs of each join's inputs (an index nested loop's inner side is its
/// filtered base table), emitting for every outer tuple in order every
/// inner tuple, in order, whose primary and extra edge columns are all
/// non-NULL and equal — the (outer tuple, ascending inner tuple) order the
/// hash and index-nested-loop joins promise. No hashing, no index.
TupleSet ReferenceJoin(const Database& db, const PlanNode& plan) {
  if (plan.IsScan()) {
    TupleSet out;
    out.table_ids = {plan.table_id};
    const Table& table = *db.TableById(plan.table_id);
    for (uint32_t row = 0; row < table.num_rows(); ++row) {
      if (RowPassesCompiled(plan.filters, row)) out.data.push_back(row);
    }
    return out;
  }
  const TupleSet left = ReferenceJoin(db, *plan.left);
  TupleSet right;
  if (plan.join_method == JoinMethod::kIndexNestLoop) {
    PlanNode inner;
    inner.table_id = plan.right->table_id;
    inner.filters = plan.right->filters;
    right = ReferenceJoin(db, inner);
  } else {
    right = ReferenceJoin(db, *plan.right);
  }
  // Each edge endpoint's value per input tuple; NULL stays nullopt.
  auto values = [&db](const TupleSet& ts, CatalogColumn ref) {
    const auto it =
        std::find(ts.table_ids.begin(), ts.table_ids.end(), ref.table_id);
    std::vector<std::optional<Value>> out(ts.size());
    if (it == ts.table_ids.end()) return out;
    const size_t component = static_cast<size_t>(it - ts.table_ids.begin());
    const Column& col = *db.ColumnById(ref.table_id, ref.column_id);
    for (size_t t = 0; t < ts.size(); ++t) {
      const uint32_t row = ts.Row(t, component);
      if (col.IsValid(row)) out[t] = col.Get(row);
    }
    return out;
  };
  std::vector<std::vector<std::optional<Value>>> lvals, rvals;
  std::vector<PlanEdge> edges = {plan.edge};
  edges.insert(edges.end(), plan.extra_edges.begin(), plan.extra_edges.end());
  for (const PlanEdge& e : edges) {
    const bool flip = std::find(left.table_ids.begin(), left.table_ids.end(),
                                e.left.table_id) == left.table_ids.end();
    lvals.push_back(values(left, flip ? e.right : e.left));
    rvals.push_back(values(right, flip ? e.left : e.right));
  }
  // The inner tuples with a non-NULL primary key, ascending, with their
  // keys in a flat array: the inner loop's only per-iteration load.
  std::vector<Value> inner_keys;
  std::vector<size_t> inner_tuples;
  for (size_t r = 0; r < right.size(); ++r) {
    if (!rvals[0][r].has_value()) continue;
    inner_keys.push_back(*rvals[0][r]);
    inner_tuples.push_back(r);
  }
  TupleSet out;
  out.table_ids = left.table_ids;
  out.table_ids.insert(out.table_ids.end(), right.table_ids.begin(),
                       right.table_ids.end());
  for (size_t l = 0; l < left.size(); ++l) {
    if (!lvals[0][l].has_value()) continue;
    const Value key = *lvals[0][l];
    for (size_t j = 0; j < inner_keys.size(); ++j) {
      if (inner_keys[j] != key) continue;
      const size_t r = inner_tuples[j];
      bool match = true;
      for (size_t e = 1; e < edges.size() && match; ++e) {
        match = lvals[e][l].has_value() && lvals[e][l] == rvals[e][r];
      }
      if (!match) continue;
      for (size_t c = 0; c < left.arity(); ++c) {
        out.data.push_back(left.Row(l, c));
      }
      for (size_t c = 0; c < right.arity(); ++c) {
        out.data.push_back(right.Row(r, c));
      }
    }
  }
  return out;
}

/// A TupleSet's tuples, sorted: its contents as a multiset.
std::vector<std::vector<uint32_t>> SortedTuples(const TupleSet& ts) {
  std::vector<std::vector<uint32_t>> tuples;
  for (size_t t = 0; t < ts.size(); ++t) {
    tuples.emplace_back(ts.data.begin() + t * ts.arity(),
                        ts.data.begin() + (t + 1) * ts.arity());
  }
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

/// Every node of `plan`, root first.
void CollectNodes(const PlanNode& plan, std::vector<const PlanNode*>* out) {
  out->push_back(&plan);
  if (plan.left != nullptr) CollectNodes(*plan.left, out);
  if (plan.right != nullptr) CollectNodes(*plan.right, out);
}

constexpr JoinMethod kJoinMethods[] = {
    JoinMethod::kHashJoin, JoinMethod::kMergeJoin, JoinMethod::kIndexNestLoop};
constexpr ScanMethod kScanMethods[] = {ScanMethod::kSeqScan,
                                       ScanMethod::kIndexScan};

TEST_F(ExecParityTest, CountMatchesMaterializeAcrossMethods) {
  Executor reference(*db_);
  const uint64_t expected =
      reference.ExecuteCount(*TwoWayPlan(JoinMethod::kHashJoin,
                                         ScanMethod::kSeqScan))
          ->count;
  ASSERT_GT(expected, 0u);
  for (JoinMethod jm : kJoinMethods) {
    for (ScanMethod sm : kScanMethods) {
      const auto plan = TwoWayPlan(jm, sm);
      auto count = reference.ExecuteCount(*plan);
      auto tuples = reference.Materialize(*plan);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      ASSERT_TRUE(tuples.ok()) << tuples.status().ToString();
      EXPECT_EQ(count->count, expected)
          << JoinMethodName(jm) << "/" << ScanMethodName(sm);
      EXPECT_EQ(tuples->size(), count->count)
          << JoinMethodName(jm) << "/" << ScanMethodName(sm);
    }
  }
}

// The multi-morsel fixture must keep every input of its join above two
// morsels, or the multi-thread tests below silently run serial branches.
TEST_F(ExecParityTest, MultiMorselFixtureSpansThreeMorselsPerInput) {
  for (const char* table : {"r", "s"}) {
    EXPECT_GT(multi_morsel_db_->TableOrDie(table).num_rows(),
              2 * kScanMorselRows)
        << table;
  }
  Executor exec(*multi_morsel_db_);
  for (ScanMethod sm : kScanMethods) {
    const auto plan = MultiMorselPlan(JoinMethod::kHashJoin, sm);
    auto probe = exec.Materialize(*plan->left);
    auto build = exec.Materialize(*plan->right);
    ASSERT_TRUE(probe.ok() && build.ok());
    EXPECT_GT(probe->size(), 2 * kProbeMorselTuples) << ScanMethodName(sm);
    EXPECT_GT(build->size(), 2 * kScanMorselRows) << ScanMethodName(sm);
  }
}

TEST_F(ExecParityTest, ThreadAndBatchConfigsAreBitIdentical) {
  // Baseline: serial, default batch.
  Executor baseline(*multi_morsel_db_);
  for (JoinMethod jm : kJoinMethods) {
    for (ScanMethod sm : kScanMethods) {
      const auto plan = MultiMorselPlan(jm, sm);
      const auto expected = baseline.Materialize(*plan);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
          ExecOptions options;
          options.batch_size = batch;
          options.num_threads = threads;
          Executor exec(*multi_morsel_db_, ExecLimits(), options);
          auto count = exec.ExecuteCount(*plan);
          auto tuples = exec.Materialize(*plan);
          ASSERT_TRUE(count.ok()) << count.status().ToString();
          ASSERT_TRUE(tuples.ok()) << tuples.status().ToString();
          EXPECT_EQ(count->count, expected->size())
              << JoinMethodName(jm) << "/" << ScanMethodName(sm) << " threads="
              << threads << " batch=" << batch;
          EXPECT_EQ(tuples->data, expected->data)
              << JoinMethodName(jm) << "/" << ScanMethodName(sm) << " threads="
              << threads << " batch=" << batch;
        }
      }
    }
  }
}

TEST_F(ExecParityTest, ExplainAnalyzeIdenticalSerialVsParallel) {
  ExecOptions parallel;
  parallel.num_threads = 8;
  Executor serial_exec(*multi_morsel_db_);
  Executor parallel_exec(*multi_morsel_db_, ExecLimits(), parallel);
  for (JoinMethod jm : kJoinMethods) {
    const auto plan = MultiMorselPlan(jm, ScanMethod::kSeqScan);
    auto serial = serial_exec.ExecuteCount(*plan, /*analyze=*/true);
    auto threaded = parallel_exec.ExecuteCount(*plan, /*analyze=*/true);
    ASSERT_TRUE(serial.ok() && threaded.ok());
    EXPECT_FALSE(serial->actual_rows.empty());
    EXPECT_EQ(serial->actual_rows, threaded->actual_rows)
        << JoinMethodName(jm);
  }
}

// Regression: the wall-clock budget must be enforced on the index-scan path
// and inside join build/sort loops, not just in seq scans. An expired budget
// must trip even when every leaf is an index scan.
TEST_F(ExecParityTest, IndexScanHonorsTimeout) {
  ExecLimits limits;
  limits.timeout_seconds = 0.0;
  Executor exec(*db_, limits);
  const auto plan = Scan(*db_, "comments", ScanMethod::kIndexScan,
                         {{"comments", "Score", CompareOp::kEq, 1}}, 1);
  auto result = exec.ExecuteCount(*plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->timed_out);
}

TEST_F(ExecParityTest, JoinsWithIndexLeavesHonorTimeout) {
  ExecLimits limits;
  limits.timeout_seconds = 0.0;
  for (JoinMethod jm : kJoinMethods) {
    Executor exec(*db_, limits);
    auto result = exec.ExecuteCount(*TwoWayPlan(jm, ScanMethod::kIndexScan));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->timed_out) << JoinMethodName(jm);
  }
}

TEST_F(ExecParityTest, IntermediateCapEnforcedByEveryJoinMethod) {
  ExecLimits limits;
  limits.max_intermediate_tuples = 4;
  for (JoinMethod jm : kJoinMethods) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ExecOptions options;
      options.num_threads = threads;
      Executor exec(*multi_morsel_db_, limits, options);
      auto tuples =
          exec.Materialize(*MultiMorselPlan(jm, ScanMethod::kSeqScan));
      EXPECT_FALSE(tuples.ok())
          << JoinMethodName(jm) << " threads=" << threads;
    }
  }
}

// The cap's verdict at its exact boundary: a join whose output is N tuples
// materializes under max_intermediate_tuples = N and is cut off at N - 1,
// for every join method, serially and with parallel probe morsels. Three
// variants of the plan take both admission paths: an unfiltered inner side
// (every output bound exact, admitted before any tuple is written), the
// filtered inner side (the index-NL bound no longer exact) and an extra
// edge (no bound exact, matches admitted in stages).
TEST_F(ExecParityTest, IntermediateCapHoldsAtItsExactBoundary) {
  for (int variant = 0; variant < 3; ++variant) {
    for (JoinMethod jm : kJoinMethods) {
      auto plan = MultiMorselPlan(jm, ScanMethod::kSeqScan);
      if (variant == 0) plan->right->filters.clear();
      if (variant == 2) {
        plan->extra_edges = {Edge(*multi_morsel_db_, {"r", "w", "s", "w"})};
      }
      auto full = Executor(*multi_morsel_db_).Materialize(*plan);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      const size_t n = full->size();
      ASSERT_GT(n, 0u);
      for (size_t threads : {size_t{1}, size_t{4}}) {
        ExecOptions options;
        options.num_threads = threads;
        ExecLimits at_cap;
        at_cap.max_intermediate_tuples = n;
        ExecLimits below_cap;
        below_cap.max_intermediate_tuples = n - 1;
        auto fits =
            Executor(*multi_morsel_db_, at_cap, options).Materialize(*plan);
        ASSERT_TRUE(fits.ok())
            << JoinMethodName(jm) << " variant=" << variant
            << " threads=" << threads << ": " << fits.status().ToString();
        EXPECT_EQ(fits->data, full->data)
            << JoinMethodName(jm) << " variant=" << variant
            << " threads=" << threads;
        EXPECT_FALSE(Executor(*multi_morsel_db_, below_cap, options)
                         .Materialize(*plan)
                         .ok())
            << JoinMethodName(jm) << " variant=" << variant
            << " threads=" << threads;
      }
    }
  }
}

/// The (left, right) row-id pairs of a two-table join's flat output,
/// sorted: its tuples as a multiset.
std::vector<std::pair<uint32_t, uint32_t>> SortedPairs(
    const std::vector<uint32_t>& data) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (size_t i = 0; i + 1 < data.size(); i += 2) {
    pairs.emplace_back(data[i], data[i + 1]);
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

// The index-nested-loop and merge joins against the nested-loop reference,
// with the inner filter s.f = 1, without and with the extra edge r.w = s.w,
// serially and with parallel probe morsels, at two batch sizes. The index-NL
// join emits the reference's tuples in its (outer tuple, ascending inner
// row) order, so a postings-order slip in the base-table index fails here;
// the merge join emits in key order, so it must match as a multiset.
TEST_F(ExecParityTest, IndexAndMergeJoinsMatchNestedLoopReference) {
  for (JoinMethod jm : {JoinMethod::kIndexNestLoop, JoinMethod::kMergeJoin}) {
    for (bool extra_edge : {false, true}) {
      auto plan = MultiMorselPlan(jm, ScanMethod::kSeqScan);
      if (extra_edge) {
        plan->extra_edges = {Edge(*multi_morsel_db_, {"r", "w", "s", "w"})};
      }
      const std::vector<uint32_t> expected =
          ReferenceJoin(*multi_morsel_db_, *plan).data;
      ASSERT_GT(expected.size(), 0u);
      for (size_t threads : {size_t{1}, size_t{4}}) {
        for (size_t batch : {size_t{7}, size_t{1024}}) {
          ExecOptions options;
          options.num_threads = threads;
          options.batch_size = batch;
          Executor exec(*multi_morsel_db_, ExecLimits(), options);
          auto count = exec.ExecuteCount(*plan);
          auto tuples = exec.Materialize(*plan);
          ASSERT_TRUE(count.ok()) << count.status().ToString();
          ASSERT_TRUE(tuples.ok()) << tuples.status().ToString();
          const std::string config =
              JoinMethodName(jm) + (extra_edge ? " +extra" : "") +
              " threads=" + std::to_string(threads) +
              " batch=" + std::to_string(batch);
          EXPECT_EQ(count->count, expected.size() / 2) << config;
          if (jm == JoinMethod::kIndexNestLoop) {
            EXPECT_EQ(tuples->data, expected) << config;
          } else {
            EXPECT_EQ(SortedPairs(tuples->data), SortedPairs(expected))
                << config;
          }
        }
      }
    }
  }
}

// The hash join against the nested-loop reference: identical tuples in
// identical order, and counts, for both inner scan methods, serially and
// with a parallel build-side pipeline and probe, at several batch sizes.
TEST_F(ExecParityTest, HashJoinMatchesNestedLoopAcrossConfigs) {
  for (ScanMethod sm : kScanMethods) {
    const auto plan = MultiMorselPlan(JoinMethod::kHashJoin, sm);
    const std::vector<uint32_t> expected =
        ReferenceJoin(*multi_morsel_db_, *plan).data;
    ASSERT_GT(expected.size(), 0u);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (size_t batch : {size_t{7}, size_t{1024}}) {
        ExecOptions options;
        options.num_threads = threads;
        options.batch_size = batch;
        Executor exec(*multi_morsel_db_, ExecLimits(), options);
        auto count = exec.ExecuteCount(*plan);
        auto tuples = exec.Materialize(*plan);
        ASSERT_TRUE(count.ok()) << count.status().ToString();
        ASSERT_TRUE(tuples.ok()) << tuples.status().ToString();
        EXPECT_EQ(count->count, expected.size() / 2)
            << ScanMethodName(sm) << " threads=" << threads
            << " batch=" << batch;
        EXPECT_EQ(tuples->data, expected)
            << ScanMethodName(sm) << " threads=" << threads
            << " batch=" << batch;
      }
    }
  }
}

// Extra (non-primary) join edges run through the hash join's per-match
// filter path; the nested-loop reference checks them independently. The
// extra edge r.w = s.w keeps about a quarter of the primary matches.
TEST_F(ExecParityTest, HashJoinExtraEdgesMatchNestedLoop) {
  auto plan = MultiMorselPlan(JoinMethod::kHashJoin, ScanMethod::kSeqScan);
  plan->extra_edges = {Edge(*multi_morsel_db_, {"r", "w", "s", "w"})};
  const std::vector<uint32_t> expected =
      ReferenceJoin(*multi_morsel_db_, *plan).data;
  ASSERT_GT(expected.size(), 0u);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ExecOptions options;
    options.num_threads = threads;
    Executor exec(*multi_morsel_db_, ExecLimits(), options);
    auto count = exec.ExecuteCount(*plan);
    auto tuples = exec.Materialize(*plan);
    ASSERT_TRUE(count.ok() && tuples.ok());
    EXPECT_EQ(count->count, expected.size() / 2) << "threads=" << threads;
    EXPECT_EQ(tuples->data, expected) << "threads=" << threads;
  }
}

// Budget cut-offs must trip in the hash join serially and with parallel
// morsels: an expired wall clock and an exhausted intermediate cap both
// unwind.
TEST_F(ExecParityTest, BudgetCutOffsTripInHashJoin) {
  const auto plan =
      MultiMorselPlan(JoinMethod::kHashJoin, ScanMethod::kSeqScan);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ExecOptions options;
    options.num_threads = threads;

    ExecLimits expired;
    expired.timeout_seconds = 0.0;
    Executor timed(*multi_morsel_db_, expired, options);
    auto result = timed.ExecuteCount(*plan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->timed_out) << "threads=" << threads;

    ExecLimits capped;
    capped.max_intermediate_tuples = 4;
    Executor small(*multi_morsel_db_, capped, options);
    EXPECT_FALSE(small.Materialize(*plan).ok()) << "threads=" << threads;
  }
}

// Multi-join pipelines against the nested-loop reference: an index-NL
// chain with an inner filter and an extra edge, a hash chain whose build
// side is a join (key-count root and postings root), and a merge join
// feeding a hash probe and an index nested loop. Hash and index-NL chains
// must match the reference's tuples in order; a chain over a merge join
// (which emits in key order) as a multiset.
TEST_F(ExecParityTest, ChainsMatchNestedLoopReference) {
  struct Case {
    const char* name;
    std::unique_ptr<PlanNode> plan;
    bool ordered;
  };
  std::vector<Case> cases;
  cases.push_back({"index chain", IndexChainPlan(), true});
  cases.push_back({"hash chain", HashChainPlan(false), true});
  cases.push_back({"hash chain +extra", HashChainPlan(true), true});
  cases.push_back({"merge chain", MergeChainPlan(), false});
  for (const Case& c : cases) {
    const TupleSet expected = ReferenceJoin(*chain_db_, *c.plan);
    ASSERT_GT(expected.size(), 1000u) << c.name;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (size_t batch : {size_t{7}, size_t{1024}}) {
        ExecOptions options;
        options.num_threads = threads;
        options.batch_size = batch;
        Executor exec(*chain_db_, ExecLimits(), options);
        auto count = exec.ExecuteCount(*c.plan);
        auto tuples = exec.Materialize(*c.plan);
        ASSERT_TRUE(count.ok()) << count.status().ToString();
        ASSERT_TRUE(tuples.ok()) << tuples.status().ToString();
        const std::string config = std::string(c.name) +
                                   " threads=" + std::to_string(threads) +
                                   " batch=" + std::to_string(batch);
        EXPECT_FALSE(count->timed_out) << config;
        EXPECT_EQ(count->count, expected.size()) << config;
        EXPECT_EQ(tuples->table_ids, expected.table_ids) << config;
        if (c.ordered) {
          EXPECT_EQ(tuples->data, expected.data) << config;
        } else {
          EXPECT_EQ(SortedTuples(*tuples), SortedTuples(expected)) << config;
        }
      }
    }
  }
}

// Index nested loops with inner filters against the nested-loop reference:
// the same tuples in the same (outer tuple, ascending inner row) order, and
// counts. The inner rows are filtered a chunk of postings at a time; the
// heavy key's run spans three chunks, the filtered columns hold NULLs, and
// the conjunctions of two and three predicates cover every CompareOp. Each
// runs without and with an extra edge, as the root (counting under
// ExecuteCount) and inside a chain (emitting into an unfiltered index
// nested loop), serially and in parallel, at two batch sizes.
TEST_F(ExecParityTest, IndexNestLoopInnerFiltersMatchReference) {
  const Database& db = *index_nl_db_;
  const Table& inner = db.TableOrDie("i");
  ASSERT_EQ(inner.GetIndex(inner.ColumnIndexOrDie("k")).Lookup(0).size(),
            kHeavyRunRows);
  ASSERT_GT(kHeavyRunRows, 2 * kIndexChunkRows);
  const std::vector<std::vector<Predicate>> conjunctions = {
      {{"i", "a", CompareOp::kGe, 20}, {"i", "b", CompareOp::kLt, 7}},
      {{"i", "a", CompareOp::kNeq, 40},
       {"i", "b", CompareOp::kLe, 5},
       {"i", "a", CompareOp::kGt, 10}},
      {{"i", "b", CompareOp::kEq, 3}, {"i", "a", CompareOp::kLt, 90}},
  };
  for (size_t f = 0; f < conjunctions.size(); ++f) {
    for (bool extra_edge : {false, true}) {
      for (bool chain : {false, true}) {
        const auto plan =
            FilteredIndexPlan(conjunctions[f], extra_edge, chain);
        const TupleSet expected = ReferenceJoin(db, *plan);
        ASSERT_GT(expected.size(), kIndexChunkRows);
        for (size_t threads : {size_t{1}, size_t{4}}) {
          for (size_t batch : {size_t{7}, size_t{1024}}) {
            ExecOptions options;
            options.num_threads = threads;
            options.batch_size = batch;
            Executor exec(db, ExecLimits(), options);
            auto count = exec.ExecuteCount(*plan);
            auto tuples = exec.Materialize(*plan);
            ASSERT_TRUE(count.ok()) << count.status().ToString();
            ASSERT_TRUE(tuples.ok()) << tuples.status().ToString();
            const std::string config =
                "filters#" + std::to_string(f) +
                (extra_edge ? " +extra" : "") + (chain ? " chain" : " root") +
                " threads=" + std::to_string(threads) +
                " batch=" + std::to_string(batch);
            EXPECT_EQ(count->count, expected.size()) << config;
            EXPECT_EQ(tuples->data, expected.data) << config;
          }
        }
      }
    }
  }
}

// EXPLAIN ANALYZE over the chains: identical serially and in parallel, one
// entry per node that runs (an index nested loop's inner side never
// does), and each non-root node's actual rows equal to the size of its
// sub-plan's materialization.
TEST_F(ExecParityTest, ChainActualRowsMatchSubplans) {
  ExecOptions parallel;
  parallel.num_threads = 4;
  Executor serial_exec(*chain_db_);
  Executor parallel_exec(*chain_db_, ExecLimits(), parallel);
  for (const auto& plan : {IndexChainPlan(), HashChainPlan(false),
                           HashChainPlan(true), MergeChainPlan()}) {
    auto serial = serial_exec.ExecuteCount(*plan, /*analyze=*/true);
    auto threaded = parallel_exec.ExecuteCount(*plan, /*analyze=*/true);
    ASSERT_TRUE(serial.ok() && threaded.ok());
    EXPECT_EQ(serial->actual_rows, threaded->actual_rows);
    std::vector<const PlanNode*> nodes;
    CollectNodes(*plan, &nodes);
    size_t expected_entries = 0;
    for (const PlanNode* node : nodes) {
      bool inner_of_index_nl = false;
      for (const PlanNode* parent : nodes) {
        inner_of_index_nl |= parent->right.get() == node &&
                             parent->join_method == JoinMethod::kIndexNestLoop;
      }
      if (inner_of_index_nl) {
        EXPECT_EQ(serial->actual_rows.count(node->table_mask), 0u)
            << node->table_mask;
        continue;
      }
      ++expected_entries;
      ASSERT_EQ(serial->actual_rows.count(node->table_mask), 1u)
          << node->table_mask;
      const double rows = serial->actual_rows.at(node->table_mask);
      if (node == plan.get()) {
        EXPECT_EQ(rows, static_cast<double>(serial->count));
        continue;
      }
      auto sub = serial_exec.Materialize(*node);
      ASSERT_TRUE(sub.ok()) << sub.status().ToString();
      EXPECT_EQ(rows, static_cast<double>(sub->size())) << node->table_mask;
    }
    EXPECT_EQ(serial->actual_rows.size(), expected_entries);
  }
}

// The cap under ExecuteCount on a streamed chain: the largest non-root
// join output N fits under max_intermediate_tuples = N, and N - 1 cuts the
// run off with the cap as the reason, serially and in parallel. The root's
// count is never capped.
TEST_F(ExecParityTest, ChainCapHoldsAtLargestIntermediate) {
  for (const auto& plan : {IndexChainPlan(), HashChainPlan(false),
                           HashChainPlan(true), MergeChainPlan()}) {
    auto full = Executor(*chain_db_).ExecuteCount(*plan, /*analyze=*/true);
    ASSERT_TRUE(full.ok());
    std::vector<const PlanNode*> nodes;
    CollectNodes(*plan, &nodes);
    double largest = 0;
    for (const PlanNode* node : nodes) {
      if (node != plan.get() && !node->IsScan() &&
          full->actual_rows.count(node->table_mask) > 0) {
        largest = std::max(largest, full->actual_rows.at(node->table_mask));
      }
    }
    const size_t n = static_cast<size_t>(largest);
    ASSERT_GT(n, 0u);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ExecOptions options;
      options.num_threads = threads;
      ExecLimits at_cap;
      at_cap.max_intermediate_tuples = n;
      ExecLimits below_cap;
      below_cap.max_intermediate_tuples = n - 1;
      auto fits = Executor(*chain_db_, at_cap, options).ExecuteCount(*plan);
      auto cut = Executor(*chain_db_, below_cap, options).ExecuteCount(*plan);
      ASSERT_TRUE(fits.ok() && cut.ok());
      EXPECT_FALSE(fits->timed_out) << "threads=" << threads;
      EXPECT_EQ(fits->count, full->count) << "threads=" << threads;
      EXPECT_TRUE(cut->timed_out) << "threads=" << threads;
      EXPECT_TRUE(cut->cap_exceeded) << "threads=" << threads;
    }
  }
}

// The count-only root hash join: without extra edges it sums key counts of
// its build side, with them it probes postings. Both must count what the
// reference joins: NULL keys join nothing, duplicate keys multiply, and an
// extra edge filters matches (a key-count root would ignore it). The build
// sides, a scan of the hub and the hub joined with d1, span several morsels,
// so parallel runs merge per-worker key counts.
TEST_F(ExecParityTest, KeyCountRootHandlesNullsDuplicatesAndExtraEdges) {
  const Database& db = *chain_db_;
  auto root = [&](std::unique_ptr<PlanNode> build, bool extra) {
    std::vector<JoinEdge> extras;
    if (extra) extras.push_back({"d2", "w", "hub", "w"});
    return Join(db, JoinMethod::kHashJoin, {"d2", "k", "hub", "b"},
                ChainScan("d2", {}, 4), std::move(build), extras);
  };
  auto hub_build = [&] { return ChainScan("hub", {}, 1); };
  auto join_build = [&] {
    return Join(db, JoinMethod::kHashJoin, {"hub", "a", "d1", "k"},
                ChainScan("hub", {}, 1), ChainScan("d1", {}, 2));
  };
  for (bool join_side : {false, true}) {
    const size_t unfiltered =
        ReferenceJoin(db, *root(join_side ? join_build() : hub_build(), false))
            .size();
    for (bool extra : {false, true}) {
      const auto plan = root(join_side ? join_build() : hub_build(), extra);
      const size_t expected = ReferenceJoin(db, *plan).size();
      if (extra) {
        ASSERT_LT(expected, unfiltered);
      }
      for (size_t threads : {size_t{1}, size_t{4}}) {
        for (size_t batch : {size_t{7}, size_t{1024}}) {
          ExecOptions options;
          options.num_threads = threads;
          options.batch_size = batch;
          auto count = Executor(db, ExecLimits(), options)
                           .ExecuteCount(*plan, /*analyze=*/true);
          ASSERT_TRUE(count.ok()) << count.status().ToString();
          const std::string config =
              std::string(join_side ? "join" : "scan") + " build extra=" +
              std::to_string(extra) + " threads=" + std::to_string(threads) +
              " batch=" + std::to_string(batch);
          EXPECT_EQ(count->count, expected) << config;
          EXPECT_EQ(count->actual_rows.at(plan->table_mask),
                    static_cast<double>(expected))
              << config;
        }
      }
    }
  }
}

// Fan-out chains against the nested-loop reference. Later joins key on
// components of tables one or two joins up, so consecutive input tuples
// share keys: each probe reuses the previous lookup, and a count plan keeps
// only the components later joins read. Runs of equal keys hold NULLs and
// cross batches (sizes 1, 3, 1024) and f's morsel boundary. Under
// ExecuteCount the count, every node's EXPLAIN ANALYZE rows (the size of
// its sub-plan's reference) and the cap's verdict at the largest
// intermediate N (fits at N, cut off at N - 1) must match at 1 and 4
// threads; Materialize must return the reference's full-width tuples in
// its order (as a multiset over the merge join, which emits in key order).
TEST_F(ExecParityTest, FanoutChainsReuseLookupsAndKeepNeededComponents) {
  const Database& db = *fanout_db_;
  const Column& fk = db.TableOrDie("f").column(0);
  // A run with a NULL inside spans the morsel boundary, and key 0's run
  // holds a NULL.
  ASSERT_GT(fk.size(), kScanMorselRows);
  ASSERT_TRUE(fk.IsValid(kScanMorselRows - 2) && fk.IsValid(kScanMorselRows));
  ASSERT_EQ(fk.Get(kScanMorselRows - 2), fk.Get(kScanMorselRows));
  ASSERT_FALSE(fk.IsValid(kScanMorselRows - 1));
  ASSERT_EQ(fk.Get(2), 0);
  ASSERT_FALSE(fk.IsValid(3));
  for (const auto& [name, plan] : FanoutPlans()) {
    const TupleSet expected = ReferenceJoin(db, *plan);
    ASSERT_GT(expected.size(), 1000u) << name;
    // Each node that runs (an index nested loop's inner side does not)
    // with its reference size; the largest non-root join sets the cap.
    std::vector<const PlanNode*> nodes;
    CollectNodes(*plan, &nodes);
    std::unordered_map<uint64_t, double> expected_rows;
    size_t largest = 0;
    for (const PlanNode* node : nodes) {
      bool inner_of_index_nl = false;
      for (const PlanNode* parent : nodes) {
        inner_of_index_nl |= parent->right.get() == node &&
                             parent->join_method == JoinMethod::kIndexNestLoop;
      }
      if (inner_of_index_nl) continue;
      const size_t rows = ReferenceJoin(db, *node).size();
      expected_rows[node->table_mask] = static_cast<double>(rows);
      if (node != plan.get() && !node->IsScan()) {
        largest = std::max(largest, rows);
      }
    }
    ASSERT_GT(largest, 0u) << name;
    const bool ordered = name != "merge";
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (size_t batch : {size_t{1}, size_t{3}, size_t{1024}}) {
        ExecOptions options;
        options.num_threads = threads;
        options.batch_size = batch;
        const std::string config = name + " threads=" +
                                   std::to_string(threads) +
                                   " batch=" + std::to_string(batch);
        Executor exec(db, ExecLimits(), options);
        auto count = exec.ExecuteCount(*plan, /*analyze=*/true);
        auto tuples = exec.Materialize(*plan);
        ASSERT_TRUE(count.ok()) << count.status().ToString();
        ASSERT_TRUE(tuples.ok()) << tuples.status().ToString();
        EXPECT_FALSE(count->timed_out) << config;
        EXPECT_EQ(count->count, expected.size()) << config;
        EXPECT_EQ(count->actual_rows, expected_rows) << config;
        EXPECT_EQ(tuples->table_ids, expected.table_ids) << config;
        if (ordered) {
          EXPECT_EQ(tuples->data, expected.data) << config;
        } else {
          EXPECT_EQ(SortedTuples(*tuples), SortedTuples(expected)) << config;
        }
        ExecLimits at_cap;
        at_cap.max_intermediate_tuples = largest;
        ExecLimits below_cap;
        below_cap.max_intermediate_tuples = largest - 1;
        auto fits = Executor(db, at_cap, options).ExecuteCount(*plan);
        auto cut = Executor(db, below_cap, options).ExecuteCount(*plan);
        ASSERT_TRUE(fits.ok() && cut.ok()) << config;
        EXPECT_FALSE(fits->timed_out) << config;
        EXPECT_EQ(fits->count, expected.size()) << config;
        EXPECT_TRUE(cut->timed_out && cut->cap_exceeded) << config;
      }
    }
  }
}

TEST_F(ExecParityTest, ConcurrentCallersShareOneExecutor) {
  // The serving layer calls one Executor from many threads; results must
  // match the single-caller run.
  ExecOptions options;
  options.num_threads = 2;
  Executor exec(*multi_morsel_db_, ExecLimits(), options);
  const auto plan =
      MultiMorselPlan(JoinMethod::kHashJoin, ScanMethod::kSeqScan);
  const uint64_t expected = exec.ExecuteCount(*plan)->count;
  ThreadPool callers(4);
  std::vector<uint64_t> counts(8, 0);
  ParallelFor(callers, counts.size(), [&](size_t i) {
    counts[i] = exec.ExecuteCount(*plan)->count;
  });
  for (uint64_t c : counts) EXPECT_EQ(c, expected);
}

}  // namespace
}  // namespace cardbench
