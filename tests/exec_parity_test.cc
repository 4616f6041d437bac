#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "datagen/stats_gen.h"
#include "exec/executor.h"
#include "exec/join_hash.h"
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
/// Two fixtures: STATS at scale 0.01 (real schema and data, but every scan,
/// probe and build input fits in one morsel), and a synthetic two-table
/// database whose scan, probe and build inputs each span at least three
/// morsels, so multi-thread runs take the executor's parallel scan, build
/// and probe branches and their morsel-order concatenation.
class ExecParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatsGenConfig config;
    config.scale = 0.01;
    db_ = GenerateStatsDatabase(config).release();
    multi_morsel_db_ = MakeMultiMorselDatabase().release();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    delete multi_morsel_db_;
    multi_morsel_db_ = nullptr;
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

  static Database* db_;
  static Database* multi_morsel_db_;
};

Database* ExecParityTest::db_ = nullptr;
Database* ExecParityTest::multi_morsel_db_ = nullptr;

/// Reference hash join: a nested loop over the materialized scan inputs of
/// the two-leaf `plan`, whose edges have the left leaf's table on their
/// left. For every probe (left) tuple in order it emits every build (right)
/// tuple, in ascending order, whose primary and extra edge columns are all
/// non-NULL and equal — the (probe tuple, ascending build row) order the
/// hash join promises. Returns the combined tuples' row ids, row-major.
std::vector<uint32_t> NestedLoopJoin(const Database& db,
                                     const PlanNode& plan) {
  Executor leaves(db);
  const TupleSet left = leaves.Materialize(*plan.left).value();
  const TupleSet right = leaves.Materialize(*plan.right).value();
  // Each edge endpoint's value per input tuple, gathered once; NULL stays
  // nullopt, and nullopt never equals a value.
  auto gather = [&db](const TupleSet& ts, CatalogColumn ref) {
    const Column& col = *db.ColumnById(ref.table_id, ref.column_id);
    std::vector<std::optional<Value>> values(ts.size());
    for (size_t t = 0; t < ts.size(); ++t) {
      if (col.IsValid(ts.Row(t, 0))) values[t] = col.Get(ts.Row(t, 0));
    }
    return values;
  };
  std::vector<PlanEdge> edges = {plan.edge};
  edges.insert(edges.end(), plan.extra_edges.begin(), plan.extra_edges.end());
  std::vector<std::vector<std::optional<Value>>> lvals, rvals;
  for (const PlanEdge& e : edges) {
    lvals.push_back(gather(left, e.left));
    rvals.push_back(gather(right, e.right));
  }
  // The build tuples with a non-NULL primary key, ascending, with their
  // keys in a flat array: the inner loop's only per-iteration load.
  std::vector<Value> build_keys;
  std::vector<size_t> build_tuples;
  for (size_t r = 0; r < right.size(); ++r) {
    if (!rvals[0][r].has_value()) continue;
    build_keys.push_back(*rvals[0][r]);
    build_tuples.push_back(r);
  }
  std::vector<uint32_t> out;
  for (size_t l = 0; l < left.size(); ++l) {
    if (!lvals[0][l].has_value()) continue;
    const Value key = *lvals[0][l];
    for (size_t j = 0; j < build_keys.size(); ++j) {
      if (build_keys[j] != key) continue;
      const size_t r = build_tuples[j];
      bool match = true;
      for (size_t e = 1; e < edges.size() && match; ++e) {
        match = lvals[e][l].has_value() && rvals[e][r] == lvals[e][l];
      }
      if (!match) continue;
      out.push_back(left.Row(l, 0));
      out.push_back(right.Row(r, 0));
    }
  }
  return out;
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
    EXPECT_GT(build->size(), 2 * kBuildMorselRows) << ScanMethodName(sm);
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
          NestedLoopJoin(*multi_morsel_db_, *plan);
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
// with parallel build and probe morsels, at several batch sizes.
TEST_F(ExecParityTest, RadixJoinBitIdenticalToLegacyAcrossConfigs) {
  for (ScanMethod sm : kScanMethods) {
    const auto plan = MultiMorselPlan(JoinMethod::kHashJoin, sm);
    const std::vector<uint32_t> expected =
        NestedLoopJoin(*multi_morsel_db_, *plan);
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
TEST_F(ExecParityTest, ExtraEdgesAgreeAcrossJoinImpls) {
  auto plan = MultiMorselPlan(JoinMethod::kHashJoin, ScanMethod::kSeqScan);
  plan->extra_edges = {Edge(*multi_morsel_db_, {"r", "w", "s", "w"})};
  const std::vector<uint32_t> expected =
      NestedLoopJoin(*multi_morsel_db_, *plan);
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
TEST_F(ExecParityTest, BudgetCutOffsTripUnderBothJoinImpls) {
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
