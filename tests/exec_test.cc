#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <iterator>

#include "datagen/stats_gen.h"
#include "exec/executor.h"
#include "exec/true_card.h"
#include "query/parser.h"
#include "query/query_graph.h"

namespace cardbench {
namespace {

/// Reference COUNT(*) evaluator: recursive nested loops over filtered rows,
/// no indexes, no hashing. Exponential but exact — used as ground truth for
/// the executor on tiny data.
uint64_t BruteForceCount(const Database& db, const Query& q) {
  std::vector<const Table*> tables;
  for (const auto& name : q.tables) tables.push_back(db.FindTable(name));

  std::vector<size_t> rows(q.tables.size());
  uint64_t count = 0;
  std::function<void(size_t)> recurse = [&](size_t t) {
    if (t == q.tables.size()) {
      ++count;
      return;
    }
    const Table& table = *tables[t];
    for (size_t row = 0; row < table.num_rows(); ++row) {
      bool pass = true;
      for (const auto& pred : q.predicates) {
        if (pred.table != q.tables[t]) continue;
        const Column& col = table.ColumnByName(pred.column);
        if (!col.IsValid(row) ||
            !EvalCompare(col.Get(row), pred.op, pred.value)) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      rows[t] = row;
      // Check join edges whose both endpoints are bound.
      for (const auto& edge : q.joins) {
        const int li = q.TableIndex(edge.left_table);
        const int ri = q.TableIndex(edge.right_table);
        if (static_cast<size_t>(std::max(li, ri)) != t) continue;
        const int other = static_cast<size_t>(li) == t ? ri : li;
        const Column& lcol =
            tables[static_cast<size_t>(li)]->ColumnByName(edge.left_column);
        const Column& rcol =
            tables[static_cast<size_t>(ri)]->ColumnByName(edge.right_column);
        const size_t lrow = rows[static_cast<size_t>(li)];
        const size_t rrow = rows[static_cast<size_t>(ri)];
        (void)other;
        if (!lcol.IsValid(lrow) || !rcol.IsValid(rrow) ||
            lcol.Get(lrow) != rcol.Get(rrow)) {
          pass = false;
          break;
        }
      }
      if (pass) recurse(t + 1);
    }
  };
  recurse(0);
  return count;
}

class ExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    StatsGenConfig config;
    config.scale = 0.01;  // tiny: brute force must stay feasible
    db_ = GenerateStatsDatabase(config).release();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static Query Parse(const std::string& sql) {
    auto q = ParseSql(sql);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *q;
  }

  /// The greedy counting plan of the whole query `q`.
  static std::unique_ptr<PlanNode> CountingPlan(const TrueCardService& svc,
                                                const Query& q) {
    const QueryGraph graph(q, *db_);
    return svc.BuildCountingPlan(graph, graph.full_mask());
  }

  static Database* db_;
};

Database* ExecTest::db_ = nullptr;

TEST_F(ExecTest, SingleTableScanMatchesBruteForce) {
  const Query q =
      Parse("SELECT COUNT(*) FROM users WHERE users.Reputation >= 50;");
  TrueCardService svc(*db_);
  auto plan = CountingPlan(svc, q);
  Executor exec(*db_);
  auto result = exec.ExecuteCount(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->count, BruteForceCount(*db_, q));
}

TEST_F(ExecTest, NullsNeverSatisfyPredicates) {
  // FavoriteCount is NULL for most posts; both <= and > exclude NULLs, so
  // the two counts must sum to the non-NULL count, not the table size.
  const Query le =
      Parse("SELECT COUNT(*) FROM posts WHERE posts.FavoriteCount <= 7;");
  const Query gt =
      Parse("SELECT COUNT(*) FROM posts WHERE posts.FavoriteCount > 7;");
  TrueCardService svc(*db_);
  const double non_null = static_cast<double>(
      db_->TableOrDie("posts").num_rows() -
      db_->TableOrDie("posts").ColumnByName("FavoriteCount").null_count());
  auto a = svc.Card(le);
  auto b = svc.Card(gt);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(*a + *b, non_null);
  EXPECT_LT(*a + *b, static_cast<double>(db_->TableOrDie("posts").num_rows()));
}

TEST_F(ExecTest, TwoWayJoinMatchesBruteForce) {
  const Query q = Parse(
      "SELECT COUNT(*) FROM users, badges WHERE users.Id = badges.UserId AND "
      "users.Reputation >= 20;");
  TrueCardService svc(*db_);
  auto card = svc.Card(q);
  ASSERT_TRUE(card.ok());
  EXPECT_EQ(static_cast<uint64_t>(*card), BruteForceCount(*db_, q));
}

TEST_F(ExecTest, ThreeWayChainJoinMatchesBruteForce) {
  const Query q = Parse(
      "SELECT COUNT(*) FROM users, posts, comments WHERE users.Id = "
      "posts.OwnerUserId AND posts.Id = comments.PostId AND posts.Score >= 4 "
      "AND users.Views >= 2 AND comments.Score >= 1;");
  TrueCardService svc(*db_);
  auto card = svc.Card(q);
  ASSERT_TRUE(card.ok());
  EXPECT_EQ(static_cast<uint64_t>(*card), BruteForceCount(*db_, q));
}

TEST_F(ExecTest, ParallelEdgesBecomeExtraJoinFilters) {
  // Two join conditions between the same pair of tables: the second edge
  // is evaluated as a post-join filter by every join algorithm.
  const Query q = Parse(
      "SELECT COUNT(*) FROM users, posts WHERE users.Id = posts.OwnerUserId "
      "AND users.Id = posts.LastEditorUserId;");
  TrueCardService svc(*db_);
  auto plan = CountingPlan(svc, q);
  ASSERT_FALSE(plan->IsScan());
  ASSERT_EQ(plan->extra_edges.size(), 1u);
  const uint64_t expected = BruteForceCount(*db_, q);
  for (JoinMethod method : {JoinMethod::kHashJoin, JoinMethod::kMergeJoin,
                            JoinMethod::kIndexNestLoop}) {
    plan->join_method = method;
    auto result = Executor(*db_).ExecuteCount(*plan);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->count, expected) << JoinMethodName(method);
  }
}

TEST_F(ExecTest, FkFkJoinMatchesBruteForce) {
  // Many-to-many join of two fact tables on a shared FK domain.
  const Query q = Parse(
      "SELECT COUNT(*) FROM comments, badges WHERE comments.UserId = "
      "badges.UserId AND comments.Score >= 2;");
  TrueCardService svc(*db_);
  auto card = svc.Card(q);
  ASSERT_TRUE(card.ok());
  EXPECT_EQ(static_cast<uint64_t>(*card), BruteForceCount(*db_, q));
}

// All three physical join algorithms must produce identical counts.
class JoinMethodTest : public ExecTest,
                       public ::testing::WithParamInterface<JoinMethod> {};

TEST_P(JoinMethodTest, AgreesWithHashJoinReference) {
  const Query q = Parse(
      "SELECT COUNT(*) FROM users, comments WHERE users.Id = comments.UserId "
      "AND comments.Score >= 1;");
  TrueCardService svc(*db_);
  auto plan = CountingPlan(svc, q);
  ASSERT_FALSE(plan->IsScan());
  auto reference = Executor(*db_).ExecuteCount(*plan);
  ASSERT_TRUE(reference.ok());

  // The greedy counting plan keeps the inner side a base-table scan, which
  // is what index nested loop requires; the executor builds the inner-side
  // index on the join column on demand.
  plan->join_method = GetParam();
  auto result = Executor(*db_).ExecuteCount(*plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->count, reference->count);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, JoinMethodTest,
                         ::testing::Values(JoinMethod::kHashJoin,
                                           JoinMethod::kMergeJoin,
                                           JoinMethod::kIndexNestLoop));

TEST_F(ExecTest, MaterializeMatchesCount) {
  const Query q = Parse(
      "SELECT COUNT(*) FROM users, badges WHERE users.Id = badges.UserId AND "
      "badges.Date >= 100000;");
  TrueCardService svc(*db_);
  auto plan = CountingPlan(svc, q);
  Executor exec(*db_);
  auto count = exec.ExecuteCount(*plan);
  auto tuples = exec.Materialize(*plan);
  ASSERT_TRUE(count.ok());
  ASSERT_TRUE(tuples.ok()) << tuples.status().ToString();
  EXPECT_EQ(tuples->size(), count->count);
  EXPECT_EQ(tuples->arity(), 2u);
}

TEST_F(ExecTest, TimeoutReportsTimedOut) {
  ExecLimits limits;
  limits.timeout_seconds = 0.0;  // expire immediately
  const Query q = Parse(
      "SELECT COUNT(*) FROM users, comments WHERE users.Id = "
      "comments.UserId;");
  TrueCardService svc(*db_);
  auto plan = CountingPlan(svc, q);
  Executor exec(*db_, limits);
  auto result = exec.ExecuteCount(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->timed_out);
}

TEST_F(ExecTest, IntermediateCapReportsTimedOut) {
  ExecLimits limits;
  limits.max_intermediate_tuples = 4;
  const Query q = Parse(
      "SELECT COUNT(*) FROM users, posts, comments WHERE users.Id = "
      "posts.OwnerUserId AND posts.Id = comments.PostId;");
  TrueCardService svc(*db_);
  auto plan = CountingPlan(svc, q);
  Executor exec(*db_, limits);
  auto result = exec.ExecuteCount(*plan);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->timed_out);
}

// Malformed plans: ExecuteCount and Materialize share every check, so both
// reject a plan with the same error code.
void ExpectBothReject(const Database& db, const PlanNode& plan,
                      StatusCode code) {
  Executor exec(db);
  auto count = exec.ExecuteCount(plan);
  auto tuples = exec.Materialize(plan);
  ASSERT_FALSE(count.ok()) << "ExecuteCount accepted the plan";
  ASSERT_FALSE(tuples.ok()) << "Materialize accepted the plan";
  EXPECT_EQ(count.status().code(), code) << count.status().ToString();
  EXPECT_EQ(tuples.status().code(), code) << tuples.status().ToString();
}

// users(0), posts(1), comments(2), badges(3); edges users-posts,
// posts-comments, users-badges in that order.
constexpr char kFourWaySql[] =
    "SELECT COUNT(*) FROM users, posts, comments, badges WHERE users.Id = "
    "posts.OwnerUserId AND posts.Id = comments.PostId AND users.Id = "
    "badges.UserId;";

std::unique_ptr<PlanNode> JoinNode(JoinMethod method, const PlanEdge& edge,
                                   std::unique_ptr<PlanNode> left,
                                   std::unique_ptr<PlanNode> right) {
  auto join = std::make_unique<PlanNode>();
  join->type = PlanNode::Type::kJoin;
  join->join_method = method;
  join->edge = edge;
  join->table_mask = left->table_mask | right->table_mask;
  join->left = std::move(left);
  join->right = std::move(right);
  return join;
}

TEST_F(ExecTest, IndexNestLoopOverAJoinIsRejectedByBothPaths) {
  const QueryGraph graph(Parse(kFourWaySql), *db_);
  TrueCardService svc(*db_);
  // users index-NL (posts ⋈ comments): the inner side is not a base table.
  auto malformed = JoinNode(JoinMethod::kIndexNestLoop,
                            PlanEdge::Of(graph.edges()[0]),
                            svc.BuildCountingPlan(graph, 0b0001),
                            svc.BuildCountingPlan(graph, 0b0110));
  ExpectBothReject(*db_, *malformed, StatusCode::kInvalidArgument);

  auto wrapped = JoinNode(JoinMethod::kHashJoin,
                          PlanEdge::Of(graph.edges()[2]),
                          std::move(malformed),
                          svc.BuildCountingPlan(graph, 0b1000));
  ExpectBothReject(*db_, *wrapped, StatusCode::kInvalidArgument);
}

TEST_F(ExecTest, IndexScanWithoutLeadingEqualityIsRejectedByBothPaths) {
  const QueryGraph graph(
      Parse("SELECT COUNT(*) FROM users WHERE users.Reputation >= 20;"),
      *db_);
  auto scan = TrueCardService(*db_).BuildCountingPlan(graph, 1);
  scan->scan_method = ScanMethod::kIndexScan;
  ExpectBothReject(*db_, *scan, StatusCode::kInvalidArgument);
  scan->filters.clear();
  ExpectBothReject(*db_, *scan, StatusCode::kInvalidArgument);
}

TEST_F(ExecTest, OutOfRangeTableIdIsRejectedByBothPaths) {
  const QueryGraph graph(Parse(kFourWaySql), *db_);
  TrueCardService svc(*db_);
  const int bad_table = static_cast<int>(db_->num_tables());
  auto scan = svc.BuildCountingPlan(graph, 0b0001);
  scan->filters.clear();
  scan->table_id = bad_table;
  ExpectBothReject(*db_, *scan, StatusCode::kNotFound);

  auto join = svc.BuildCountingPlan(graph, 0b0011);
  join->edge.right.table_id = bad_table;
  ExpectBothReject(*db_, *join, StatusCode::kInvalidArgument);
}

TEST_F(ExecTest, OutOfRangeColumnIdIsRejectedByBothPaths) {
  const QueryGraph graph(
      Parse("SELECT COUNT(*) FROM users, posts WHERE users.Id = "
            "posts.OwnerUserId AND users.Reputation >= 20;"),
      *db_);
  TrueCardService svc(*db_);
  const int bad_column =
      static_cast<int>(db_->TableOrDie("users").num_columns());
  auto scan = svc.BuildCountingPlan(graph, 0b01);
  ASSERT_EQ(scan->filters.size(), 1u);
  scan->filters[0].column_id = bad_column;
  ExpectBothReject(*db_, *scan, StatusCode::kInvalidArgument);

  auto join = svc.BuildCountingPlan(graph, 0b11);
  join->edge.left.column_id = bad_column;
  for (JoinMethod method : {JoinMethod::kHashJoin, JoinMethod::kMergeJoin,
                            JoinMethod::kIndexNestLoop}) {
    join->join_method = method;
    ExpectBothReject(*db_, *join, StatusCode::kInvalidArgument);
  }
}

TEST_F(ExecTest, TrueCardServiceCachesResults) {
  const Query q =
      Parse("SELECT COUNT(*) FROM users WHERE users.Reputation >= 10;");
  TrueCardService svc(*db_);
  ASSERT_TRUE(svc.Card(q).ok());
  const size_t size_after_first = svc.cache_size();
  ASSERT_TRUE(svc.Card(q).ok());
  EXPECT_EQ(svc.cache_size(), size_after_first);
}

TEST_F(ExecTest, AllSubplanCardsCoversConnectedSubsets) {
  const Query q = Parse(
      "SELECT COUNT(*) FROM users, posts, comments WHERE users.Id = "
      "posts.OwnerUserId AND posts.Id = comments.PostId;");
  TrueCardService svc(*db_);
  auto cards = svc.AllSubplanCards(QueryGraph(q, *db_));
  ASSERT_TRUE(cards.ok());
  EXPECT_EQ(cards->size(), EnumerateConnectedSubsets(q).size());
  // Monotonicity sanity: the filtered base card of `users` is bounded by
  // the table size.
  EXPECT_LE(cards->at(1),
            static_cast<double>(db_->TableOrDie("users").num_rows()));
}

TEST_F(ExecTest, CacheRoundTripsThroughDisk) {
  const Query q =
      Parse("SELECT COUNT(*) FROM badges WHERE badges.Date >= 500;");
  TrueCardService svc(*db_);
  auto card = svc.Card(q);
  ASSERT_TRUE(card.ok());
  const std::string path = ::testing::TempDir() + "/true_card_cache.tsv";
  ASSERT_TRUE(svc.SaveCache(path).ok());
  TrueCardService svc2(*db_);
  ASSERT_TRUE(svc2.LoadCache(path).ok());
  EXPECT_EQ(svc2.cache_size(), svc.cache_size());
  auto card2 = svc2.Card(q);
  ASSERT_TRUE(card2.ok());
  EXPECT_DOUBLE_EQ(*card2, *card);
}

TEST_F(ExecTest, MalformedCacheLineFailsTheLoadAndLoadsNothing) {
  const std::string path = ::testing::TempDir() + "/true_card_malformed.tsv";
  // One bad line after a good one: the whole file is rejected.
  for (const char* contents : {
           "a\t12\nb\t\n",     // empty value
           "a\t12\nb\t1x\n",   // trailing garbage
           "a\t12\nno tab\n",  // no separator
           "a\t12\nb\t-3\n",   // negative count
           "a\t12\nb\t1",      // torn last line
       }) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << contents;
    }
    TrueCardService svc(*db_);
    Status status;
    EXPECT_NO_THROW(status = svc.LoadCache(path)) << contents;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << contents;
    EXPECT_EQ(svc.cache_size(), 0u) << contents;
  }
}

TEST_F(ExecTest, CacheSaveReplacesTheFileAtomically) {
  const std::string path = ::testing::TempDir() + "/true_card_atomic.tsv";
  TrueCardService first(*db_);
  ASSERT_TRUE(
      first.Card(Parse("SELECT COUNT(*) FROM badges WHERE badges.Date >= 500;"))
          .ok());
  ASSERT_TRUE(first.SaveCache(path).ok());
  // A loader in another process that opened the file before the next save.
  std::ifstream early_reader(path, std::ios::binary);
  ASSERT_TRUE(early_reader.is_open());

  TrueCardService second(*db_);
  ASSERT_TRUE(second.LoadCache(path).ok());
  const Query q =
      Parse("SELECT COUNT(*) FROM users WHERE users.Reputation >= 10;");
  auto card = second.Card(q);
  ASSERT_TRUE(card.ok());
  ASSERT_TRUE(second.SaveCache(path).ok());

  // The early reader still sees the complete first save, not a file
  // truncated and rewritten under it.
  const std::string early((std::istreambuf_iterator<char>(early_reader)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(static_cast<size_t>(std::count(early.begin(), early.end(), '\n')),
            first.cache_size());

  // A fresh load round-trips the second save exactly.
  TrueCardService reloaded(*db_);
  ASSERT_TRUE(reloaded.LoadCache(path).ok());
  EXPECT_EQ(reloaded.cache_size(), second.cache_size());
  auto reloaded_card = reloaded.Card(q);
  ASSERT_TRUE(reloaded_card.ok());
  EXPECT_EQ(*reloaded_card, *card);
}

// A cap cut-off is memoized as a verdict with the cap it exceeded, and the
// verdict survives SaveCache / LoadCache and ImportFrom.
TEST_F(ExecTest, CapVerdictsRoundTripThroughDiskAndImport) {
  const Query q = Parse(
      "SELECT COUNT(*) FROM users, posts, comments WHERE users.Id = "
      "posts.OwnerUserId AND posts.Id = comments.PostId;");
  ExecLimits limits = TrueCardService::DefaultLimits();
  limits.max_intermediate_tuples = 4;
  TrueCardService svc(*db_, limits);
  const auto first = svc.Card(q);
  ASSERT_EQ(first.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(first.status().message().find("cap"), std::string::npos)
      << first.status().ToString();
  EXPECT_EQ(svc.verdict_count(), 1u);
  EXPECT_EQ(svc.cache_size(), 0u);

  const std::string path = ::testing::TempDir() + "/true_card_verdicts.tsv";
  ASSERT_TRUE(svc.SaveCache(path).ok());
  TrueCardService loaded(*db_, limits);
  ASSERT_TRUE(loaded.LoadCache(path).ok());
  EXPECT_EQ(loaded.verdict_count(), 1u);
  EXPECT_EQ(loaded.Card(q).status().code(), StatusCode::kOutOfRange);

  TrueCardService imported(*db_, limits);
  imported.ImportFrom(loaded);
  EXPECT_EQ(imported.verdict_count(), 1u);

  // The cardinality file itself holds no verdict line: code that reads only
  // cardinalities reads it unchanged.
  std::ifstream cards(path, std::ios::binary);
  const std::string contents((std::istreambuf_iterator<char>(cards)),
                             std::istreambuf_iterator<char>());
  EXPECT_TRUE(contents.empty()) << contents;
}

/// Writes `cards` to `path` and `verdicts` to its verdict file.
void WriteMemoFiles(const std::string& path, const std::string& cards,
                    const std::string& verdicts) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << cards;
  std::ofstream(TrueCardService::VerdictPath(path),
                std::ios::binary | std::ios::trunc)
      << verdicts;
}

// A verdict recorded under a 30M cap answers services whose cap is 20M or
// 30M without executing anything (the query itself is tiny and would
// count fine), and leaves a 50M service to execute.
TEST_F(ExecTest, CapVerdictAnswersOnlyServicesWithNoLargerCap) {
  const Query q =
      Parse("SELECT COUNT(*) FROM badges WHERE badges.Date >= 500;");
  const std::string path = ::testing::TempDir() + "/true_card_cap30m.tsv";
  WriteMemoFiles(path, "", q.CanonicalKey() + "\t30000000\n");
  for (size_t cap : {size_t{20000000}, size_t{30000000}, size_t{50000000}}) {
    ExecLimits limits = TrueCardService::DefaultLimits();
    limits.max_intermediate_tuples = cap;
    TrueCardService svc(*db_, limits);
    ASSERT_TRUE(svc.LoadCache(path).ok());
    const auto card = svc.Card(q);
    if (cap <= 30000000) {
      EXPECT_EQ(card.status().code(), StatusCode::kOutOfRange) << cap;
      EXPECT_EQ(svc.cache_size(), 0u) << cap;
    } else {
      ASSERT_TRUE(card.ok()) << card.status().ToString();
      EXPECT_GT(*card, 0.0);
    }
  }
}

// A verdict is an answer, not a run: a service whose wall clock is already
// exhausted still reports the cap verdict rather than a timeout.
TEST_F(ExecTest, CapVerdictIsAnsweredWithoutExecuting) {
  const Query q =
      Parse("SELECT COUNT(*) FROM badges WHERE badges.Date >= 500;");
  const std::string path = ::testing::TempDir() + "/true_card_expired.tsv";
  WriteMemoFiles(path, "", q.CanonicalKey() + "\t30000000\n");
  ExecLimits expired = TrueCardService::DefaultLimits();
  expired.timeout_seconds = 0.0;
  expired.max_intermediate_tuples = 20000000;
  TrueCardService svc(*db_, expired);
  ASSERT_TRUE(svc.LoadCache(path).ok());
  const auto card = svc.Card(q);
  ASSERT_EQ(card.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(card.status().message().find("cap"), std::string::npos)
      << card.status().ToString();
  EXPECT_EQ(card.status().message().find("time"), std::string::npos)
      << card.status().ToString();
}

// The wall clock's verdict depends on the machine and its load, so a
// timeout memoizes nothing.
TEST_F(ExecTest, WallClockCutOffIsNotMemoized) {
  const Query q = Parse(
      "SELECT COUNT(*) FROM users, comments WHERE users.Id = "
      "comments.UserId;");
  ExecLimits expired = TrueCardService::DefaultLimits();
  expired.timeout_seconds = 0.0;
  TrueCardService svc(*db_, expired);
  const auto card = svc.Card(q);
  ASSERT_EQ(card.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(card.status().message().find("time"), std::string::npos)
      << card.status().ToString();
  EXPECT_EQ(svc.verdict_count(), 0u);
  EXPECT_EQ(svc.cache_size(), 0u);
  // A service with room to run still counts it.
  TrueCardService fresh(*db_);
  fresh.ImportFrom(svc);
  EXPECT_TRUE(fresh.Card(q).ok());
}

TEST_F(ExecTest, MalformedVerdictLineFailsTheLoadAndLoadsNothing) {
  const std::string path = ::testing::TempDir() + "/true_card_bad_cap.tsv";
  for (const char* verdicts : {
           "a\t30\nb\t\n",                          // empty cap
           "a\t30\nb\t-3\n",                        // negative cap
           "a\t30\nb\t 3\n",                        // leading blank
           "a\t30\nb\t3.5\n",                       // not an integer
           "a\t30\nb\t99999999999999999999999\n",   // out of range
           "a\t30\nno tab\n",                        // no separator
           "a\t30\nb\t3",                            // torn last line
       }) {
    WriteMemoFiles(path, "c\t12\n", verdicts);
    TrueCardService svc(*db_);
    EXPECT_EQ(svc.LoadCache(path).code(), StatusCode::kInvalidArgument)
        << verdicts;
    EXPECT_EQ(svc.cache_size(), 0u) << verdicts;
    EXPECT_EQ(svc.verdict_count(), 0u) << verdicts;
  }
}

}  // namespace
}  // namespace cardbench
