#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "harness/bench_env.h"

namespace cardbench {
namespace {

BenchFlags SmokeFlags() {
  BenchFlags flags;
  flags.fast = true;
  flags.scale = 0.05;
  flags.max_queries = 8;
  flags.exec_timeout = 10.0;
  flags.cache_dir = ::testing::TempDir() + "/cardbench_harness_cache";
  flags.training_queries = 100;
  return flags;
}

TEST(BenchFlagsTest, ParsesAllFlags) {
  const char* argv[] = {"prog",
                        "--fast",
                        "--scale=0.25",
                        "--max-queries=17",
                        "--exec-timeout=3.5",
                        "--estimators=PostgreSQL,FLAT",
                        "--training-queries=50",
                        "--seed=9"};
  const BenchFlags flags =
      ParseBenchFlags(8, const_cast<char**>(argv));
  EXPECT_TRUE(flags.fast);
  EXPECT_DOUBLE_EQ(flags.scale, 0.25);
  EXPECT_EQ(flags.max_queries, 17u);
  EXPECT_DOUBLE_EQ(flags.exec_timeout, 3.5);
  ASSERT_EQ(flags.estimators.size(), 2u);
  EXPECT_EQ(flags.estimators[1], "FLAT");
  EXPECT_EQ(flags.training_queries, 50u);
  EXPECT_EQ(flags.seed, 9u);
}

TEST(BenchFlagsTest, ParsesEveryNumericFlag) {
  const char* argv[] = {"prog",
                        "--scale=1e-1",
                        "--exec-repeats=5",
                        "--threads=1024",
                        "--queue-depth=3",
                        "--exec-threads=2",
                        "--batch-size=7",
                        "--seed=18446744073709551615"};
  const BenchFlags flags = ParseBenchFlags(8, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.scale, 0.1);
  EXPECT_EQ(flags.exec_repeats, 5u);
  EXPECT_EQ(flags.threads, 1024u);
  EXPECT_EQ(flags.queue_depth, 3u);
  EXPECT_EQ(flags.exec_threads, 2u);
  EXPECT_EQ(flags.batch_size, 7u);
  EXPECT_EQ(flags.seed, 18446744073709551615u);
}

/// Runs ParseBenchFlags on the single argument `arg` (death-test body).
void ParseOne(const std::string& arg) {
  const char* argv[] = {"prog", arg.c_str()};
  (void)ParseBenchFlags(2, const_cast<char**>(argv));
}

// Every numeric flag rejects a malformed, a negative and a trailing-garbage
// value with a usage error and exit status 2 — no uncaught exception, no
// wrap-around of "-1", no silent prefix parse of "12abc".
TEST(BenchFlagsDeathTest, BadNumericValuesExitWithUsageError) {
  for (const char* flag :
       {"--scale=", "--max-queries=", "--exec-timeout=",
        "--training-queries=", "--exec-repeats=", "--threads=",
        "--queue-depth=", "--exec-threads=", "--batch-size=", "--seed=",
        "--verbose="}) {
    for (const char* value : {"abc", "-1", "12abc", ""}) {
      const std::string arg = std::string(flag) + value;
      EXPECT_EXIT(ParseOne(arg), ::testing::ExitedWithCode(2), "must be")
          << arg;
    }
  }
}

// Values that parse but fall outside a flag's range are rejected too.
TEST(BenchFlagsDeathTest, OutOfRangeValuesExitWithUsageError) {
  for (const char* arg :
       {"--scale=0", "--scale=inf", "--scale=nan", "--scale=+1",
        "--scale= 1", "--exec-timeout=-0.5", "--exec-timeout=0",
        "--exec-repeats=0", "--threads=0", "--threads=1025",
        "--queue-depth=0", "--exec-threads=0", "--exec-threads=1025",
        "--batch-size=0", "--batch-size=1048577",
        "--seed=18446744073709551616", "--verbose=3"}) {
    EXPECT_EXIT(ParseOne(arg), ::testing::ExitedWithCode(2), "must be")
        << arg;
  }
}

TEST(BenchEnvTest, EndToEndSmoke) {
  const BenchFlags flags = SmokeFlags();
  auto env_result = BenchEnv::Create(BenchDataset::kStats, flags);
  ASSERT_TRUE(env_result.ok()) << env_result.status().ToString();
  BenchEnv& env = **env_result;

  EXPECT_EQ(env.dataset_name(), "STATS");
  EXPECT_GT(env.query_contexts().size(), 0u);
  EXPECT_LE(env.query_contexts().size(), flags.max_queries);

  // Every context holds the full sub-plan card map and a positive
  // true-plan cost.
  for (const auto& ctx : env.query_contexts()) {
    EXPECT_EQ(ctx.true_cards.size(),
              EnumerateConnectedSubsets(*ctx.query).size());
    EXPECT_GT(ctx.true_plan_cost, 0.0);
  }

  // Oracle run: executes exactly, P-Error == 1 for every query.
  auto oracle = env.MakeNamedEstimator("TrueCard");
  ASSERT_TRUE(oracle.ok());
  const auto run = env.RunEstimator(**oracle);
  ASSERT_EQ(run.queries.size(), env.query_contexts().size());
  for (const auto& q : run.queries) {
    EXPECT_NEAR(q.p_error, 1.0, 1e-9) << q.query_name;
    EXPECT_FALSE(q.timed_out);
    // Oracle sub-plan Q-Errors are all exactly 1.
    for (double qe : q.subplan_qerrors) EXPECT_DOUBLE_EQ(qe, 1.0);
  }

  // A real estimator run: P-Error >= 1, inference time accounted.
  auto pg = env.MakeNamedEstimator("PostgreSQL");
  ASSERT_TRUE(pg.ok());
  const auto pg_run = env.RunEstimator(**pg);
  for (const auto& q : pg_run.queries) {
    EXPECT_GE(q.p_error, 1.0 - 1e-9);
    EXPECT_GE(q.plan_seconds, q.inference_seconds);
    EXPECT_GT(q.num_estimates, 0u);
  }
  EXPECT_GT(pg_run.EndToEndSeconds(), 0.0);
  EXPECT_FALSE(pg_run.AllQErrors().empty());
}

TEST(BenchEnvTest, TrueCardCachePersistsAcrossEnvs) {
  const BenchFlags flags = SmokeFlags();
  std::filesystem::remove_all(flags.cache_dir);
  {
    auto env = BenchEnv::Create(BenchDataset::kStats, flags);
    ASSERT_TRUE(env.ok());
  }
  // Second creation must find the cache file on disk.
  bool found = false;
  for (const auto& entry :
       std::filesystem::directory_iterator(flags.cache_dir)) {
    found |= entry.path().extension() == ".tsv";
  }
  EXPECT_TRUE(found);
  auto env = BenchEnv::Create(BenchDataset::kStats, flags);
  ASSERT_TRUE(env.ok());
  EXPECT_GT((*env)->truecard().cache_size(), 0u);
}

}  // namespace
}  // namespace cardbench
