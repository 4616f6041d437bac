// Batched-estimation parity suite: for every estimator in the zoo, a mask's
// estimate must not depend on the batch that carries it — same doubles
// from EstimateCards over all connected sub-plans (one call per query),
// from the single-mask EstimateCard (a one-mask batch for a batched
// estimator, the one body of a per-mask one), from a strided sub-batch and
// from the reversed batch — and routing the serving layer through the batch
// path must change nothing observable. (The bits themselves are pinned by
// planner_golden_test and fanout_golden_test.) The concurrent case hammers
// the service's batch cache path from several client threads (TSAN
// coverage).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cardest/registry.h"
#include "harness/bench_env.h"
#include "service/estimation_service.h"

namespace cardbench {
namespace {

BenchFlags BatchFlags() {
  BenchFlags flags;
  flags.fast = true;
  flags.scale = 0.05;
  flags.max_queries = 8;
  flags.exec_timeout = 10.0;
  flags.cache_dir = ::testing::TempDir() + "/cardbench_batch_parity_cache";
  flags.training_queries = 100;
  return flags;
}

/// One environment for the whole binary: both the per-estimator fixture and
/// the concurrent service test read from it (const access only).
BenchEnv* SharedEnv() {
  static BenchEnv* env = []() -> BenchEnv* {
    auto created = BenchEnv::Create(BenchDataset::kStats, BatchFlags());
    if (!created.ok()) {
      ADD_FAILURE() << created.status().ToString();
      return nullptr;
    }
    return created->release();
  }();
  return env;
}

class BatchParityTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() { ASSERT_NE(SharedEnv(), nullptr); }
};

TEST_P(BatchParityTest, BatchIsBitIdenticalToScalar) {
  BenchEnv* env = SharedEnv();
  ASSERT_NE(env, nullptr);
  auto est = env->MakeNamedEstimator(GetParam());
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  const CardinalityEstimator& estimator = **est;

  for (const auto& ctx : env->query_contexts()) {
    const QueryGraph& graph = *ctx.graph;
    const std::vector<uint64_t>& subsets = graph.connected_subsets();

    // One batched call over the optimizer's full sub-plan space equals the
    // single-mask call per mask, double-for-double. For a batched estimator
    // that call is a one-mask batch, so this checks batch composition at
    // its smallest.
    const std::vector<double> batch = estimator.EstimateCards(graph, subsets);
    ASSERT_EQ(batch.size(), subsets.size()) << ctx.query->name;
    for (size_t i = 0; i < subsets.size(); ++i) {
      EXPECT_EQ(batch[i], estimator.EstimateCard(graph, subsets[i]))
          << ctx.query->name << " mask " << subsets[i] << " under "
          << GetParam();
    }

    // Batch composition must not matter: the service forwards arbitrary
    // miss subsets, so a strided sub-batch has to reproduce the same
    // values the full batch produced.
    std::vector<uint64_t> strided;
    std::vector<size_t> strided_idx;
    for (size_t i = 0; i < subsets.size(); i += 3) {
      strided.push_back(subsets[i]);
      strided_idx.push_back(i);
    }
    const std::vector<double> partial = estimator.EstimateCards(graph, strided);
    ASSERT_EQ(partial.size(), strided.size());
    for (size_t k = 0; k < strided.size(); ++k) {
      EXPECT_EQ(partial[k], batch[strided_idx[k]])
          << ctx.query->name << " mask " << strided[k] << " under "
          << GetParam();
    }

    // Nor may the order: reversed, the per-query memos fill from the
    // largest sub-plans first.
    const std::vector<uint64_t> reversed(subsets.rbegin(), subsets.rend());
    const std::vector<double> backward =
        estimator.EstimateCards(graph, reversed);
    ASSERT_EQ(backward.size(), reversed.size());
    for (size_t k = 0; k < reversed.size(); ++k) {
      EXPECT_EQ(backward[k], batch[subsets.size() - 1 - k])
          << ctx.query->name << " mask " << reversed[k] << " under "
          << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEstimators, BatchParityTest,
                         ::testing::ValuesIn(AllEstimatorNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Concurrent batch requests against the service's sharded cache: several
// client threads replay every workload query against several estimators,
// repeatedly, so batch lookups, batch fills and LRU touches race on the
// same shards, and the service's workers run the fanout family's inference
// (per-thread arena scratch over shared models) side by side. Every
// response must still equal the direct batch result.
TEST(BatchServiceConcurrencyTest, ConcurrentBatchRequestsMatchDirect) {
  BenchEnv* env = SharedEnv();
  ASSERT_NE(env, nullptr);

  ServiceOptions options;
  options.num_threads = 4;
  options.queue_depth = 64;
  EstimationService service(options);

  const std::vector<std::string> names = {
      "PostgreSQL", "UniSample", "PessEst", "BayesCard", "DeepDB", "FLAT"};
  for (const std::string& name : names) {
    auto est = env->MakeNamedEstimator(name);
    ASSERT_TRUE(est.ok()) << est.status().ToString();
    service.RegisterEstimator(std::move(*est));
  }

  // Ground truth: the direct (unserved, uncached) batch result per
  // (estimator, query).
  const auto& contexts = env->query_contexts();
  std::unordered_map<std::string, std::vector<std::vector<double>>> expected;
  for (const std::string& name : names) {
    const CardinalityEstimator* estimator = service.GetEstimator(name);
    ASSERT_NE(estimator, nullptr);
    auto& per_query = expected[name];
    per_query.reserve(contexts.size());
    for (const auto& ctx : contexts) {
      per_query.push_back(estimator->EstimateCards(
          *ctx.graph, ctx.graph->connected_subsets()));
    }
  }

  constexpr int kClientThreads = 4;
  constexpr int kRounds = 3;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> request_errors{0};
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        for (const std::string& name : names) {
          for (size_t q = 0; q < contexts.size(); ++q) {
            auto cards = service.EstimateQuerySync(name, *contexts[q].graph);
            if (!cards.ok()) {
              request_errors.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            const std::vector<uint64_t>& subsets =
                contexts[q].graph->connected_subsets();
            const std::vector<double>& want = expected[name][q];
            if (cards->size() != subsets.size()) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            for (size_t i = 0; i < subsets.size(); ++i) {
              auto it = cards->find(subsets[i]);
              if (it == cards->end() || it->second != want[i]) {
                mismatches.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(request_errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);

  // The repeated rounds must have been served from the batch cache.
  const EstimateCacheStats stats = service.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

}  // namespace
}  // namespace cardbench
