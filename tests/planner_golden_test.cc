// Planner golden suite: every estimator of the zoo must reproduce the
// checked-in goldens (tests/golden/planner_golden.txt, line format in
// tools/planner_golden.h) bit for bit, for every workload query of the
// golden environment:
//  - each connected sub-plan's estimate, through the batched EstimateCards,
//    through the Query overload on the induced sub-query, and as the
//    (clamped) cardinality Optimizer::Plan injects;
//  - the plan Optimizer::Plan(graph) chooses (EXPLAIN fingerprint), its
//    cost and its P-Error.
// The goldens were generated while each estimator still had a second,
// string-based estimation body and the optimizer a second, string-based
// planner, which a live parity suite held bit-identical to the graph path.
// They freeze that shared answer, so this suite keeps the name of the
// parity check it replaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cardest/registry.h"
#include "common/str_util.h"
#include "planner_golden.h"

namespace cardbench {
namespace {

/// The golden lines of one estimator, in file order.
std::vector<std::string> GoldenLinesOf(const std::string& estimator) {
  std::ifstream in(CARDBENCH_PLANNER_GOLDEN);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (StartsWith(line, "#")) continue;
    const std::vector<std::string> fields = Split(line, ' ');
    if (fields.size() > 1 && fields[1] == estimator) lines.push_back(line);
  }
  return lines;
}

class PlannerParityTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    if (env_ != nullptr) return;
    auto env = BenchEnv::Create(
        BenchDataset::kStats,
        golden::Flags(::testing::TempDir() + "/cardbench_golden_cache"));
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    env_ = env->release();
  }

  static BenchEnv* env_;
};

BenchEnv* PlannerParityTest::env_ = nullptr;

TEST_P(PlannerParityTest, GraphPathIsBitIdenticalToLegacy) {
  const std::vector<std::string> golden = GoldenLinesOf(GetParam());
  ASSERT_FALSE(golden.empty()) << "no goldens for " << GetParam() << " in "
                               << CARDBENCH_PLANNER_GOLDEN;
  auto est = env_->MakeNamedEstimator(GetParam());
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  const CardinalityEstimator& estimator = **est;

  // Batched estimates, chosen plans, costs and P-Errors.
  auto lines = golden::Lines(*env_, estimator);
  ASSERT_TRUE(lines.ok()) << lines.status().ToString();
  ASSERT_EQ(lines->size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ((*lines)[i], golden[i]);
  }

  // The Query overload and the planner's injected cardinalities, per mask,
  // walking the card lines in the order Lines() wrote them.
  size_t next = 0;
  for (const auto& ctx : env_->query_contexts()) {
    auto plan = env_->optimizer().Plan(*ctx.graph, estimator);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const std::vector<uint64_t>& masks = ctx.graph->connected_subsets();
    EXPECT_EQ(plan->num_estimates, masks.size());
    for (uint64_t mask : masks) {
      const std::string& expected = golden[next++];
      const double card =
          std::strtod(expected.substr(expected.rfind(' ') + 1).c_str(),
                      nullptr);
      EXPECT_EQ(golden::CardLine(GetParam(), ctx.query->name, mask,
                                 estimator.EstimateCard(
                                     ctx.query->Induced(mask))),
                expected);
      EXPECT_EQ(plan->injected_cards.at(mask), std::max(card, 1.0))
          << ctx.query->name << " mask " << mask;
    }
    ++next;  // the query's plan line
  }
}

INSTANTIATE_TEST_SUITE_P(AllEstimators, PlannerParityTest,
                         ::testing::ValuesIn(AllEstimatorNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace cardbench
