// Fanout golden suite: BayesCard, DeepDB and FLAT, trained on the older half
// of STATS and IMDB and then updated with one insertion batch, must
// reproduce the checked-in bits of every sub-plan estimate of every
// STATS-CEB and JOB-LIGHT query (tests/golden/fanout_golden.txt, line format
// in tools/fanout_golden.h), through the batched EstimateCards and through
// the scalar EstimateCard alike.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "fanout_golden.h"

namespace cardbench {
namespace {

std::vector<std::string> GoldenLines() {
  std::ifstream in(CARDBENCH_FANOUT_GOLDEN);
  std::vector<std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (!StartsWith(line, "#")) golden.push_back(line);
  }
  return golden;
}

void ExpectGolden(const Result<std::vector<std::string>>& lines) {
  const std::vector<std::string> golden = GoldenLines();
  ASSERT_FALSE(golden.empty()) << "no goldens in " << CARDBENCH_FANOUT_GOLDEN;
  ASSERT_TRUE(lines.ok()) << lines.status().ToString();
  ASSERT_EQ(lines->size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ((*lines)[i], golden[i]);
  }
}

TEST(FanoutGoldenTest, BatchedEstimatesAreBitIdentical) {
  ExpectGolden(golden::FanoutLines());
}

TEST(FanoutGoldenTest, ScalarEstimatesAreBitIdentical) {
  ExpectGolden(golden::FanoutLines(
      [](const CardinalityEstimator& estimator, const QueryGraph& graph,
         const std::vector<uint64_t>& masks) {
        std::vector<double> cards;
        for (uint64_t mask : masks) {
          cards.push_back(estimator.EstimateCard(graph, mask));
        }
        return cards;
      }));
}

}  // namespace
}  // namespace cardbench
