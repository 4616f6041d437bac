// Refresh golden suite: every estimator of the zoo, built on the older half
// of STATS and refreshed through two insertion batches and one full-refresh
// batch, must answer each step with the checked-in status and, where that
// is OK, reproduce the checked-in bytes of every refreshed artifact section
// (tests/golden/refresh_golden.txt, line format in tools/refresh_golden.h).

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "refresh_golden.h"

namespace cardbench {
namespace {

TEST(RefreshGoldenTest, RefreshedArtifactsAreByteIdentical) {
  std::ifstream in(CARDBENCH_REFRESH_GOLDEN);
  std::vector<std::string> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (!StartsWith(line, "#")) golden.push_back(line);
  }
  ASSERT_FALSE(golden.empty()) << "no goldens in " << CARDBENCH_REFRESH_GOLDEN;

  auto lines = golden::RefreshLines();
  ASSERT_TRUE(lines.ok()) << lines.status().ToString();
  ASSERT_EQ(lines->size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ((*lines)[i], golden[i]);
  }
}

}  // namespace
}  // namespace cardbench
