// Prints the planner goldens (format in planner_golden.h) for every
// estimator of the zoo to stdout. The checked-in file is this output:
//
//   ./build/tools/planner_golden > tests/golden/planner_golden.txt
//
// Regenerate only when an estimate, a plan or a cost is meant to change;
// planner_golden_test then pins the new values.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "cardest/registry.h"
#include "planner_golden.h"

int main() {
  using namespace cardbench;
  const std::string cache_dir =
      (std::filesystem::temp_directory_path() / "cardbench_golden_cache")
          .string();
  auto env = BenchEnv::Create(BenchDataset::kStats, golden::Flags(cache_dir));
  if (!env.ok()) {
    std::fprintf(stderr, "%s\n", env.status().ToString().c_str());
    return 1;
  }
  std::printf("# Planner goldens, generated by tools/planner_golden.cc; "
              "format in tools/planner_golden.h.\n");
  for (const std::string& name : AllEstimatorNames()) {
    auto estimator = (*env)->MakeNamedEstimator(name);
    if (!estimator.ok()) {
      std::fprintf(stderr, "%s\n", estimator.status().ToString().c_str());
      return 1;
    }
    auto lines = golden::Lines(**env, **estimator);
    if (!lines.ok()) {
      std::fprintf(stderr, "%s\n", lines.status().ToString().c_str());
      return 1;
    }
    for (const std::string& line : *lines) std::printf("%s\n", line.c_str());
  }
  return 0;
}
