// Prints the fanout goldens (format in fanout_golden.h) to stdout. The
// checked-in file is this output:
//
//   ./build/tools/fanout_golden > tests/golden/fanout_golden.txt
//
// Regenerate only when a fanout-family estimate is meant to change;
// fanout_golden_test then pins the new bits.

#include <cstdio>
#include <string>

#include "fanout_golden.h"

int main() {
  using namespace cardbench;
  auto lines = golden::FanoutLines();
  if (!lines.ok()) {
    std::fprintf(stderr, "%s\n", lines.status().ToString().c_str());
    return 1;
  }
  std::printf("# Fanout goldens, generated by tools/fanout_golden.cc; "
              "format in tools/fanout_golden.h.\n");
  for (const std::string& line : *lines) std::printf("%s\n", line.c_str());
  return 0;
}
