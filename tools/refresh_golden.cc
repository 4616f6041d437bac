// Prints the refresh goldens (format in refresh_golden.h) to stdout. The
// checked-in file is this output:
//
//   ./build/tools/refresh_golden > tests/golden/refresh_golden.txt
//
// Regenerate only when a refreshed model is meant to change;
// refresh_golden_test then pins the new bytes.

#include <cstdio>
#include <string>

#include "refresh_golden.h"

int main() {
  using namespace cardbench;
  auto lines = golden::RefreshLines();
  if (!lines.ok()) {
    std::fprintf(stderr, "%s\n", lines.status().ToString().c_str());
    return 1;
  }
  std::printf("# Refresh goldens, generated by tools/refresh_golden.cc; "
              "format in tools/refresh_golden.h.\n");
  for (const std::string& line : *lines) std::printf("%s\n", line.c_str());
  return 0;
}
