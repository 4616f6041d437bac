#!/usr/bin/env bash
# Builds the repo with AddressSanitizer and UndefinedBehaviorSanitizer and
# runs the tests that pound the executor's raw-pointer batch kernels
# (selection vectors, key gathers, chunk buffers), the estimators' binary
# searches and flat multi-leaf keys, the plan paths (planning, execution of
# planned and hand-built plans, EXPLAIN, recosting), every estimator's
# update path (the refresh goldens), the fanout family's arena-backed
# inference over whole workloads (the fanout goldens), the learned
# estimators' training and inference (MSCN's element matrices, the
# autoregressive family's progressive sampling), plus the
# concurrency-sensitive binaries. Any out-of-bounds access (including a
# write past a std::vector's size into its reserved capacity), leak or
# undefined behaviour in these paths fails the run.
# scripts/asan_suppressions.txt silences the false positives that vector
# annotations raise inside GoogleTest's prebuilt test registration; the
# options are exported before the build because test discovery runs the
# binaries at build time.
#
#   scripts/run_asan_tests.sh               # the default binary set
#   scripts/run_asan_tests.sh -R Parity     # forward extra args to ctest
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build-asan}

export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 detect_leaks=1} suppressions=$PWD/scripts/asan_suppressions.txt"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"

cmake -B "$BUILD_DIR" -S . -DCARDBENCH_ASAN=ON >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target storage_test exec_test exec_parity_test thread_pool_test \
           service_test harness_test query_graph_test planner_golden_test \
           refresh_golden_test fanout_golden_test batch_parity_test \
           serialization_test model_store_test server_test \
           server_metrics_test drift_test \
           kernel_parity_test arena_test \
           binner_test cardest_test explain_analyze_test optimizer_test \
           optimizer_physical_test perror_test property_test \
           learned_est_test query_features_test

if [ "$#" -gt 0 ]; then
  ctest --test-dir "$BUILD_DIR" --output-on-failure "$@"
else
  for test in storage_test exec_test exec_parity_test thread_pool_test \
              service_test harness_test query_graph_test \
              planner_golden_test refresh_golden_test fanout_golden_test \
              batch_parity_test serialization_test model_store_test \
              server_test server_metrics_test drift_test \
              kernel_parity_test arena_test \
              binner_test cardest_test explain_analyze_test optimizer_test \
              optimizer_physical_test perror_test property_test \
              learned_est_test query_features_test; do
    echo "== $test (ASAN) =="
    "$BUILD_DIR/tests/$test"
  done
  # The parity binary once more with dispatch clamped to the scalar tier,
  # so the fallback path is ASAN-clean too.
  echo "== kernel_parity_test (ASAN, CARDBENCH_SIMD=scalar) =="
  CARDBENCH_SIMD=scalar "$BUILD_DIR/tests/kernel_parity_test"
  # The executor's index nested loops compact their arena-backed filter
  # chunks in place with whichever tier dispatch picks; run the AVX2 one.
  echo "== exec_parity_test (ASAN, CARDBENCH_SIMD=avx2) =="
  CARDBENCH_SIMD=avx2 "$BUILD_DIR/tests/exec_parity_test"
fi
echo "ASAN+UBSAN run clean."
