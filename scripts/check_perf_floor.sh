#!/usr/bin/env bash
# Perf regression gate (registered with ctest as `check_perf_floor`): runs
# the bench_kernels micro-bench and the bench_micro_join --quick sweep, then
# compares per-tier kernel speedups and join build/probe throughput against
# the checked-in floors in bench/perf_floor.json. A change that silently
# drops a vector tier to scalar-level throughput, or the hash join's
# HashIndex below bench_micro_join's bench-local unordered_map baseline (its
# "legacy" columns), fails here instead of landing.
#
# If scripts/perf_stat.sh has left a bench_perf_counters.json around, its
# hardware counters (IPC, miss rates) are gated too; without one — perf is
# often unavailable in containers — the speedup floors alone are enforced.
#
#   scripts/check_perf_floor.sh                    # default build/ binaries
#   BIN_DIR=build/tools BENCH_DIR=build/bench scripts/check_perf_floor.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BIN_DIR=${BIN_DIR:-build/tools}
BENCH_DIR=${BENCH_DIR:-build/bench}
FLOOR=bench/perf_floor.json

for bin in "$BIN_DIR/check_perf_floor" "$BENCH_DIR/bench_kernels" \
           "$BENCH_DIR/bench_micro_join"; do
  if [ ! -x "$bin" ]; then
    echo "check_perf_floor: missing binary $bin (build it first)" >&2
    exit 1
  fi
done

WORK_DIR=$(mktemp -d)
trap 'rm -rf "$WORK_DIR"' EXIT

"$BENCH_DIR/bench_kernels" --reps=2000 --json="$WORK_DIR/bench_kernels.json" \
  > /dev/null
"$BENCH_DIR/bench_micro_join" --quick \
  --json="$WORK_DIR/bench_micro_join.json" > /dev/null

MEASURED=("$WORK_DIR/bench_kernels.json" "$WORK_DIR/bench_micro_join.json")
if [ -f bench_perf_counters.json ]; then
  MEASURED+=(bench_perf_counters.json)
fi
"$BIN_DIR/check_perf_floor" "$FLOOR" "${MEASURED[@]}"
