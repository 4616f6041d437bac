#!/usr/bin/env bash
# Records hardware perf counters (IPC, cache-miss rate, branch-miss rate)
# for the kernel micro-bench into bench_perf_counters.json, alongside the
# CPU model and SIMD capability, so perf trajectories are comparable across
# machines and over time. check_perf_floor picks the artifact up and gates
# the counter floors of bench/perf_floor.json against it.
#
# `perf` is frequently unavailable (containers without CAP_PERFMON,
# kernel.perf_event_paranoid, no linux-tools): the script then still writes
# the artifact with "counters": null — downstream consumers degrade
# gracefully rather than erroring on a missing file.
#
#   scripts/perf_stat.sh                 # default build/bench binary
#   BENCH_DIR=build-asan/bench scripts/perf_stat.sh
set -u
cd "$(dirname "$0")/.."

BENCH_DIR=${BENCH_DIR:-build/bench}
BENCH="$BENCH_DIR/bench_kernels"
OUT=bench_perf_counters.json

if [ ! -x "$BENCH" ]; then
  echo "perf_stat: missing binary $BENCH (build bench_kernels first)" >&2
  exit 1
fi

cpu_model=$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null)
cpu_model=${cpu_model:-unknown}
flags=$(awk -F': ' '/^flags/ {print $2; exit}' /proc/cpuinfo 2>/dev/null)
simd=scalar
case " $flags " in *" avx2 "*) simd=avx2 ;; esac
if [[ " $flags " == *" avx512f "* && " $flags " == *" avx512dq "* &&
      " $flags " == *" avx512bw "* && " $flags " == *" avx512vl "* ]]; then
  simd=avx512
fi

EVENTS="cycles,instructions,cache-references,cache-misses,branches,branch-misses"

# Probe: `perf stat` on a trivial command must work end to end, otherwise
# record null counters (perf missing, permissions, PMU hidden by the
# hypervisor, ...).
have_perf=0
if command -v perf > /dev/null 2>&1 &&
   perf stat -x, -e cycles true > /dev/null 2>&1; then
  have_perf=1
fi

counters_json=null
if [ "$have_perf" -eq 1 ]; then
  raw=$(perf stat -x, -e "$EVENTS" "$BENCH" --reps=2000 2>&1 > /dev/null) || raw=""
  # perf -x, CSV: value,unit,event,... ; "<not supported>" rows are skipped.
  counters_json=$(printf '%s\n' "$raw" | awk -F, '
    $1 !~ /^[0-9]/ { next }
    $3 == "cycles" { cycles = $1 }
    $3 == "instructions" { instructions = $1 }
    $3 == "cache-references" { cache_refs = $1 }
    $3 == "cache-misses" { cache_misses = $1 }
    $3 == "branches" { branches = $1 }
    $3 == "branch-misses" { branch_misses = $1 }
    END {
      if (cycles == "" || instructions == "") { print "null"; exit }
      ipc = instructions / cycles
      printf "{\n    \"cycles\": %s,\n    \"instructions\": %s,\n", cycles, instructions
      printf "    \"ipc\": %.4f", ipc
      if (cache_refs != "" && cache_refs > 0)
        printf ",\n    \"cache_miss_rate\": %.6f", cache_misses / cache_refs
      if (branches != "" && branches > 0)
        printf ",\n    \"branch_miss_rate\": %.6f", branch_misses / branches
      printf "\n  }"
    }')
  [ -z "$counters_json" ] && counters_json=null
fi

{
  echo '{'
  echo '  "bench": "bench_kernels_perf_counters",'
  printf '  "cpu": {"model": "%s", "simd": "%s"},\n' "$cpu_model" "$simd"
  printf '  "counters": %s\n' "$counters_json"
  echo '}'
} > "$OUT"

if [ "$counters_json" = null ]; then
  echo "perf_stat: perf unavailable; wrote $OUT with null counters"
else
  echo "perf_stat: wrote $OUT"
fi
