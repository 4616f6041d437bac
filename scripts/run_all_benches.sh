#!/usr/bin/env bash
# Runs every bench binary and collects their output into bench_output.txt.
#
# The first phase runs bench_table2_workloads alone to populate the shared
# true-cardinality cache (bench_cache/); the remaining benches then run in
# parallel batches — they only read the cache (writes are atomic renames of
# identical content). Usage:
#
#   scripts/run_all_benches.sh [extra bench flags...]
#
# e.g. scripts/run_all_benches.sh --fast        # quick smoke sweep
#
# Every bench also shares a model store (MODEL_DIR, default bench_models/):
# the first sweep trains each estimator once and persists its artifact; a
# second sweep of the same configuration loads the artifacts instead of
# retraining (warm-store mode — bench_figure3_practicality's JSON then
# reports load times in place of build times). Set MODEL_DIR="" to disable
# and retrain everything.
set -u
cd "$(dirname "$0")/.."

BENCH=build/bench
LOGS=bench_logs
MODEL_DIR=${MODEL_DIR-bench_models}
mkdir -p "$LOGS"
FLAGS=("$@")
if [ -n "$MODEL_DIR" ]; then
  FLAGS+=("--model-dir=$MODEL_DIR")
fi

run() {
  local name=$1
  shift
  echo "[run_all_benches] $name starting"
  "$BENCH/$name" "${FLAGS[@]}" "$@" > "$LOGS/$name.log" 2>&1
  echo "[run_all_benches] $name done (rc=$?)"
}

# Phase 0: cheap, no timing involved.
run bench_table1_datasets

# Phase 1: populate the true-cardinality caches for both datasets.
run bench_table2_workloads

# Phase 2: timing benches run strictly sequentially — wall-clock execution
# times are the measurement, so no two benches may share the CPU.
run bench_table3_end_to_end
run bench_table4_join_tables
run bench_table5_oltp_olap
# NeuroCardE's update path (resample + fine-tune + two full AR-inference
# passes) is by far the slowest row; drop it from the default sweep and add
# it back explicitly when reproducing the full Table 6.
run bench_table6_update --estimators=BayesCard,DeepDB,FLAT
run bench_table7_qerror_perror
run bench_figure2_case_study
run bench_figure3_practicality
[ -f bench_figure3_practicality.json ] && mv bench_figure3_practicality.json "$LOGS/"
run bench_ablation_fanout
run bench_sensitivity_noise
# Also runs the EstimateCards batch-size sweep first and emits
# bench_micro_inference_batch.json (per-sub-plan latency and throughput at
# batch 1/8/32/128/all-subsets).
"$BENCH/bench_micro_inference" --benchmark_min_time=0.2s \
  > "$LOGS/bench_micro_inference.log" 2>&1
[ -f bench_micro_inference_batch.json ] && mv bench_micro_inference_batch.json "$LOGS/"
# Executor thread/batch sweep; emits bench_micro_executor.json alongside its
# table (the JSON artifact records the speedup-vs-serial curve).
run bench_micro_executor
[ -f bench_micro_executor.json ] && mv bench_micro_executor.json "$LOGS/"
# Planner throughput over the precompiled QueryGraph vs compiling per plan;
# emits bench_micro_planner.json with the plans/sec and estimation share.
run bench_micro_planner
[ -f bench_micro_planner.json ] && mv bench_micro_planner.json "$LOGS/"
# Join-table micro-bench: HashIndex build/probe vs a bench-local
# unordered_map baseline (the "legacy" columns) across rows x threads;
# emits bench_micro_join.json with ns-per-row and speedup-vs-legacy per
# point.
"$BENCH/bench_micro_join" --json=bench_micro_join.json \
  > "$LOGS/bench_micro_join.log" 2>&1
[ -f bench_micro_join.json ] && mv bench_micro_join.json "$LOGS/"
# Serving sweep: the workload through the estimation service in process and
# over loopback TCP through cardserved (closed-loop concurrency levels per
# transport + open-loop overload shedding); emits
# bench_server_throughput.json with the per-estimator latency curves.
run bench_server_throughput
[ -f bench_server_throughput.json ] && mv bench_server_throughput.json "$LOGS/"
# Online-refresh drift sweep: streaming micro-batch inserts against the
# serving stack under no-refresh / incremental-refresh / full-retrain
# policies; emits bench_drift.json with per-estimator Q-Error, latency and
# refresh-cost comparisons.
run bench_drift
[ -f bench_drift.json ] && mv bench_drift.json "$LOGS/"

# Kernel-layer micro-bench + perf-counter capture: bench_kernels' per-tier
# speedups, and hardware counters when perf is usable here (null otherwise).
"$BENCH/bench_kernels" --json=bench_kernels.json > "$LOGS/bench_kernels.log" 2>&1
bash scripts/perf_stat.sh >> "$LOGS/bench_kernels.log" 2>&1
[ -f bench_kernels.json ] && mv bench_kernels.json "$LOGS/"

# Gate: every collected bench artifact must satisfy the minimal JSON schema
# (same check ctest runs as `check_bench_json`), and the kernel tiers must
# clear the checked-in speedup floors (same check ctest runs as
# `check_perf_floor`).
bash scripts/check_bench_json.sh || echo "[run_all_benches] WARNING: bench JSON validation failed"
bash scripts/check_perf_floor.sh || echo "[run_all_benches] WARNING: perf floors violated"

# Collect in paper order.
: > bench_output.txt
for name in bench_table1_datasets bench_table2_workloads \
            bench_table3_end_to_end bench_table4_join_tables \
            bench_table5_oltp_olap bench_table6_update \
            bench_table7_qerror_perror bench_figure2_case_study \
            bench_figure3_practicality bench_ablation_fanout \
            bench_sensitivity_noise bench_micro_inference \
            bench_micro_executor bench_micro_planner bench_micro_join \
            bench_kernels bench_server_throughput bench_drift; do
  {
    echo "================================================================"
    echo "==== $name"
    echo "================================================================"
    cat "$LOGS/$name.log"
    echo
  } >> bench_output.txt
done
echo "[run_all_benches] all done -> bench_output.txt"
