// ceb-oltp / ceb-olap: the paper's end-to-end measurement (Tables 3/5).
// One op is one STATS-CEB query under one panel estimator, run serially:
// compile from SQL text (ParseSql + ValidateQuery + QueryGraph), plan with
// Optimizer::Plan, execute once with Executor::ExecuteCount, and check the
// count against the query's true cardinality.
//
// The workload's 146 queries are split at the median true COUNT(*): the
// lower half (ceb-oltp) is dominated by compile + estimate + DP, the upper
// half (ceb-olap) by execution, so a change to either side shows on one
// workload and not the other.

#include <algorithm>
#include <numeric>

#include "bench_common.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "query/query_graph.h"

namespace perfbench {
namespace {

using cardbench::BenchEnv;
using cardbench::CardinalityEstimator;
using cardbench::StrFormat;

// How often an untraced phase samples the reference kernels (HostSpeed).
constexpr double kSampleEverySeconds = 0.25;

struct CebQuery {
  std::string sql;
  double true_card = 0.0;
  const BenchEnv::QueryContext* ctx = nullptr;
};

/// Per-op layer times of a traced op (microseconds) and its counts.
struct TracedOp {
  double wall_us = 0.0;
  double parse_us = 0.0;
  double compile_us = 0.0;
  double plan_us = 0.0;
  double estimate_us = 0.0;
  double exec_us = 0.0;
  uint64_t subplans = 0;
  uint64_t intermediate_rows = 0;
  double p_error = 0.0;
};

class CebRunner {
 public:
  CebRunner(BenchEnv& env, const std::vector<CardinalityEstimator*>& panel,
            std::vector<CebQuery> queries, uint64_t seed,
            WorkloadResult& result)
      : env_(env),
        panel_(panel),
        queries_(std::move(queries)),
        executor_(env.db(), Limits()),
        rng_(seed),
        result_(result) {}

  size_t ops_per_pass() const { return queries_.size() * panel_.size(); }

  /// Runs whole passes over every (query, estimator) pair, each pass in a
  /// fresh seeded order, until `seconds` have elapsed (at least one pass).
  /// Untraced: only each op's wall clock is read. Returns every op's
  /// latency scaled to the nominal host speed.
  std::vector<double> RunUntraced(double seconds) {
    std::vector<double> latencies;
    HostSpeed speed;
    const auto start = Clock::now();
    auto last_sample = start;
    do {
      for (size_t op : rng_.Permutation(ops_per_pass())) {
        const auto t0 = Clock::now();
        const Outcome outcome =
            RunOp(op, *panel_[op % panel_.size()], nullptr, nullptr);
        const auto t1 = Clock::now();
        Tally(outcome);
        latencies.push_back(MicrosBetween(t0, t1));
        if (MicrosBetween(last_sample, t1) >= kSampleEverySeconds * 1e6) {
          speed.Sample();
          last_sample = Clock::now();
        }
      }
    } while (MicrosBetween(start, Clock::now()) < seconds * 1e6);
    speed.Sample();
    const double factor = speed.Factor();
    for (double& us : latencies) us *= factor;
    return latencies;
  }

  /// Traced passes through timed estimators `timed` (panel order), with a
  /// timestamp around every layer call. `first_pass` receives the first
  /// pass's per-op records indexed by op, for the exact per-pass counts
  /// and the P-Errors (computed outside the timed op).
  void RunTraced(double seconds,
                 const std::vector<CardinalityEstimator*>& timed,
                 const std::vector<EstimatorCounters*>& counters,
                 std::vector<TracedOp>* ops,
                 std::vector<TracedOp>* first_pass) {
    const auto start = Clock::now();
    first_pass->assign(ops_per_pass(), TracedOp());
    bool first = true;
    do {
      for (size_t op : rng_.Permutation(ops_per_pass())) {
        TracedOp record;
        const size_t e = op % panel_.size();
        const uint64_t subplans_before = counters[e]->subplans.load();
        const uint64_t nanos_before = counters[e]->nanos.load();
        std::unique_ptr<cardbench::PlanNode> plan;
        const auto t0 = Clock::now();
        const Outcome outcome = RunOp(op, *timed[e], &record, &plan);
        const auto t1 = Clock::now();
        Tally(outcome);
        record.wall_us = MicrosBetween(t0, t1);
        record.estimate_us =
            static_cast<double>(counters[e]->nanos.load() - nanos_before) /
            1e3;
        record.subplans = counters[e]->subplans.load() - subplans_before;
        if (first && plan != nullptr) record.p_error = PError(op, *plan);
        ops->push_back(record);
        if (first) (*first_pass)[op] = record;
      }
      first = false;
    } while (MicrosBetween(start, Clock::now()) < seconds * 1e6);
  }

 private:
  enum class Outcome { kOk, kTimedOut, kError };

  static cardbench::ExecLimits Limits() {
    cardbench::ExecLimits limits;
    limits.timeout_seconds = 20.0;
    return limits;
  }

  /// One op under `estimator`. Traced when `record` is set: layer times,
  /// EXPLAIN ANALYZE row counts, and the chosen plan in `plan_out`.
  Outcome RunOp(size_t op, const CardinalityEstimator& estimator,
                TracedOp* record,
                std::unique_ptr<cardbench::PlanNode>* plan_out) {
    const CebQuery& q = queries_[op / panel_.size()];
    const cardbench::Database& db = env_.db();
    const bool traced = record != nullptr;

    const auto t0 = Clock::now();
    auto parsed = cardbench::ParseSql(q.sql);
    if (!parsed.ok()) return Fail(q, "parse", parsed.status());
    const cardbench::Status valid = cardbench::ValidateQuery(*parsed, db);
    if (!valid.ok()) return Fail(q, "validate", valid);
    const auto t1 = Clock::now();
    const cardbench::QueryGraph graph(*parsed, db);
    const auto t2 = Clock::now();
    auto plan = env_.optimizer().Plan(graph, estimator);
    if (!plan.ok()) return Fail(q, "plan", plan.status());
    const auto t3 = Clock::now();
    auto exec = executor_.ExecuteCount(*plan->plan, /*analyze=*/traced);
    const auto t4 = Clock::now();
    if (!exec.ok()) return Fail(q, "execute", exec.status());
    if (exec->timed_out) return Outcome::kTimedOut;
    if (static_cast<double>(exec->count) != q.true_card) {
      result_.Mismatch(StrFormat("%s under %s counted %llu, true %.17g",
                                 q.ctx->query->name.c_str(),
                                 estimator.name().c_str(),
                                 static_cast<unsigned long long>(exec->count),
                                 q.true_card));
      return Outcome::kError;
    }
    if (traced) {
      record->parse_us = MicrosBetween(t0, t1);
      record->compile_us = MicrosBetween(t1, t2);
      record->plan_us = MicrosBetween(t2, t3);
      record->exec_us = MicrosBetween(t3, t4);
      for (const auto& [mask, rows] : exec->actual_rows) {
        if (mask != graph.full_mask()) {
          record->intermediate_rows += static_cast<uint64_t>(rows);
        }
      }
      *plan_out = std::move(plan->plan);
    }
    return Outcome::kOk;
  }

  /// P-Error of `plan` (paper §7.2): its cost under true cardinalities over
  /// the cost of the plan the true cardinalities would have chosen.
  double PError(size_t op, const cardbench::PlanNode& plan) const {
    const BenchEnv::QueryContext& ctx = *queries_[op / panel_.size()].ctx;
    if (ctx.true_plan_cost <= 0) return 1.0;
    return env_.optimizer().RecostWithCards(plan, ctx.true_cards) /
           ctx.true_plan_cost;
  }

  Outcome Fail(const CebQuery& q, const char* step,
               const cardbench::Status& status) {
    result_.Mismatch(StrFormat("%s: %s failed: %s", q.ctx->query->name.c_str(),
                               step, status.ToString().c_str()));
    return Outcome::kError;
  }

  void Tally(Outcome outcome) {
    ++result_.attempted;
    if (outcome != Outcome::kOk) ++result_.failed;
  }

  BenchEnv& env_;
  const std::vector<CardinalityEstimator*>& panel_;
  const std::vector<CebQuery> queries_;
  const cardbench::Executor executor_;
  cardbench::Rng rng_;
  WorkloadResult& result_;
};

/// The queries of one side of the split: the 73 with the lowest true
/// COUNT(*) (ties broken by workload position) or the other 73.
std::vector<CebQuery> SplitQueries(const BenchEnv& env, bool oltp) {
  const auto& contexts = env.query_contexts();
  auto card_of = [&](size_t i) {
    return contexts[i].true_cards.at(contexts[i].query->FullMask());
  };
  std::vector<size_t> order(contexts.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return card_of(a) < card_of(b);
  });
  const size_t half = order.size() / 2;
  std::vector<CebQuery> queries;
  for (size_t k = oltp ? 0 : half; k < (oltp ? half : order.size()); ++k) {
    const auto& ctx = contexts[order[k]];
    queries.push_back(CebQuery{ctx.query->ToSql(), card_of(order[k]), &ctx});
  }
  return queries;
}

double SumOf(const std::vector<TracedOp>& ops, double TracedOp::*field) {
  double total = 0.0;
  for (const TracedOp& op : ops) total += op.*field;
  return total;
}

}  // namespace

WorkloadResult RunCebWorkload(const Args& args, bool oltp) {
  WorkloadResult result;
  auto setup = SetUp(args, kSetupRepeats, /*copies_per_estimator=*/0);
  if (!setup.ok()) {
    result.Mismatch("set-up failed: " + setup.status().ToString());
    return result;
  }
  BenchEnv& env = *setup->panel.env;
  std::vector<CardinalityEstimator*> panel;
  for (auto& est : setup->panel.estimators) panel.push_back(est.get());

  std::vector<CebQuery> queries = SplitQueries(env, oltp);
  const size_t num_queries = queries.size();
  CebRunner runner(env, panel, std::move(queries), args.seed, result);
  result.notes.push_back(StrFormat(
      "%s: %zu queries x %zu estimators = %zu ops per pass",
      oltp ? "ceb-oltp" : "ceb-olap", num_queries, panel.size(),
      runner.ops_per_pass()));

  // One untimed pass lets lazy statistics (NDV caches, estimator memos)
  // fill before anything is measured.
  runner.RunUntraced(0.0);
  result.attempted = 0;
  result.failed = 0;

  if (!args.trace) {
    const std::vector<double> latencies = runner.RunUntraced(args.seconds);
    result.Add("setup_s", setup->setup_s, "s", setup->repeats);
    result.Add("peak_rss_mb", PeakRssMib(), "MiB");
    result.Add("op_p50_us", Quantile(latencies, 0.50), "us", latencies.size());
    result.Add("op_p99_us", Quantile(latencies, 0.99), "us", latencies.size());
    result.Add("ops_per_s", 1e6 / Mean(latencies), "1/s", latencies.size());
    return result;
  }

  // Traced run: half the time untraced (the overhead baseline), half with
  // timed estimators and a timestamp around every layer call.
  const std::vector<double> untraced = runner.RunUntraced(args.seconds / 2);

  std::vector<std::unique_ptr<EstimatorCounters>> counters;
  std::vector<std::unique_ptr<TimedEstimator>> wrappers;
  std::vector<CardinalityEstimator*> timed;
  std::vector<EstimatorCounters*> counter_ptrs;
  for (CardinalityEstimator* est : panel) {
    counters.push_back(std::make_unique<EstimatorCounters>());
    wrappers.push_back(
        std::make_unique<TimedEstimator>(*est, *counters.back()));
    timed.push_back(wrappers.back().get());
    counter_ptrs.push_back(counters.back().get());
  }
  std::vector<TracedOp> ops, first_pass;
  HostSpeed speed;
  runner.RunTraced(args.seconds / 2, timed, counter_ptrs, &ops, &first_pass);
  speed.Sample();
  // Layer times are scaled to the nominal host speed like the end-to-end
  // ones.
  const double f = speed.Factor();

  const double n = static_cast<double>(ops.size());
  const double wall_us = SumOf(ops, &TracedOp::wall_us);
  const double parse_us = SumOf(ops, &TracedOp::parse_us);
  const double compile_us = SumOf(ops, &TracedOp::compile_us);
  const double plan_us = SumOf(ops, &TracedOp::plan_us);
  const double estimate_us = SumOf(ops, &TracedOp::estimate_us);
  const double exec_us = SumOf(ops, &TracedOp::exec_us);
  uint64_t subplans = 0, pass_subplans = 0, pass_rows = 0, rows = 0;
  std::vector<double> p_errors;
  for (const TracedOp& op : ops) {
    subplans += op.subplans;
    rows += op.intermediate_rows;
  }
  for (const TracedOp& op : first_pass) {
    pass_subplans += op.subplans;
    pass_rows += op.intermediate_rows;
    p_errors.push_back(op.p_error);
  }
  const size_t samples = ops.size();
  result.Add("query.parse_us", f * parse_us / n, "us", samples);
  result.Add("query.compile_us", f * compile_us / n, "us", samples);
  result.Add("cardest.estimate_us", f * estimate_us / n, "us", samples);
  result.Add("cardest.ns_per_subplan",
             f * estimate_us * 1e3 /
                 static_cast<double>(std::max<uint64_t>(1, subplans)),
             "ns", subplans);
  for (size_t e = 0; e < panel.size(); ++e) {
    const uint64_t est_subplans = counters[e]->subplans.load();
    result.Add("cardest." + PanelNames()[e] + ".ns_per_subplan",
               f * static_cast<double>(counters[e]->nanos.load()) /
                   static_cast<double>(std::max<uint64_t>(1, est_subplans)),
               "ns", est_subplans);
  }
  result.Add("cardest.subplans", static_cast<double>(pass_subplans), "count");
  result.Add("cardest.build_s", setup->build_s, "s", setup->repeats);
  result.Add("optimizer.plan_self_us", f * (plan_us - estimate_us) / n, "us",
             samples);
  result.Add("optimizer.p_error_p90", Quantile(p_errors, 0.90), "ratio",
             p_errors.size());
  result.Add("exec.exec_us", f * exec_us / n, "us", samples);
  result.Add("exec.intermediate_rows", static_cast<double>(pass_rows),
             "count");
  result.Add("exec.ns_per_intermediate_row",
             f * exec_us * 1e3 /
                 static_cast<double>(std::max<uint64_t>(1, rows)),
             "ns", samples);
  result.Add("harness.env_s", setup->env_s, "s", setup->repeats);
  result.Add("trace.unattributed_frac",
             (wall_us - parse_us - compile_us - plan_us - exec_us) / wall_us,
             "ratio", samples);
  result.Add("trace.overhead_frac", f * wall_us / n / Mean(untraced) - 1.0,
             "ratio", samples);
  result.notes.push_back(StrFormat(
      "traced per-op time: query %.1f%% + estimate %.1f%% + plan self "
      "%.1f%% = %.1f%% planning side; exec %.1f%%",
      100 * (parse_us + compile_us) / wall_us, 100 * estimate_us / wall_us,
      100 * (plan_us - estimate_us) / wall_us,
      100 * (parse_us + compile_us + plan_us) / wall_us,
      100 * exec_us / wall_us));
  return result;
}

}  // namespace perfbench
