// Ablation study (DESIGN.md): how much of the data-driven methods'
// advantage comes from the fanout join method vs merely modeling
// single-table distributions well? Runs BayesCard / DeepDB / FLAT twice on
// STATS-CEB — once with the fanout method (default) and once falling back
// to join-uniformity over the same single-table models — and additionally
// sweeps the SPN/FSPN RDC thresholds. The expected shape: removing the
// fanout method collapses these methods to histogram-level join quality
// (paper §5.1 credits the fanout independence balance for their accuracy).

#include <cstdio>

#include "cardest/fanout_estimator.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "harness/bench_env.h"
#include "metrics/metrics.h"

namespace cardbench {
namespace {

void Report(BenchEnv& env, const std::string& label,
            CardinalityEstimator& est, double pg_exec) {
  const auto run = env.RunEstimator(est);
  const Percentiles q = ComputePercentiles(run.AllQErrors());
  const Percentiles p = ComputePercentiles(run.AllPErrors());
  std::printf("%-28s exec %10s (%+6.1f%% vs PG)  Q50 %-8s Q99 %-10s P50 %6.3f "
              "P99 %8.3f\n",
              label.c_str(), FormatDuration(run.TotalExecSeconds()).c_str(),
              100.0 * (pg_exec - run.TotalExecSeconds()) / pg_exec,
              FormatCount(q.p50).c_str(), FormatCount(q.p99).c_str(), p.p50,
              p.p99);
}

}  // namespace
}  // namespace cardbench

int main(int argc, char** argv) {
  using namespace cardbench;
  BenchFlags flags = ParseBenchFlags(argc, argv);
  auto env_result = BenchEnv::Create(BenchDataset::kStats, flags);
  CARDBENCH_CHECK(env_result.ok(), "env creation failed: %s",
                  env_result.status().ToString().c_str());
  BenchEnv& env = **env_result;

  auto pg = env.MakeNamedEstimator("PostgreSQL");
  CARDBENCH_CHECK(pg.ok(), "PostgreSQL failed");
  const double pg_exec = env.RunEstimator(**pg).TotalExecSeconds();
  std::printf("Ablation on STATS-CEB (scale=%.2f); PostgreSQL exec %s\n\n",
              flags.scale, FormatDuration(pg_exec).c_str());

  // --- Fanout join method on/off. ---
  std::printf("-- fanout join method vs join uniformity --\n");
  {
    FanoutModelEstimator bn(env.db(), FanoutModelKind::kBayesCard);
    Report(env, "BayesCard (fanout)", bn, pg_exec);
    bn.set_use_fanout_join(false);
    Report(env, "BayesCard (uniformity)", bn, pg_exec);
  }
  {
    FanoutModelEstimator spn(env.db(), FanoutModelKind::kDeepDb);
    Report(env, "DeepDB (fanout)", spn, pg_exec);
    spn.set_use_fanout_join(false);
    Report(env, "DeepDB (uniformity)", spn, pg_exec);
  }
  {
    FanoutModelEstimator fspn(env.db(), FanoutModelKind::kFlat);
    Report(env, "FLAT (fanout)", fspn, pg_exec);
    fspn.set_use_fanout_join(false);
    Report(env, "FLAT (uniformity)", fspn, pg_exec);
  }

  // --- RDC-style threshold sweep for the SPN/FSPN learners. ---
  std::printf("\n-- SPN/FSPN dependence-threshold sweep --\n");
  for (const double independence : {0.15, 0.3, 0.6}) {
    SpnOptions options;
    options.independence_threshold = independence;
    FanoutModelEstimator spn(env.db(), FanoutModelKind::kDeepDb, 48, options);
    Report(env, StrFormat("DeepDB (indep=%.2f)", independence), spn, pg_exec);
  }
  for (const double high : {0.5, 0.7, 0.9}) {
    SpnOptions options;
    options.high_correlation_threshold = high;
    FanoutModelEstimator fspn(env.db(), FanoutModelKind::kFlat, 48, options);
    Report(env, StrFormat("FLAT (factorize=%.2f)", high), fspn, pg_exec);
  }
  std::printf("\n(expected: uniformity variants collapse toward "
              "histogram-level join quality; thresholds trade model size "
              "for accuracy)\n");
  return 0;
}
