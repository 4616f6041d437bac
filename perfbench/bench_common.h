// Shared pieces of the repository benchmark: command-line arguments, the
// estimator panel and its timed set-up, host-speed normalization and CPU
// pinning, the forwarding estimator that the traced runs use to time
// estimation, and the metric report.

#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cardest/estimator.h"
#include "harness/bench_env.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// The estimator panel every workload runs: data-driven methods that need
/// no training queries, so the panel builds in about a second.
const std::vector<std::string>& PanelNames();

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Where the harness persists true cardinalities between runs.
  std::string cache_dir;
};

/// Percentile `q` in [0, 1] of `samples` by nearest rank (0 when empty).
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Host-speed normalization. The host's speed drifts by 10-25% over
/// minutes when co-tenants load it, which would swamp the differences the
/// benchmark exists to show. Every phase therefore times two fixed
/// reference kernels that never call into the program (a cache-resident
/// compute mix and a memory-bound walk over a table larger than the cache)
/// several times while it runs, and scales its times to the nominal speed:
/// reported times are "at the speed where the kernels take their nominal
/// seconds on this machine type". Program changes cannot move the kernels.
inline constexpr double kNominalCompute_s = 0.005;
inline constexpr double kNominalMemory_s = 0.0025;
/// Share of the memory kernel in the slowdown estimate.
inline constexpr double kMemoryWeight = 0.5;

struct ReferenceTimes {
  double compute_s = 0.0;
  double memory_s = 0.0;
};

/// Times both reference kernels now (best of three runs each).
ReferenceTimes MeasureReference();

/// Normalization for one phase: the constructor and every Sample() time
/// the kernels; Factor() scales the phase's times to the nominal speed
/// from the median samples. Sample between units of work, spread over the
/// phase.
class HostSpeed {
 public:
  HostSpeed();
  void Sample();
  double Factor() const;

 private:
  std::vector<double> compute_;
  std::vector<double> memory_;
};

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the highest CPU it may run on, and returns that CPU (-1 if pinning
/// failed). On a shared virtual machine, handing a request between threads
/// on different CPUs costs wake-ups whose latency swings with the host's
/// load; they dominated serve-mixed's run-to-run spread, and on one CPU
/// the figures hold to a few percent. The price: the benchmark does not
/// measure multi-core scaling.
int PinToOneCpu();

/// Lets the calling thread run on every CPU allowed before PinToOneCpu
/// (for unmeasured work such as output checking).
void UnpinCurrentThread();

/// Peak resident set of this process, MiB (getrusage).
double PeakRssMib();

/// Per-estimator counters of a TimedEstimator (shared by every wrapper of
/// the same method, so hot-swapped copies add to the same totals).
struct EstimatorCounters {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> subplans{0};
  std::atomic<uint64_t> nanos{0};
};

/// Forwarding CardinalityEstimator used only in traced runs: times every
/// estimation call into the wrapped estimator and counts the sub-plans it
/// answered. Serialization and the name forward unchanged, so the wrapper
/// is a drop-in for the optimizer and the estimation service.
class TimedEstimator : public cardbench::CardinalityEstimator {
 public:
  /// Borrows `inner`, which must outlive the wrapper.
  TimedEstimator(const cardbench::CardinalityEstimator& inner,
                 EstimatorCounters& counters);
  /// Owns `inner` (the estimation service takes ownership of what it
  /// serves).
  TimedEstimator(std::unique_ptr<cardbench::CardinalityEstimator> inner,
                 EstimatorCounters& counters);

  std::string name() const override { return inner_->name(); }
  double EstimateCard(const cardbench::QueryGraph& graph,
                      uint64_t mask) const override;
  double EstimateCard(const cardbench::Query& subquery) const override;
  std::vector<double> EstimateCards(
      const cardbench::QueryGraph& graph,
      std::span<const uint64_t> masks) const override;
  cardbench::Status Serialize(std::ostream& out) const override {
    return inner_->Serialize(out);
  }

 private:
  void Record(Clock::time_point start, size_t subplans) const;

  std::unique_ptr<cardbench::CardinalityEstimator> owned_;
  const cardbench::CardinalityEstimator* inner_;
  EstimatorCounters& counters_;
};

/// What set-up produces: the STATS environment (database, STATS-CEB
/// workload, true cardinalities) and the built panel, plus, when asked,
/// deserialized copies of every panel model for hot-swaps.
struct Panel {
  std::unique_ptr<cardbench::BenchEnv> env;
  /// In PanelNames() order.
  std::vector<std::unique_ptr<cardbench::CardinalityEstimator>> estimators;
  /// copies[e]: Serialize -> DeserializeEstimator clones of estimators[e].
  std::vector<std::vector<std::unique_ptr<cardbench::CardinalityEstimator>>>
      copies;
};

struct SetupResult {
  Panel panel;
  /// Medians over the repeated set-ups (wall seconds).
  double setup_s = 0.0;
  double env_s = 0.0;
  double build_s = 0.0;
  size_t repeats = 0;
};

/// Sets the panel up `repeats` times from scratch (each time: datagen,
/// workload and true-cardinality preparation, panel build and
/// `copies_per_estimator` swap copies) and keeps the last one. The true
/// cardinalities persist in args.cache_dir, so only the first set-up in a
/// fresh checkout computes them; the median is the warm-cache set-up.
cardbench::Result<SetupResult> SetUp(const Args& args, size_t repeats,
                                     size_t copies_per_estimator);

/// One metric line of the report.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Sample count behind a percentile or mean (0 = not a sampled value).
  size_t samples = 0;
};

/// Outcome of one workload run.
struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first correctness mismatches
  std::vector<Metric> metrics;
  /// Free-form report lines printed before the JSON result.
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    metrics.push_back(Metric{name, value, unit, samples});
  }
  void Mismatch(const std::string& what);
};

/// Set-ups per run; setup_s is their median.
inline constexpr size_t kSetupRepeats = 3;

/// ceb-oltp (`oltp`) or ceb-olap: serial compile + plan + execute of the
/// lower or upper half of STATS-CEB by true cardinality (ceb_workload.cc).
WorkloadResult RunCebWorkload(const Args& args, bool oltp);

/// serve-mixed: open-loop cardserved traffic (serve_workload.cc).
WorkloadResult RunServeWorkload(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
