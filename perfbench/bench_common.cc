#include "bench_common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "cardest/registry.h"
#include "common/stopwatch.h"

namespace perfbench {

using cardbench::BenchDataset;
using cardbench::BenchEnv;
using cardbench::BenchFlags;
using cardbench::CardinalityEstimator;
using cardbench::Result;

const std::vector<std::string>& PanelNames() {
  static const std::vector<std::string> names = {"PostgreSQL", "BayesCard",
                                                 "DeepDB", "FLAT"};
  return names;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

namespace {
cpu_set_t allowed_cpus;
bool have_allowed_cpus = false;
}  // namespace

int PinToOneCpu() {
  CPU_ZERO(&allowed_cpus);
  if (sched_getaffinity(0, sizeof(allowed_cpus), &allowed_cpus) != 0) {
    return -1;
  }
  have_allowed_cpus = true;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed_cpus)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

void UnpinCurrentThread() {
  if (have_allowed_cpus) {
    sched_setaffinity(0, sizeof(allowed_cpus), &allowed_cpus);
  }
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

TimedEstimator::TimedEstimator(const CardinalityEstimator& inner,
                               EstimatorCounters& counters)
    : inner_(&inner), counters_(counters) {}

TimedEstimator::TimedEstimator(std::unique_ptr<CardinalityEstimator> inner,
                               EstimatorCounters& counters)
    : owned_(std::move(inner)), inner_(owned_.get()), counters_(counters) {}

void TimedEstimator::Record(Clock::time_point start, size_t subplans) const {
  const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - start)
                         .count();
  counters_.calls.fetch_add(1, std::memory_order_relaxed);
  counters_.subplans.fetch_add(subplans, std::memory_order_relaxed);
  counters_.nanos.fetch_add(static_cast<uint64_t>(nanos),
                            std::memory_order_relaxed);
}

double TimedEstimator::EstimateCard(const cardbench::QueryGraph& graph,
                                    uint64_t mask) const {
  const auto start = Clock::now();
  const double card = inner_->EstimateCard(graph, mask);
  Record(start, 1);
  return card;
}

double TimedEstimator::EstimateCard(const cardbench::Query& subquery) const {
  const auto start = Clock::now();
  const double card = inner_->EstimateCard(subquery);
  Record(start, 1);
  return card;
}

std::vector<double> TimedEstimator::EstimateCards(
    const cardbench::QueryGraph& graph,
    std::span<const uint64_t> masks) const {
  const auto start = Clock::now();
  std::vector<double> cards = inner_->EstimateCards(graph, masks);
  Record(start, masks.size());
  return cards;
}

namespace {

// Keeps the reference kernel's result observable, so it is not optimized out.
volatile uint64_t reference_sink = 0;

/// The memory kernel's table: 32 MiB, larger than the last-level cache,
/// like the executor's join inputs and intermediate results.
const std::vector<uint32_t>& ReferenceTable() {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(uint32_t{8} << 20);
    uint64_t x = 0x2545F4914F6CDD1Dull;
    for (uint32_t& v : t) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      v = static_cast<uint32_t>(x >> 33);
    }
    return t;
  }();
  return table;
}

/// Compute kernel: hash-map build and probes, a sort and number
/// formatting, a fixed mix of the cache-resident work the program does.
double ComputeKernelSeconds() {
  const auto start = Clock::now();
  uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 10000; ++i) map[next() % 40000] = i;
  uint64_t sum = 0;
  for (int i = 0; i < 40000; ++i) {
    auto it = map.find(next() % 40000);
    if (it != map.end()) sum += it->second;
  }
  std::vector<double> values(10000);
  for (double& v : values) v = static_cast<double>(next() % 1000000) / 7.0;
  std::sort(values.begin(), values.end());
  char buf[64];
  for (size_t i = 0; i < 4000; ++i) {
    std::snprintf(buf, sizeof(buf), "%.6f", values[i]);
    sum += static_cast<uint64_t>(std::strtod(buf, nullptr));
  }
  reference_sink = sum;
  return MicrosBetween(start, Clock::now()) / 1e6;
}

/// Memory kernel: dependent random reads and a sequential scan over the
/// table.
double MemoryKernelSeconds() {
  const std::vector<uint32_t>& table = ReferenceTable();
  const auto start = Clock::now();
  uint64_t sum = 0;
  uint32_t at = 1;
  for (int i = 0; i < 20000; ++i) at = table[(at + i) & (table.size() - 1)];
  sum += at;
  for (size_t i = 0; i < table.size() / 4; ++i) sum += table[i];
  reference_sink = sum;
  return MicrosBetween(start, Clock::now()) / 1e6;
}

template <typename Kernel>
double BestOfThree(Kernel kernel) {
  double best = kernel();
  for (int i = 0; i < 2; ++i) best = std::min(best, kernel());
  return best;
}

}  // namespace

ReferenceTimes MeasureReference() {
  return ReferenceTimes{BestOfThree(ComputeKernelSeconds),
                        BestOfThree(MemoryKernelSeconds)};
}

HostSpeed::HostSpeed() { Sample(); }

void HostSpeed::Sample() {
  const ReferenceTimes now = MeasureReference();
  compute_.push_back(now.compute_s);
  memory_.push_back(now.memory_s);
}

double HostSpeed::Factor() const {
  const double slowdown =
      (1 - kMemoryWeight) * Median(compute_) / kNominalCompute_s +
      kMemoryWeight * Median(memory_) / kNominalMemory_s;
  return 1.0 / slowdown;
}

void WorkloadResult::Mismatch(const std::string& what) {
  correct = false;
  if (errors.size() < 10) errors.push_back(what);
}

namespace {

struct OneSetup {
  Panel panel;
  double env_s = 0.0;
  double build_s = 0.0;
  double total_s = 0.0;
};

Result<OneSetup> SetUpOnce(const Args& args, size_t copies_per_estimator) {
  OneSetup out;
  cardbench::Stopwatch total;
  // The paper's fixed benchmark: the STATS database at scale 1.0 and its
  // 146-query STATS-CEB workload, both generated from datagen seed 2021.
  // The benchmark's --seed varies what runs against it (order, fresh
  // serving variants, swap positions), never the database itself, so runs
  // under different seeds measure the same work.
  BenchFlags flags;
  flags.scale = 1.0;
  flags.seed = 2021;
  flags.cache_dir = args.cache_dir;
  cardbench::Stopwatch env_watch;
  auto env = BenchEnv::Create(BenchDataset::kStats, flags);
  if (!env.ok()) return env.status();
  out.panel.env = std::move(*env);
  out.env_s = env_watch.ElapsedSeconds();

  cardbench::Stopwatch build_watch;
  for (const std::string& name : PanelNames()) {
    auto est = out.panel.env->MakeNamedEstimator(name);
    if (!est.ok()) return est.status();
    std::vector<std::unique_ptr<CardinalityEstimator>> copies;
    if (copies_per_estimator > 0) {
      std::ostringstream blob;
      CARDBENCH_RETURN_IF_ERROR((*est)->Serialize(blob));
      const std::string bytes = blob.str();
      for (size_t c = 0; c < copies_per_estimator; ++c) {
        std::istringstream in(bytes);
        auto copy = cardbench::DeserializeEstimator(
            name, out.panel.env->db(), in);
        if (!copy.ok()) return copy.status();
        copies.push_back(std::move(*copy));
      }
    }
    out.panel.estimators.push_back(std::move(*est));
    out.panel.copies.push_back(std::move(copies));
  }
  out.build_s = build_watch.ElapsedSeconds();
  out.total_s = total.ElapsedSeconds();
  return out;
}

}  // namespace

Result<SetupResult> SetUp(const Args& args, size_t repeats,
                          size_t copies_per_estimator) {
  SetupResult result;
  std::vector<double> totals, envs, builds;
  for (size_t r = 0; r < repeats; ++r) {
    // Release the previous set-up first (models before the database they
    // point into), so peak memory is one environment's, not `repeats`.
    result.panel.copies.clear();
    result.panel.estimators.clear();
    result.panel.env.reset();
    auto one = SetUpOnce(args, copies_per_estimator);
    if (!one.ok()) return one.status();
    totals.push_back(one->total_s);
    envs.push_back(one->env_s);
    builds.push_back(one->build_s);
    result.panel = std::move(one->panel);
  }
  // Set-up is not scaled by HostSpeed: it is dominated by allocation and
  // page faults, which track the reference kernels poorly (scaling made
  // its run-to-run spread wider, not narrower).
  result.setup_s = Median(totals);
  result.env_s = Median(envs);
  result.build_s = Median(builds);
  result.repeats = repeats;
  return result;
}

}  // namespace perfbench
