// serve-mixed: cardserved (CardServer over EstimationService) on a loopback
// port, driven by one process over kConnections client connections.
// Requests round-robin over the panel. Half replay the 146 STATS-CEB SQL
// texts (sub-plan cache hits once warm); the other half are fresh-constant
// variants of the same join templates (guaranteed misses through
// RequestExecutor::Compile and inference). The load thread that reaches
// one of the fixed swap positions of the stream hot-swaps the next panel
// estimator in turn for a deserialized copy, which bumps its model version
// and invalidates its cached entries: writes beside the reads.
//
// The run first offers a fixed nominal rate open-loop over every
// connection, with the swaps: each request is due at a fixed time and its
// latency runs from that due time, so a stall also charges the requests
// queued behind it (reported as a note, and as loadgen.* in the traced
// run). After a warm-up that refills what the swaps invalidated, one
// connection sends back to back: op_p50_us, op_p99_us and ops_per_s come
// from this serial phase, whose run-to-run spread stays a few percent where
// the open-loop figures swung by tens of percent on a shared host. Every
// response is checked afterwards: its sub-plan set equals the graph's
// connected subsets and its cards equal, bit for bit, the in-process
// EstimateCards of the same estimator.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "bench_common.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "query/parser.h"
#include "query/query_graph.h"
#include "server/client.h"
#include "server/request_executor.h"
#include "server/server.h"
#include "service/estimation_service.h"
#include "workload/workload_gen.h"

namespace perfbench {
namespace {

using cardbench::CardinalityEstimator;
using cardbench::StrFormat;

// Load shape. Rates are fixed (not derived from the machine), so runs on
// different commits offer identical schedules.
constexpr size_t kConnections = 4;        // load threads, one connection each
constexpr size_t kServiceThreads = 4;     // EstimationService workers
constexpr double kNominalRate = 500.0;    // open-loop requests/s
// Phases run in windows with the reference kernel between them (HostSpeed).
constexpr double kWindowSeconds = 0.5;
// Stream positions between hot-swaps. Swaps happen only in open-loop
// phases, whose positions are fixed, so every run swaps at the same
// points whatever the machine's speed.
constexpr size_t kSwapEvery = 700;
constexpr size_t kSwapsPerEstimator = 3;  // prepared copies for hot-swaps
// Stream positions a closed-loop phase may use per second (several times
// what one connection completes today).
constexpr double kClosedLoopMaxRate = 12000;

/// One request of the stream.
struct Request {
  size_t estimator = 0;  // panel index
  bool replay = false;
  size_t query = 0;      // workload index (replays only)
  std::string sql;
};

/// One served request, as observed by the load generator.
struct Sample {
  double latency_us = 0.0;  // due time -> response
  double lag_us = 0.0;      // due time -> send
  double call_us = 0.0;     // send -> response
  double server_us = 0.0;   // server-side elapsed (admission -> marshal)
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t digest = 0;
  bool sent = false;
  bool ok = false;
};

/// FNV-1a over (mask, card bits) in mask order: equal digests mean the
/// same sub-plan set with bit-identical cards.
uint64_t CardsDigest(std::vector<std::pair<uint64_t, double>> cards) {
  std::sort(cards.begin(), cards.end());
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [mask, card] : cards) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(card));
    std::memcpy(&bits, &card, sizeof(bits));
    mix(mask);
    mix(bits);
  }
  return h;
}

/// The request stream, deterministic in the seed.
std::vector<Request> BuildStream(cardbench::BenchEnv& env,
                                 uint64_t seed, size_t count) {
  const auto& queries = env.workload().queries;
  std::set<std::string> seen;
  std::vector<std::string> replay_sql;
  for (const auto& q : queries) {
    replay_sql.push_back(q.ToSql());
    seen.insert(replay_sql.back());
  }
  // Stratified, so every stretch of the stream has the same mix: positions
  // cycle through the panel, alternate replay and fresh blocks of one
  // request per estimator, and walk the workload in seeded permutations.
  cardbench::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  const size_t panel = PanelNames().size();
  std::vector<size_t> replay_order, fresh_order;
  std::vector<Request> stream;
  stream.reserve(count);
  for (size_t k = 0; k < count; ++k) {
    Request r;
    r.estimator = k % panel;
    r.replay = (k / panel) % 2 == 0;
    std::vector<size_t>& order = r.replay ? replay_order : fresh_order;
    if (order.empty()) order = rng.Permutation(queries.size());
    const size_t q = order.back();
    order.pop_back();
    if (r.replay) {
      r.query = q;
      r.sql = replay_sql[q];
    } else {
      // A fresh-constant variant: the template's tables and joins with new
      // predicates drawn from the column distributions, never seen before.
      // A template whose predicate space runs short gets one more
      // predicate per eight repeats, so the loop always ends.
      const cardbench::Query& base = queries[q];
      for (size_t repeats = 0;; ++repeats) {
        cardbench::Query variant;
        variant.tables = base.tables;
        variant.joins = base.joins;
        cardbench::AddRandomPredicates(
            env.db(), rng,
            std::max<size_t>(1, base.predicates.size()) + repeats / 8,
            variant);
        r.sql = variant.ToSql();
        if (seen.insert(r.sql).second) break;
      }
    }
    stream.push_back(std::move(r));
  }
  return stream;
}

/// Shared state of one serve-mixed run.
class ServeRun {
 public:
  ServeRun(SetupResult& setup, uint64_t seed, bool traced,
           WorkloadResult& result)
      : setup_(setup),
        env_(*setup.panel.env),
        reserved_copies_(traced ? 1 : 0),
        result_(result),
        stream_seed_(seed),
        service_(ServiceOptionsFor()),
        server_(service_, env_.db()),
        compiler_(service_, env_.db(), /*graph_cache_capacity=*/1 << 16) {
    for (size_t e = 0; e < PanelNames().size(); ++e) {
      counters_.push_back(std::make_unique<EstimatorCounters>());
      versions_.push_back(1);
    }
  }

  ~ServeRun() {
    server_.Stop();
    service_.Shutdown();
  }

  cardbench::Status Start(size_t stream_length) {
    stream_ = BuildStream(env_, stream_seed_, stream_length);
    for (size_t e = 0; e < PanelNames().size(); ++e) {
      service_.RegisterEstimator(NextCopy(e, /*timed=*/false));
    }
    CARDBENCH_RETURN_IF_ERROR(server_.Start());
    for (size_t c = 0; c < kConnections; ++c) {
      auto client = std::make_unique<cardbench::CardClient>();
      CARDBENCH_RETURN_IF_ERROR(client->Connect("127.0.0.1", server_.port()));
      clients_.push_back(std::move(client));
    }
    return cardbench::Status::OK();
  }

  /// Untimed: every replay SQL once per estimator, so replays hit.
  void WarmUp() {
    std::vector<Request> warm;
    for (size_t q = 0; q < env_.workload().queries.size(); ++q) {
      for (size_t e = 0; e < PanelNames().size(); ++e) {
        warm.push_back(Request{e, true, q, env_.workload().queries[q].ToSql()});
      }
    }
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        for (size_t k; (k = next.fetch_add(1)) < warm.size();) {
          cardbench::ServerRequest request;
          request.estimator = PanelNames()[warm[k].estimator];
          request.sql = warm[k].sql;
          (void)clients_[c]->Call(request);
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  /// Serves the next stream positions over the first `connections` socket
  /// connections for `seconds`. Open loop at `rate` > 0: position i is due
  /// at start + i / rate and latency runs from its due time; the load
  /// thread that reaches a swap position hot-swaps first. Closed loop at
  /// `rate` == 0: each connection sends its next request as soon as the
  /// previous one returns (latency from send).
  std::vector<Sample> RunSocketPhase(double rate, double seconds,
                                     size_t connections) {
    const size_t begin = cursor_;
    const size_t count = std::min(
        stream_.size() - begin,
        static_cast<size_t>((rate > 0 ? rate : kClosedLoopMaxRate) * seconds));
    std::vector<Sample> samples(count);
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        cardbench::ServerRequest request;
        for (size_t i; (i = next.fetch_add(1)) < count;) {
          const Request& r = stream_[begin + i];
          request.id = begin + i;
          request.estimator = PanelNames()[r.estimator];
          request.sql = r.sql;
          auto due = Clock::now();
          if (rate > 0) {
            due = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(i / rate));
            std::this_thread::sleep_until(due);
          } else if (due >= stop) {
            break;
          }
          const size_t position = begin + i;
          if (rate > 0 && position % kSwapEvery == 0) {
            Swap((position / kSwapEvery) % PanelNames().size());
          }
          const auto sent = Clock::now();
          auto response = clients_[c]->Call(request);
          const auto done = Clock::now();
          Sample& s = samples[i];
          s.sent = true;
          s.latency_us = MicrosBetween(due, done);
          s.lag_us = std::max(0.0, MicrosBetween(due, sent));
          s.call_us = MicrosBetween(sent, done);
          if (!response.ok() || !response->ok()) continue;
          s.ok = true;
          s.server_us = response->elapsed_us;
          s.hits = response->cache_hits;
          s.misses = response->cache_misses;
          s.digest = CardsDigest({response->cards.begin(),
                                  response->cards.end()});
        }
      });
    }
    for (auto& t : threads) t.join();
    // A closed loop stops early: keep the positions it reached.
    while (!samples.empty() && !samples.back().sent) samples.pop_back();
    cursor_ += samples.size();
    AccountPhase(begin, samples);
    return samples;
  }

  /// The same kind of stream segment through EstimationService::Submit
  /// with no sockets: one generator submits at the due times, callbacks
  /// record completion. Graphs are compiled before the phase starts.
  std::vector<Sample> RunInProcessPhase(double rate, double seconds) {
    const size_t begin = cursor_;
    const size_t count =
        std::min(stream_.size() - begin, static_cast<size_t>(rate * seconds));
    cursor_ += count;
    std::vector<std::shared_ptr<const cardbench::QueryGraph>> graphs;
    for (size_t i = 0; i < count; ++i) {
      auto graph = Compile(stream_[begin + i]);
      if (!graph.ok()) {
        result_.Mismatch("compile failed: " + graph.status().ToString());
        return {};
      }
      graphs.push_back(*graph);
    }
    std::vector<Sample> samples(count);
    std::vector<Clock::time_point> dues(count);
    std::mutex mu;
    std::condition_variable cv;
    size_t completed = 0;
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    for (size_t i = 0; i < count; ++i) {
      dues[i] = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(i / rate));
      std::this_thread::sleep_until(dues[i]);
      samples[i].lag_us = std::max(0.0, MicrosBetween(dues[i], Clock::now()));
      cardbench::EstimateRequest request;
      request.estimator = PanelNames()[stream_[begin + i].estimator];
      request.graph = graphs[i].get();
      const cardbench::Status admitted = service_.Submit(
          std::move(request), [&, i](cardbench::EstimateResponse response) {
            Sample& s = samples[i];
            s.latency_us = MicrosBetween(dues[i], Clock::now());
            if (response.status.ok()) {
              s.ok = true;
              s.hits = response.cache_hits;
              s.misses = response.cache_misses;
              s.digest = CardsDigest({response.cards.begin(),
                                      response.cards.end()});
            }
            std::lock_guard<std::mutex> lock(mu);
            ++completed;
            cv.notify_one();
          });
      if (!admitted.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        ++completed;
      }
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == count; });
    lock.unlock();
    AccountPhase(begin, samples);
    return samples;
  }

  /// Replaces every served model with a timed copy (traced runs), then
  /// re-warms the cache the swap invalidated.
  void SwitchToTimed() {
    traced_swaps_ = true;
    reserved_copies_ = 0;
    for (size_t e = 0; e < PanelNames().size(); ++e) {
      service_.HotSwapEstimator(NextCopy(e, /*timed=*/true), ++versions_[e]);
    }
    WarmUp();
  }

  /// Checks every recorded response against in-process estimation.
  void Verify() {
    struct Work {
      size_t position;
      uint64_t digest;
    };
    std::vector<Work> work;
    for (const auto& [position, digest] : recorded_) {
      work.push_back(Work{position, digest});
    }
    std::map<std::pair<size_t, size_t>, uint64_t> replay_digest;
    for (size_t q = 0; q < env_.workload().queries.size(); ++q) {
      cardbench::QueryGraph graph(env_.workload().queries[q], env_.db());
      for (size_t e = 0; e < PanelNames().size(); ++e) {
        replay_digest[{q, e}] = ExpectedDigest(graph, e);
      }
    }
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kConnections; ++t) {
      threads.emplace_back([&] {
        UnpinCurrentThread();  // checking is not measured; use every CPU
        for (size_t k; (k = next.fetch_add(1)) < work.size();) {
          const Request& r = stream_[work[k].position];
          uint64_t expected = 0;
          if (r.replay) {
            expected = replay_digest.at({r.query, r.estimator});
          } else {
            auto parsed = cardbench::ParseSql(r.sql);
            if (!parsed.ok()) {
              std::lock_guard<std::mutex> lock(mu);
              result_.Mismatch("stream SQL does not parse: " + r.sql);
              continue;
            }
            cardbench::QueryGraph graph(*parsed, env_.db());
            expected = ExpectedDigest(graph, r.estimator);
          }
          if (expected != work[k].digest) {
            std::lock_guard<std::mutex> lock(mu);
            result_.Mismatch(StrFormat(
                "request %zu (%s, %s) answered cards that differ from "
                "in-process EstimateCards",
                work[k].position, PanelNames()[r.estimator].c_str(),
                r.replay ? "replay" : "fresh"));
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  /// Samples service queue depth every millisecond until stopped.
  class QueueSampler {
   public:
    explicit QueueSampler(const cardbench::EstimationService& service)
        : thread_([this, &service] {
            while (!stop_.load()) {
              depths_.push_back(static_cast<double>(service.queue_size()));
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          }) {}
    ~QueueSampler() { Stop(); }
    QueueSampler(const QueueSampler&) = delete;
    QueueSampler& operator=(const QueueSampler&) = delete;
    const std::vector<double>& Stop() {
      stop_.store(true);
      if (thread_.joinable()) thread_.join();
      return depths_;
    }

   private:
    std::atomic<bool> stop_{false};
    std::vector<double> depths_;
    std::thread thread_;
  };

  /// Times RequestExecutor::Compile and the ParseSql + ValidateQuery /
  /// QueryGraph layers on the fresh SQL of the next `count` positions.
  void TimeCompileLayers(size_t count) {
    for (size_t i = cursor_; i < std::min(stream_.size(), cursor_ + count); ++i) {
      const Request& r = stream_[i];
      if (r.replay) continue;
      const auto t0 = Clock::now();
      auto parsed = cardbench::ParseSql(r.sql);
      const bool valid =
          parsed.ok() && cardbench::ValidateQuery(*parsed, env_.db()).ok();
      const auto t1 = Clock::now();
      if (!valid) continue;
      cardbench::QueryGraph graph(*parsed, env_.db());
      const auto t2 = Clock::now();
      parse_us_.push_back(MicrosBetween(t0, t1));
      graph_us_.push_back(MicrosBetween(t1, t2));
    }
  }

  cardbench::EstimationService& service() { return service_; }
  std::vector<EstimatorCounters*> counters() const {
    std::vector<EstimatorCounters*> out;
    for (const auto& c : counters_) out.push_back(c.get());
    return out;
  }
  const std::vector<double>& swap_us() const { return swap_us_; }
  const std::vector<double>& server_compile_us() const {
    return server_compile_us_;
  }
  const std::vector<double>& parse_us() const { return parse_us_; }
  const std::vector<double>& graph_us() const { return graph_us_; }

 private:
  static cardbench::ServiceOptions ServiceOptionsFor() {
    cardbench::ServiceOptions options;
    options.num_threads = kServiceThreads;
    return options;
  }

  std::unique_ptr<CardinalityEstimator> NextCopy(size_t e, bool timed) {
    auto& copies = setup_.panel.copies[e];
    std::unique_ptr<CardinalityEstimator> copy = std::move(copies.back());
    copies.pop_back();
    if (!timed) return copy;
    return std::make_unique<TimedEstimator>(std::move(copy), *counters_[e]);
  }

  /// Hot-swaps estimator `e` for its next prepared copy, if one is left.
  void Swap(size_t e) {
    std::lock_guard<std::mutex> lock(swap_mu_);
    if (setup_.panel.copies[e].size() <= reserved_copies_) return;
    auto copy = NextCopy(e, traced_swaps_);
    const auto t0 = Clock::now();
    service_.HotSwapEstimator(std::move(copy), ++versions_[e]);
    swap_us_.push_back(MicrosBetween(t0, Clock::now()));
  }

  cardbench::Result<std::shared_ptr<const cardbench::QueryGraph>> Compile(
      const Request& r) {
    if (r.replay) return compiler_.Compile(r.sql);
    const auto t0 = Clock::now();
    auto graph = compiler_.Compile(r.sql);
    server_compile_us_.push_back(MicrosBetween(t0, Clock::now()));
    return graph;
  }

  uint64_t ExpectedDigest(const cardbench::QueryGraph& graph, size_t e) const {
    const auto& masks = graph.connected_subsets();
    const std::vector<double> cards =
        setup_.panel.estimators[e]->EstimateCards(graph, masks);
    std::vector<std::pair<uint64_t, double>> pairs;
    for (size_t i = 0; i < masks.size(); ++i) {
      pairs.emplace_back(masks[i], cards[i]);
    }
    return CardsDigest(std::move(pairs));
  }

  void AccountPhase(size_t begin, const std::vector<Sample>& samples) {
    for (size_t i = 0; i < samples.size(); ++i) {
      if (!samples[i].sent) continue;
      ++result_.attempted;
      if (!samples[i].ok) {
        ++result_.failed;
        continue;
      }
      recorded_.emplace_back(begin + i, samples[i].digest);
    }
  }

  SetupResult& setup_;
  cardbench::BenchEnv& env_;
  bool traced_swaps_ = false;
  // Copies per estimator that Swap leaves for SwitchToTimed (traced runs).
  size_t reserved_copies_;
  WorkloadResult& result_;
  const uint64_t stream_seed_;
  std::vector<Request> stream_;
  size_t cursor_ = 0;
  std::vector<std::unique_ptr<EstimatorCounters>> counters_;
  std::mutex swap_mu_;  // guards the copies, versions_ and swap_us_
  std::vector<uint64_t> versions_;
  std::vector<double> swap_us_;
  std::vector<double> server_compile_us_;
  std::vector<double> parse_us_;
  std::vector<double> graph_us_;
  std::vector<std::pair<size_t, uint64_t>> recorded_;
  std::vector<std::unique_ptr<cardbench::CardClient>> clients_;
  // Declared last: destroyed first, before the state their threads use.
  cardbench::EstimationService service_;
  cardbench::CardServer server_;
  cardbench::RequestExecutor compiler_;
};

std::vector<double> Field(const std::vector<Sample>& samples,
                          double Sample::*field) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.ok) out.push_back(s.*field);
  }
  return out;
}

/// p99 of due-time latency, counting failed requests as misses.
double P99WithFailures(const std::vector<Sample>& samples) {
  std::vector<double> latencies;
  for (const Sample& s : samples) {
    if (!s.sent) continue;
    latencies.push_back(s.ok ? s.latency_us
                             : std::numeric_limits<double>::infinity());
  }
  return Quantile(latencies, 0.99);
}

/// A phase run as windows of kWindowSeconds with the reference kernels
/// timed between them; every time is scaled to the nominal host speed.
std::vector<Sample> RunWindows(ServeRun& run, double rate, double seconds,
                               size_t connections) {
  std::vector<Sample> phase;
  HostSpeed speed;
  const size_t windows = std::max<size_t>(
      1, static_cast<size_t>(seconds / kWindowSeconds + 0.5));
  for (size_t w = 0; w < windows; ++w) {
    std::vector<Sample> window =
        run.RunSocketPhase(rate, kWindowSeconds, connections);
    speed.Sample();
    phase.insert(phase.end(), window.begin(), window.end());
  }
  const double f = speed.Factor();
  for (Sample& s : phase) {
    s.latency_us *= f;
    s.lag_us *= f;
    s.call_us *= f;
    s.server_us *= f;
  }
  return phase;
}

}  // namespace

WorkloadResult RunServeWorkload(const Args& args) {
  WorkloadResult result;
  // Stream positions: the open-loop phases use kNominalRate per second,
  // the serial phases at most kClosedLoopMaxRate.
  const size_t stream_length = static_cast<size_t>(
      (kNominalRate + kClosedLoopMaxRate) * args.seconds);
  // One copy per estimator to register, kSwapsPerEstimator for hot-swaps,
  // and in traced runs one more for the switch to timed estimators.
  const size_t copies = 1 + kSwapsPerEstimator + (args.trace ? 1 : 0);
  auto setup = SetUp(args, kSetupRepeats, copies);
  if (!setup.ok()) {
    result.Mismatch("set-up failed: " + setup.status().ToString());
    return result;
  }

  ServeRun run(*setup, args.seed, args.trace, result);
  const cardbench::Status started = run.Start(stream_length);
  if (!started.ok()) {
    result.Mismatch("server start failed: " + started.ToString());
    return result;
  }
  run.WarmUp();

  // The writer phase: open-loop reads at the nominal rate with hot-swaps
  // beside them. The warm-up after it re-fills what the swaps invalidated,
  // so the serial phase starts from the same state in every run.
  const std::vector<Sample> writer =
      RunWindows(run, kNominalRate, 0.3 * args.seconds, kConnections);
  const std::vector<double> writer_latency = Field(writer, &Sample::latency_us);
  result.notes.push_back(StrFormat(
      "writer phase, %.0f req/s open loop over %zu connections: latency from "
      "due time p50 %.1f us, p99 %.1f us (n=%zu)",
      kNominalRate, kConnections, Quantile(writer_latency, 0.50),
      P99WithFailures(writer), writer_latency.size()));
  run.WarmUp();
  if (!args.trace) {
    const std::vector<Sample> serial =
        RunWindows(run, 0, 0.7 * args.seconds, 1);
    run.Verify();
    const std::vector<double> latency = Field(serial, &Sample::latency_us);
    result.Add("setup_s", setup->setup_s, "s", setup->repeats);
    result.Add("peak_rss_mb", PeakRssMib(), "MiB");
    result.Add("op_p50_us", Quantile(latency, 0.50), "us", latency.size());
    result.Add("op_p99_us", P99WithFailures(serial), "us", latency.size());
    result.Add("ops_per_s", 1e6 / Mean(latency), "1/s", latency.size());
    return result;
  }

  // Traced run: the serial phase untraced (the overhead baseline), then
  // with timed estimators: the serial phase again, the open-loop writer
  // phase under a queue sampler, and the in-process path through
  // EstimationService::Submit.
  const std::vector<Sample> untraced =
      RunWindows(run, 0, 0.2 * args.seconds, 1);
  run.SwitchToTimed();
  const std::vector<Sample> serial = RunWindows(run, 0, 0.2 * args.seconds, 1);
  std::vector<Sample> open;
  std::vector<double> depths;
  {
    ServeRun::QueueSampler sampler(run.service());
    open = RunWindows(run, kNominalRate, 0.3 * args.seconds, kConnections);
    depths = sampler.Stop();
  }
  HostSpeed speed;
  run.TimeCompileLayers(static_cast<size_t>(kNominalRate * 0.2 * args.seconds));
  const std::vector<Sample> inproc =
      run.RunInProcessPhase(kNominalRate, 0.2 * args.seconds);
  speed.Sample();
  // One factor for the layer times measured outside the windows.
  const double f = speed.Factor();
  run.Verify();

  uint64_t hits = 0, misses = 0;
  for (const Sample& s : open) {
    hits += s.hits;
    misses += s.misses;
  }
  uint64_t subplans = 0, nanos = 0, calls = 0;
  const auto counters = run.counters();
  for (size_t e = 0; e < counters.size(); ++e) {
    const uint64_t est_subplans = counters[e]->subplans.load();
    subplans += est_subplans;
    nanos += counters[e]->nanos.load();
    calls += counters[e]->calls.load();
    result.Add("cardest." + PanelNames()[e] + ".ns_per_subplan",
               f * static_cast<double>(counters[e]->nanos.load()) /
                   static_cast<double>(std::max<uint64_t>(1, est_subplans)),
               "ns", est_subplans);
  }
  const std::vector<double> latency = Field(open, &Sample::latency_us);
  const std::vector<double> lag = Field(open, &Sample::lag_us);
  const std::vector<double> call = Field(open, &Sample::call_us);
  const std::vector<double> server = Field(open, &Sample::server_us);
  std::vector<double> inproc_latency = Field(inproc, &Sample::latency_us);
  for (double& us : inproc_latency) us *= f;
  // Per request: due -> send is the generator's lag, admission -> marshal
  // the server's own time; the rest (client and server framing, sockets,
  // event loop) is not covered by a timed call.
  const double covered = Mean(lag) + Mean(server);

  result.Add("query.parse_us", f * Mean(run.parse_us()), "us",
             run.parse_us().size());
  result.Add("query.compile_us", f * Mean(run.graph_us()), "us",
             run.graph_us().size());
  result.Add("cardest.estimate_us",
             f * static_cast<double>(nanos) / 1e3 /
                 static_cast<double>(std::max<uint64_t>(1, calls)),
             "us", calls);
  result.Add("cardest.ns_per_subplan",
             f * static_cast<double>(nanos) /
                 static_cast<double>(std::max<uint64_t>(1, subplans)),
             "ns", subplans);
  result.Add("cardest.subplans", static_cast<double>(subplans), "count");
  result.Add("cardest.build_s", setup->build_s, "s", setup->repeats);
  result.Add("harness.env_s", setup->env_s, "s", setup->repeats);
  result.Add("service.hit_rate",
             static_cast<double>(hits) /
                 static_cast<double>(std::max<uint64_t>(1, hits + misses)),
             "ratio", hits + misses);
  result.Add("service.inproc_p50_us", Quantile(inproc_latency, 0.50), "us",
             inproc_latency.size());
  result.Add("service.inproc_p99_us", Quantile(inproc_latency, 0.99), "us",
             inproc_latency.size());
  result.Add("service.queue_depth_p99", Quantile(depths, 0.99), "count",
             depths.size());
  result.Add("service.process_us",
             f * run.service().avg_process_seconds() * 1e6, "us");
  result.Add("service.swap_us", f * Mean(run.swap_us()), "us",
             run.swap_us().size());
  result.Add("server.compile_us", f * Mean(run.server_compile_us()), "us",
             run.server_compile_us().size());
  result.Add("server.side_p50_us", Quantile(server, 0.50), "us",
             server.size());
  result.Add("server.side_p99_us", Quantile(server, 0.99), "us",
             server.size());
  result.Add("server.wire_us", Quantile(call, 0.50) - Quantile(server, 0.50),
             "us", call.size());
  result.Add("loadgen.open_p50_us", Quantile(latency, 0.50), "us",
             latency.size());
  result.Add("loadgen.open_p99_us", P99WithFailures(open), "us",
             latency.size());
  result.Add("loadgen.lag_p99_us", Quantile(lag, 0.99), "us", lag.size());
  result.Add("trace.unattributed_frac", 1.0 - covered / Mean(latency), "ratio",
             latency.size());
  const std::vector<double> base = Field(untraced, &Sample::latency_us);
  const std::vector<double> timed = Field(serial, &Sample::latency_us);
  result.Add("trace.overhead_frac", Mean(timed) / Mean(base) - 1.0, "ratio",
             timed.size());
  return result;
}

}  // namespace perfbench
