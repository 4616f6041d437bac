#include "server/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/file_util.h"
#include "common/str_util.h"

namespace cardbench {

void LatencyHistogram::Record(double seconds) {
  if (!(seconds >= 0.0)) seconds = 0.0;  // NaN and negatives clamp to 0
  size_t index = 0;
  if (seconds > kMinSeconds) {
    index = static_cast<size_t>(
        std::ceil(std::log10(seconds / kMinSeconds) * kBucketsPerDecade));
    if (index >= kNumBuckets) index = kNumBuckets - 1;
  }
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(static_cast<uint64_t>(seconds * 1e9),
                       std::memory_order_relaxed);
}

double LatencyHistogram::BucketUpperBound(size_t index) {
  return kMinSeconds *
         std::pow(10.0, static_cast<double>(index) / kBucketsPerDecade);
}

double LatencyHistogram::Snapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank && seen > 0) return BucketUpperBound(i);
  }
  return BucketUpperBound(kNumBuckets - 1);
}

LatencyHistogram::Snapshot LatencyHistogram::TakeSnapshot() const {
  Snapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_seconds =
      static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

void ServerMetrics::RecordLatency(const std::string& estimator,
                                  double seconds) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = latency_.find(estimator);
    if (it != latency_.end()) {
      it->second->Record(seconds);
      return;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto& slot = latency_[estimator];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  slot->Record(seconds);
}

std::vector<std::pair<std::string, LatencyHistogram::Snapshot>>
ServerMetrics::LatencySnapshots() const {
  std::vector<std::pair<std::string, LatencyHistogram::Snapshot>> out;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    out.reserve(latency_.size());
    for (const auto& [name, histogram] : latency_) {
      out.emplace_back(name, histogram->TakeSnapshot());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void ServerMetrics::RecordRefresh(const std::string& estimator,
                                  uint64_t model_version, double seconds) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  RefreshStats& stats = refresh_[estimator];
  stats.count += 1;
  stats.total_seconds += seconds;
  stats.last_seconds = seconds;
  stats.last_version = model_version;
  stats.last_refresh = std::chrono::steady_clock::now();
}

std::vector<std::pair<std::string, ServerMetrics::RefreshStats>>
ServerMetrics::RefreshSnapshots() const {
  std::vector<std::pair<std::string, RefreshStats>> out;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    out.reserve(refresh_.size());
    for (const auto& [name, stats] : refresh_) out.emplace_back(name, stats);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

namespace {

double StalenessSeconds(const ServerMetrics::RefreshStats& stats) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       stats.last_refresh)
      .count();
}

void AppendCounter(const char* name, uint64_t value, std::string* out) {
  out->append(name);
  out->push_back(' ');
  out->append(std::to_string(value));
  out->push_back('\n');
}

constexpr double kQuantiles[] = {0.5, 0.99, 0.999};
constexpr const char* kQuantileLabels[] = {"0.5", "0.99", "0.999"};

}  // namespace

std::string ServerMetrics::RenderText(const ServerGauges& gauges) const {
  std::string out;
  out.reserve(2048);
  const ServerCounters& c = counters_;
  AppendCounter("cardserved_connections_opened_total",
                c.connections_opened.load(), &out);
  AppendCounter("cardserved_connections_closed_total",
                c.connections_closed.load(), &out);
  AppendCounter("cardserved_requests_total", c.requests_received.load(), &out);
  AppendCounter("cardserved_responses_total", c.responses_sent.load(), &out);
  AppendCounter("cardserved_completed_total", c.completed.load(), &out);
  AppendCounter("cardserved_rejected_total", c.rejected.load(), &out);
  AppendCounter("cardserved_deadline_exceeded_total",
                c.deadline_exceeded.load(), &out);
  AppendCounter("cardserved_failed_total", c.failed.load(), &out);
  AppendCounter("cardserved_malformed_frames_total",
                c.malformed_frames.load(), &out);
  AppendCounter("cardserved_http_requests_total", c.http_requests.load(),
                &out);
  AppendCounter("cardserved_bytes_read_total", c.bytes_read.load(), &out);
  AppendCounter("cardserved_bytes_written_total", c.bytes_written.load(),
                &out);
  AppendCounter("cardserved_queue_depth", gauges.queue_depth, &out);
  AppendCounter("cardserved_queue_capacity", gauges.queue_capacity, &out);
  AppendCounter("cardserved_in_flight", gauges.in_flight, &out);
  AppendCounter("cardserved_open_connections", gauges.open_connections,
                &out);
  AppendCounter("cardserved_cache_hits_total", gauges.cache.hits, &out);
  AppendCounter("cardserved_cache_misses_total", gauges.cache.misses, &out);
  AppendCounter("cardserved_cache_evictions_total", gauges.cache.evictions,
                &out);
  out += StrFormat("cardserved_cache_hit_rate %.6f\n",
                   gauges.cache.HitRate());
  for (const auto& [name, snap] : LatencySnapshots()) {
    for (size_t q = 0; q < 3; ++q) {
      out += StrFormat(
          "cardserved_latency_seconds{estimator=\"%s\",quantile=\"%s\"} "
          "%.9f\n",
          name.c_str(), kQuantileLabels[q], snap.Quantile(kQuantiles[q]));
    }
    out += StrFormat("cardserved_latency_seconds_count{estimator=\"%s\"} "
                     "%llu\n",
                     name.c_str(),
                     static_cast<unsigned long long>(snap.count));
    out += StrFormat("cardserved_latency_seconds_sum{estimator=\"%s\"} "
                     "%.9f\n",
                     name.c_str(), snap.sum_seconds);
  }
  for (const auto& [name, stats] : RefreshSnapshots()) {
    out += StrFormat("cardserved_model_version{estimator=\"%s\"} %llu\n",
                     name.c_str(),
                     static_cast<unsigned long long>(stats.last_version));
    out += StrFormat("cardserved_model_refresh_total{estimator=\"%s\"} "
                     "%llu\n",
                     name.c_str(),
                     static_cast<unsigned long long>(stats.count));
    out += StrFormat(
        "cardserved_model_refresh_seconds_total{estimator=\"%s\"} %.6f\n",
        name.c_str(), stats.total_seconds);
    out += StrFormat(
        "cardserved_model_staleness_seconds{estimator=\"%s\"} %.3f\n",
        name.c_str(), StalenessSeconds(stats));
  }
  return out;
}

std::string ServerMetrics::RenderJson(const ServerGauges& gauges) const {
  const ServerCounters& c = counters_;
  std::string out = "{";
  auto field = [&out](const char* key, uint64_t value, bool first = false) {
    if (!first) out += ",";
    out += "\"";
    out += key;
    out += "\":";
    out += std::to_string(value);
  };
  field("connections_opened", c.connections_opened.load(), true);
  field("connections_closed", c.connections_closed.load());
  field("requests", c.requests_received.load());
  field("responses", c.responses_sent.load());
  field("completed", c.completed.load());
  field("rejected", c.rejected.load());
  field("deadline_exceeded", c.deadline_exceeded.load());
  field("failed", c.failed.load());
  field("malformed_frames", c.malformed_frames.load());
  field("http_requests", c.http_requests.load());
  field("bytes_read", c.bytes_read.load());
  field("bytes_written", c.bytes_written.load());
  field("queue_depth", gauges.queue_depth);
  field("queue_capacity", gauges.queue_capacity);
  field("in_flight", gauges.in_flight);
  field("open_connections", gauges.open_connections);
  field("cache_hits", gauges.cache.hits);
  field("cache_misses", gauges.cache.misses);
  field("cache_evictions", gauges.cache.evictions);
  out += StrFormat(",\"cache_hit_rate\":%.6f", gauges.cache.HitRate());
  out += ",\"latency\":{";
  bool first_estimator = true;
  for (const auto& [name, snap] : LatencySnapshots()) {
    if (!first_estimator) out += ",";
    first_estimator = false;
    out += "\"";
    out += name;  // estimator names are identifier-like; no escaping needed
    out += StrFormat("\":{\"count\":%llu,\"mean_us\":%.3f,"
                     "\"p50_us\":%.3f,\"p99_us\":%.3f,\"p999_us\":%.3f}",
                     static_cast<unsigned long long>(snap.count),
                     snap.MeanSeconds() * 1e6, snap.Quantile(0.5) * 1e6,
                     snap.Quantile(0.99) * 1e6, snap.Quantile(0.999) * 1e6);
  }
  out += "},\"models\":{";
  bool first_model = true;
  for (const auto& [name, stats] : RefreshSnapshots()) {
    if (!first_model) out += ",";
    first_model = false;
    out += "\"";
    out += name;  // estimator names are identifier-like; no escaping needed
    out += StrFormat(
        "\":{\"version\":%llu,\"refreshes\":%llu,"
        "\"refresh_seconds_total\":%.6f,\"last_refresh_seconds\":%.6f,"
        "\"staleness_seconds\":%.3f}",
        static_cast<unsigned long long>(stats.last_version),
        static_cast<unsigned long long>(stats.count), stats.total_seconds,
        stats.last_seconds, StalenessSeconds(stats));
  }
  out += "}}";
  return out;
}

Status ServerMetrics::WriteJsonSnapshot(const std::string& path,
                                        const ServerGauges& gauges) const {
  return AtomicWriteFile(path, [&](std::ostream& out) {
    out << RenderJson(gauges) << "\n";
    return Status::OK();
  });
}

}  // namespace cardbench
