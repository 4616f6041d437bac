#include "cardest/model_store.h"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <utility>

#include "cardest/registry.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/stopwatch.h"

namespace cardbench {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t MixBytes(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t MixU64(uint64_t h, uint64_t v) { return MixBytes(h, &v, sizeof(v)); }

uint64_t MixString(uint64_t h, std::string_view s) {
  h = MixU64(h, s.size());
  return MixBytes(h, s.data(), s.size());
}

uint64_t MixDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return MixU64(h, bits);
}

}  // namespace

ModelStore::ModelStore(std::string dir) : dir_(std::move(dir)) {}

std::string ModelStore::PathFor(const std::string& key) const {
  return dir_ + "/" + key + ".cbm";
}

uint64_t ModelStore::DatasetFingerprint(const Database& db) {
  uint64_t h = kFnvOffset;
  h = MixString(h, db.name());
  h = MixU64(h, db.table_names().size());
  for (const auto& name : db.table_names()) {
    const Table& table = db.TableOrDie(name);
    h = MixString(h, name);
    h = MixU64(h, table.num_rows());
    h = MixU64(h, table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Column& col = table.column(c);
      h = MixString(h, col.name());
      h = MixU64(h, static_cast<uint64_t>(col.kind()));
      // Strided value sample: cheap, but any bulk edit (scale change,
      // shuffled load, inserts) shifts it.
      const size_t rows = col.size();
      const size_t stride = rows > 64 ? rows / 64 : 1;
      for (size_t r = 0; r < rows; r += stride) {
        h = MixU64(h, col.IsValid(r)
                          ? static_cast<uint64_t>(col.Get(r)) + 1
                          : 0);
      }
    }
  }
  for (const auto& rel : db.join_relations()) {
    h = MixString(h, rel.left_table);
    h = MixString(h, rel.left_column);
    h = MixString(h, rel.right_table);
    h = MixString(h, rel.right_column);
  }
  return h;
}

uint64_t ModelStore::WorkloadFingerprint(
    const std::vector<TrainingQuery>& training) {
  uint64_t h = kFnvOffset;
  h = MixU64(h, training.size());
  for (const auto& example : training) {
    h = MixString(h, example.query.CanonicalKey());
    h = MixDouble(h, example.cardinality);
  }
  return h;
}

std::string ModelStore::MakeKey(const std::string& estimator,
                                uint64_t dataset_fingerprint,
                                const EstimatorConfig& config,
                                uint64_t workload_fingerprint) {
  uint64_t h = dataset_fingerprint;
  h = MixU64(h, config.fast ? 1 : 0);
  h = MixU64(h, workload_fingerprint);
  std::string key;
  key.reserve(estimator.size() + 17);
  for (char c : estimator) {
    key.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  key.push_back('-');
  key.append(hex);
  return key;
}

Result<std::unique_ptr<CardinalityEstimator>> ModelStore::BuildOrLoad(
    const std::string& key, const Builder& builder, const Loader& loader,
    ModelStoreStats* stats) {
  ModelStoreStats local;
  ModelStoreStats& s = stats != nullptr ? *stats : local;
  s = ModelStoreStats();
  s.path = PathFor(key);

  std::error_code ec;
  if (std::filesystem::exists(s.path, ec)) {
    std::ifstream in(s.path, std::ios::binary);
    if (in) {
      Stopwatch watch;
      auto loaded = loader(in);
      if (loaded.ok()) {
        s.loaded = true;
        s.load_seconds = watch.ElapsedSeconds();
        return std::move(loaded).value();
      }
      // Corruption (or stale format) fallback: retrain and rewrite below.
      CARDBENCH_LOG("model store: rejected %s (%s); retraining", s.path.c_str(),
                    loaded.status().ToString().c_str());
      s.rebuilt_after_corruption = true;
    }
  }

  Stopwatch watch;
  CARDBENCH_ASSIGN_OR_RETURN(std::unique_ptr<CardinalityEstimator> est,
                             builder());
  s.build_seconds = watch.ElapsedSeconds();

  // Best-effort persist; a failure here leaves the freshly built estimator
  // usable and the previous artifact (if any) untouched.
  std::filesystem::create_directories(dir_, ec);
  const Status persisted = AtomicWriteFile(
      s.path, [&](std::ostream& out) { return est->Serialize(out); });
  // Oracle estimators (TrueCard) have nothing to persist; any other failure
  // is worth a log line.
  if (!persisted.ok() && persisted.code() != StatusCode::kUnsupported) {
    CARDBENCH_LOG("model store: cannot persist %s (%s)", s.path.c_str(),
                  persisted.ToString().c_str());
  }
  return est;
}

}  // namespace cardbench
