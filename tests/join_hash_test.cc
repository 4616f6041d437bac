#include "exec/join_hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"

namespace cardbench {
namespace {

/// JoinKeySource over plain vectors — the unit-test stand-in for the
/// executor's TupleSet-backed source.
class VectorKeySource final : public JoinKeySource {
 public:
  VectorKeySource(std::vector<Value> keys, std::vector<uint8_t> valid)
      : keys_(std::move(keys)), valid_(std::move(valid)) {}

  void GatherKeys(size_t lo, size_t hi, Value* keys,
                  uint8_t* valid) const override {
    for (size_t i = lo; i < hi; ++i) {
      keys[i - lo] = keys_[i];
      valid[i - lo] = valid_[i];
    }
  }

  size_t size() const { return keys_.size(); }
  const std::vector<Value>& keys() const { return keys_; }
  const std::vector<uint8_t>& valid() const { return valid_; }

 private:
  std::vector<Value> keys_;
  std::vector<uint8_t> valid_;
};

/// Random build input: `n` keys over a domain sized for heavy duplication,
/// with an occasional NULL.
VectorKeySource MakeInput(size_t n, uint64_t seed, int64_t domain,
                          double null_fraction = 0.05) {
  std::mt19937_64 rng(seed);
  std::vector<Value> keys(n);
  std::vector<uint8_t> valid(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<Value>(rng() % static_cast<uint64_t>(domain));
    valid[i] =
        (rng() % 1000) < static_cast<uint64_t>(null_fraction * 1000) ? 0 : 1;
  }
  return VectorKeySource(std::move(keys), std::move(valid));
}

/// The semantics the table must reproduce: per-key build rows in ascending
/// order (vector push_back over ascending i), NULLs skipped.
std::unordered_map<Value, std::vector<uint32_t>> Reference(
    const VectorKeySource& input) {
  std::unordered_map<Value, std::vector<uint32_t>> ref;
  for (size_t i = 0; i < input.size(); ++i) {
    if (input.valid()[i]) {
      ref[input.keys()[i]].push_back(static_cast<uint32_t>(i));
    }
  }
  return ref;
}

/// Asserts the table enumerates exactly the reference postings, in the
/// reference (ascending build row) order, for every key in the reference
/// and for a batch of absent keys.
void ExpectMatchesReference(
    const JoinHashTable& table,
    const std::unordered_map<Value, std::vector<uint32_t>>& ref,
    int64_t domain) {
  size_t total = 0;
  for (const auto& [key, rows] : ref) {
    std::vector<uint32_t> got;
    EXPECT_TRUE(table.ForEachMatch(key, JoinKeyHash(key), [&](uint32_t row) {
      got.push_back(row);
      return true;
    }));
    EXPECT_EQ(got, rows) << "key=" << key;
    EXPECT_EQ(table.CountMatches(key, JoinKeyHash(key)), rows.size());
    total += rows.size();
  }
  EXPECT_EQ(table.num_entries(), total);
  for (int64_t miss = domain; miss < domain + 64; ++miss) {
    EXPECT_EQ(table.CountMatches(miss, JoinKeyHash(miss)), 0u)
        << "absent key " << miss;
  }
}

TEST(JoinHashTest, MatchesReferenceAcrossSizesAndFanouts) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{1000},
                   size_t{50000}}) {
    const int64_t domain = std::max<int64_t>(1, static_cast<int64_t>(n / 4));
    const auto input = MakeInput(n, /*seed=*/n + 1, domain);
    const auto ref = Reference(input);
    for (size_t radix_bits : {size_t{0}, size_t{3}, size_t{8}}) {
      JoinHashConfig config;
      config.radix_bits = radix_bits;
      JoinHashTable table;
      ASSERT_TRUE(table.Build(input, n, config, nullptr, nullptr))
          << "n=" << n << " radix_bits=" << radix_bits;
      ExpectMatchesReference(table, ref, domain);
    }
  }
}

TEST(JoinHashTest, ParallelBuildIsDeterministic) {
  const size_t n = 200000;  // several morsels per worker
  const auto input = MakeInput(n, /*seed=*/7, /*domain=*/n / 8);
  const auto ref = Reference(input);
  ThreadPool pool(4);
  JoinMorselRunner runner = [&pool](size_t count,
                                    const std::function<void(size_t)>& fn) {
    ParallelFor(pool, count, fn);
  };
  for (size_t radix_bits : {size_t{0}, size_t{4}, size_t{8}}) {
    JoinHashConfig config;
    config.radix_bits = radix_bits;
    JoinHashTable table;
    ASSERT_TRUE(table.Build(input, n, config, runner, nullptr));
    ExpectMatchesReference(table, ref, static_cast<int64_t>(n / 8));
  }
}

TEST(JoinHashTest, AllNullBuildJoinsNothing) {
  const size_t n = 1000;
  VectorKeySource input(std::vector<Value>(n, 42),
                        std::vector<uint8_t>(n, 0));
  JoinHashTable table;
  ASSERT_TRUE(table.Build(input, n, JoinHashConfig(), nullptr, nullptr));
  EXPECT_EQ(table.num_entries(), 0u);
  EXPECT_EQ(table.CountMatches(42, JoinKeyHash(42)), 0u);
}

TEST(JoinHashTest, SingleKeyHeavyDuplication) {
  // Every entry shares one key: the probe chain is one long run; order must
  // still be ascending and complete.
  const size_t n = 4096;
  VectorKeySource input(std::vector<Value>(n, -17),
                        std::vector<uint8_t>(n, 1));
  JoinHashTable table;
  ASSERT_TRUE(table.Build(input, n, JoinHashConfig(), nullptr, nullptr));
  std::vector<uint32_t> got;
  EXPECT_TRUE(table.ForEachMatch(-17, JoinKeyHash(-17), [&](uint32_t row) {
    got.push_back(row);
    return true;
  }));
  ASSERT_EQ(got.size(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], static_cast<uint32_t>(i));
  }
}

TEST(JoinHashTest, ForEachMatchStopsWhenCallbackDeclines) {
  const size_t n = 100;
  VectorKeySource input(std::vector<Value>(n, 5), std::vector<uint8_t>(n, 1));
  JoinHashTable table;
  ASSERT_TRUE(table.Build(input, n, JoinHashConfig(), nullptr, nullptr));
  size_t seen = 0;
  EXPECT_FALSE(table.ForEachMatch(5, JoinKeyHash(5), [&](uint32_t) {
    return ++seen < 10;
  }));
  EXPECT_EQ(seen, 10u);
}

TEST(JoinHashTest, BuildAbortsWhenBudgetTrips) {
  const size_t n = 100000;
  const auto input = MakeInput(n, /*seed=*/3, /*domain=*/1000);
  JoinHashConfig config;
  JoinHashTable table;
  EXPECT_FALSE(
      table.Build(input, n, config, nullptr, [] { return false; }));
}

TEST(JoinHashTest, RadixBitsClampedToMaximum) {
  const size_t n = 64;
  const auto input = MakeInput(n, /*seed=*/5, /*domain=*/16, 0.0);
  JoinHashConfig config;
  config.radix_bits = 40;  // absurd; must clamp, not allocate 2^40 parts
  JoinHashTable table;
  ASSERT_TRUE(table.Build(input, n, config, nullptr, nullptr));
  EXPECT_EQ(table.fanout(),
            size_t{1} << JoinHashConfig::kMaxRadixBits);
  ExpectMatchesReference(table, Reference(input), 16);
}

}  // namespace
}  // namespace cardbench
