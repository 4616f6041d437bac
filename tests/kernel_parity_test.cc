#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "gtest/gtest.h"
#include "ml/matrix.h"
#include "ml/nn.h"

namespace cardbench {
namespace {

using simd::Cmp;
using simd::KernelTable;
using simd::Level;

// Whether the `n` bytes at `a` and `b` are equal. Unlike std::memcmp it
// takes null pointers for n == 0: an empty vector's data() may be null.
bool SameBytes(const void* a, const void* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n) == 0;
}

// Every tier the host can execute, scalar first. The parity tests compare
// each higher tier against the scalar reference bit for bit.
std::vector<Level> AvailableLevels() {
  std::vector<Level> levels = {Level::kScalar};
  for (Level l : {Level::kAvx2, Level::kAvx512}) {
    if (l <= simd::DetectLevel()) levels.push_back(l);
  }
  return levels;
}

// Sizes crossing every vector-width boundary (1/2/4/8 lanes) plus tails.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 200, 1000};

// Offsets 0..3 shift the data off 32-byte alignment; all kernels take
// unaligned pointers.
const size_t kOffsets[] = {0, 1, 2, 3};

std::vector<double> RandomDoubles(Rng& rng, size_t n, size_t pad) {
  std::vector<double> v(n + pad);
  for (double& x : v) x = rng.NextDouble() * 200.0 - 100.0;
  return v;
}

TEST(KernelParityTest, ElementwiseKernelsBitIdentical) {
  Rng rng(7);
  for (size_t n : kSizes) {
    for (size_t off : kOffsets) {
      const std::vector<double> x0 = RandomDoubles(rng, n, off);
      const std::vector<double> d0 = RandomDoubles(rng, n, off);
      const double a = rng.NextDouble() * 4.0 - 2.0;
      // Scalar reference results for each kernel.
      const KernelTable& ref = simd::KernelsFor(Level::kScalar);
      std::vector<double> axpy_ref = d0, add_ref = d0, scale_ref = x0,
                          bias_ref = x0, relu_ref = x0;
      ref.axpy(axpy_ref.data() + off, x0.data() + off, a, n);
      ref.vec_add(add_ref.data() + off, x0.data() + off, n);
      ref.vec_scale(scale_ref.data() + off, a, n);
      ref.add_bias(bias_ref.data() + off, d0.data() + off, n);
      ref.relu(relu_ref.data() + off, n);
      for (Level level : AvailableLevels()) {
        const KernelTable& kt = simd::KernelsFor(level);
        std::vector<double> axpy = d0, add = d0, scale = x0, bias = x0,
                            relu = x0;
        kt.axpy(axpy.data() + off, x0.data() + off, a, n);
        kt.vec_add(add.data() + off, x0.data() + off, n);
        kt.vec_scale(scale.data() + off, a, n);
        kt.add_bias(bias.data() + off, d0.data() + off, n);
        kt.relu(relu.data() + off, n);
        const size_t bytes = axpy_ref.size() * sizeof(double);
        EXPECT_TRUE(SameBytes(axpy.data(), axpy_ref.data(), bytes))
            << "axpy " << simd::LevelName(level) << " n=" << n;
        EXPECT_TRUE(SameBytes(add.data(), add_ref.data(), bytes))
            << "vec_add " << simd::LevelName(level) << " n=" << n;
        EXPECT_TRUE(SameBytes(scale.data(), scale_ref.data(), bytes))
            << "vec_scale " << simd::LevelName(level) << " n=" << n;
        EXPECT_TRUE(SameBytes(bias.data(), bias_ref.data(), bytes))
            << "add_bias " << simd::LevelName(level) << " n=" << n;
        EXPECT_TRUE(SameBytes(relu.data(), relu_ref.data(), bytes))
            << "relu " << simd::LevelName(level) << " n=" << n;
      }
    }
  }
}

TEST(KernelParityTest, ReluTiesAndSpecialsMatchScalar) {
  // -0.0 must map to +0.0 and NaN to +0.0 in every tier (maxpd semantics,
  // mirrored by the scalar tier).
  const double specials[] = {-0.0, +0.0, std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::infinity(), -1.5, 2.5};
  const size_t n = sizeof(specials) / sizeof(specials[0]);
  std::vector<double> ref(specials, specials + n);
  simd::KernelsFor(Level::kScalar).relu(ref.data(), n);
  for (Level level : AvailableLevels()) {
    std::vector<double> x(specials, specials + n);
    simd::KernelsFor(level).relu(x.data(), n);
    EXPECT_TRUE(SameBytes(x.data(), ref.data(), n * sizeof(double)))
        << simd::LevelName(level);
  }
}

TEST(KernelParityTest, DotBitIdenticalAcrossTiers) {
  Rng rng(11);
  for (size_t n : kSizes) {
    for (size_t off : kOffsets) {
      const std::vector<double> a = RandomDoubles(rng, n, off);
      const std::vector<double> b = RandomDoubles(rng, n, off);
      const double ref =
          simd::KernelsFor(Level::kScalar).dot(a.data() + off, b.data() + off, n);
      for (Level level : AvailableLevels()) {
        const double got =
            simd::KernelsFor(level).dot(a.data() + off, b.data() + off, n);
        EXPECT_TRUE(SameBytes(&got, &ref, sizeof(double)))
            << "dot " << simd::LevelName(level) << " n=" << n << " off=" << off
            << " ref=" << ref << " got=" << got;
      }
    }
  }
}

TEST(KernelParityTest, FilterRangeMatchesScalarForAllOps) {
  Rng rng(13);
  const Cmp kOps[] = {Cmp::kEq, Cmp::kNeq, Cmp::kLt, Cmp::kLe, Cmp::kGt, Cmp::kGe};
  for (size_t n : kSizes) {
    // Small value domain so every comparison outcome is exercised.
    std::vector<int64_t> values(n);
    std::vector<uint8_t> valid(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = static_cast<int64_t>(rng.NextUint64(7)) - 3;
      valid[i] = rng.NextUint64(4) != 0;  // ~25% nulls
    }
    for (Cmp op : kOps) {
      for (size_t begin : {size_t{0}, std::min<size_t>(n, 3)}) {
        std::vector<uint32_t> ref(n - begin + 8, 0xDEADBEEF);
        const size_t ref_count = simd::KernelsFor(Level::kScalar).filter_range(
            values.data(), valid.data(), begin, n, op, 1, ref.data());
        for (Level level : AvailableLevels()) {
          std::vector<uint32_t> out(n - begin + 8, 0xDEADBEEF);
          const size_t count = simd::KernelsFor(level).filter_range(
              values.data(), valid.data(), begin, n, op, 1, out.data());
          ASSERT_EQ(ref_count, count)
              << "filter_range " << simd::LevelName(level) << " n=" << n
              << " op=" << static_cast<int>(op);
          EXPECT_TRUE(SameBytes(out.data(), ref.data(),
                                   count * sizeof(uint32_t)))
              << "filter_range " << simd::LevelName(level) << " n=" << n;
        }
      }
    }
  }
}

TEST(KernelParityTest, FilterRowsMatchesScalarForAllOps) {
  Rng rng(17);
  const Cmp kOps[] = {Cmp::kEq, Cmp::kNeq, Cmp::kLt, Cmp::kLe, Cmp::kGt, Cmp::kGe};
  const size_t kNumValues = 512;
  std::vector<int64_t> values(kNumValues);
  std::vector<uint8_t> valid(kNumValues);
  for (size_t i = 0; i < kNumValues; ++i) {
    values[i] = static_cast<int64_t>(rng.NextUint64(7)) - 3;
    valid[i] = rng.NextUint64(4) != 0;
  }
  for (size_t n : kSizes) {
    // Unsorted, duplicated row ids — the kernel contract only needs ids
    // < 2^31, not sortedness.
    std::vector<uint32_t> rows0(n);
    for (uint32_t& r : rows0) {
      r = static_cast<uint32_t>(rng.NextUint64(kNumValues));
    }
    for (Cmp op : kOps) {
      std::vector<uint32_t> ref = rows0;
      const size_t ref_count = simd::KernelsFor(Level::kScalar).filter_rows(
          values.data(), valid.data(), ref.data(), n, op, 0);
      for (Level level : AvailableLevels()) {
        std::vector<uint32_t> rows = rows0;
        const size_t count = simd::KernelsFor(level).filter_rows(
            values.data(), valid.data(), rows.data(), n, op, 0);
        ASSERT_EQ(ref_count, count)
            << "filter_rows " << simd::LevelName(level) << " n=" << n
            << " op=" << static_cast<int>(op);
        EXPECT_TRUE(
            SameBytes(rows.data(), ref.data(), count * sizeof(uint32_t)))
            << "filter_rows " << simd::LevelName(level) << " n=" << n;
      }
    }
  }
}

TEST(KernelParityTest, GatherMatchesScalar) {
  Rng rng(19);
  const size_t kNumValues = 300;
  std::vector<int64_t> values(kNumValues);
  std::vector<uint8_t> valid(kNumValues);
  for (size_t i = 0; i < kNumValues; ++i) {
    values[i] = static_cast<int64_t>(rng.NextUint64()) - (1ll << 40);
    valid[i] = rng.NextUint64(3) != 0;
  }
  for (size_t n : kSizes) {
    std::vector<uint32_t> rows(n);
    for (uint32_t& r : rows) {
      r = static_cast<uint32_t>(rng.NextUint64(kNumValues));
    }
    std::vector<int64_t> keys_ref(n + 1, -1);
    std::vector<uint8_t> valid_ref(n + 1, 0xCC);
    simd::KernelsFor(Level::kScalar).gather(values.data(), valid.data(),
                                            rows.data(), n, keys_ref.data(),
                                            valid_ref.data());
    for (Level level : AvailableLevels()) {
      std::vector<int64_t> keys(n + 1, -1);
      std::vector<uint8_t> valid_out(n + 1, 0xCC);
      simd::KernelsFor(level).gather(values.data(), valid.data(), rows.data(),
                                     n, keys.data(), valid_out.data());
      EXPECT_TRUE(SameBytes(keys.data(), keys_ref.data(),
                               keys_ref.size() * sizeof(int64_t)))
          << "gather keys " << simd::LevelName(level) << " n=" << n;
      EXPECT_TRUE(SameBytes(valid_out.data(), valid_ref.data(),
                               valid_ref.size()))
          << "gather valid " << simd::LevelName(level) << " n=" << n;
    }
  }
}

// End-to-end: the ML layer's matrix products and an Mlp forward pass must
// produce bit-identical doubles no matter which tier is active.
TEST(KernelParityTest, MatrixAndMlpBitIdenticalUnderForcedLevels) {
  Rng rng(23);
  const size_t kRows = 17, kInner = 33, kCols = 9;
  Matrix a(kRows, kInner), b(kInner, kCols), bt(kCols, kInner);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t c = 0; c < kInner; ++c) {
      a.At(r, c) = rng.NextDouble() * 2.0 - 1.0;
    }
  }
  for (size_t r = 0; r < kInner; ++r) {
    for (size_t c = 0; c < kCols; ++c) {
      b.At(r, c) = rng.NextDouble() * 2.0 - 1.0;
      bt.At(c, r) = b.At(r, c);
    }
  }
  Rng mlp_rng(29);
  Mlp mlp({kInner, 8, 1}, mlp_rng);
  Matrix x(3, kInner);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < kInner; ++c) x.At(r, c) = rng.NextDouble();
  }

  simd::ForceLevel(Level::kScalar);
  const Matrix mm_ref = a.MatMul(b);
  const Matrix mmt_ref = a.MatMulTransposed(bt);
  const Matrix mlp_ref = mlp.Infer(x);
  for (Level level : AvailableLevels()) {
    simd::ForceLevel(level);
    const Matrix mm = a.MatMul(b);
    const Matrix mmt = a.MatMulTransposed(bt);
    const Matrix out = mlp.Infer(x);
    EXPECT_TRUE(SameBytes(mm.data().data(), mm_ref.data().data(),
                             mm.data().size() * sizeof(double)))
        << "MatMul " << simd::LevelName(level);
    EXPECT_TRUE(SameBytes(mmt.data().data(), mmt_ref.data().data(),
                             mmt.data().size() * sizeof(double)))
        << "MatMulTransposed " << simd::LevelName(level);
    EXPECT_TRUE(SameBytes(out.data().data(), mlp_ref.data().data(),
                             out.data().size() * sizeof(double)))
        << "Mlp::Infer " << simd::LevelName(level);
  }
  simd::ClearForcedLevel();
}

TEST(KernelParityTest, DispatchRespectsEnvironmentClamp) {
  // ActiveLevel() never exceeds what the CPU supports; under
  // CARDBENCH_SIMD=scalar (the kernel_parity_scalar ctest entry) it must be
  // exactly the scalar tier.
  EXPECT_LE(static_cast<int>(simd::ActiveLevel()),
            static_cast<int>(simd::DetectLevel()));
  const char* env = std::getenv("CARDBENCH_SIMD");
  if (env != nullptr) {
    simd::Level parsed;
    ASSERT_TRUE(simd::ParseLevelName(env, &parsed));
    EXPECT_LE(static_cast<int>(simd::ActiveLevel()),
              static_cast<int>(parsed));
  }
}

TEST(KernelParityTest, LevelNamesRoundTrip) {
  for (Level l : {Level::kScalar, Level::kAvx2, Level::kAvx512}) {
    Level parsed;
    ASSERT_TRUE(simd::ParseLevelName(simd::LevelName(l), &parsed));
    EXPECT_EQ(l, parsed);
  }
  Level parsed;
  EXPECT_FALSE(simd::ParseLevelName("mmx", &parsed));
  EXPECT_FALSE(simd::ParseLevelName("", &parsed));
}

TEST(KernelParityDeathTest, UnknownEnvironmentLevelAborts) {
  // The environment is read once, on a process's first ActiveLevel() call,
  // so each case re-executes the binary and sets the variable in the child
  // before that call.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* value : {"SCALAR", "avx", "mmx"}) {
    EXPECT_DEATH(
        {
          setenv("CARDBENCH_SIMD", value, 1);
          simd::ActiveLevel();
        },
        "scalar\\|avx2\\|avx512")
        << value;
  }
}

}  // namespace
}  // namespace cardbench
