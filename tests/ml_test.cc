#include <gtest/gtest.h>

#include <cmath>

#include "ml/clustering.h"
#include "ml/gbdt.h"
#include "ml/made.h"
#include "ml/matrix.h"
#include "ml/nn.h"

namespace cardbench {
namespace {

TEST(MatrixTest, MatMulAgainstHandComputedValues) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  double av[] = {1, 2, 3, 4, 5, 6};
  double bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(std::begin(av), std::end(av), a.data().begin());
  std::copy(std::begin(bv), std::end(bv), b.data().begin());
  const Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 58);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 64);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 139);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 154);
}

TEST(MatrixTest, MatMulTransposedMatchesMatMul) {
  Rng rng(1);
  Matrix a(3, 4), b(5, 4);
  for (double& v : a.data()) v = rng.NextGaussian();
  for (double& v : b.data()) v = rng.NextGaussian();
  // a * b^T via both paths.
  Matrix bt(4, 5);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 4; ++j) bt.At(j, i) = b.At(i, j);
  }
  const Matrix direct = a.MatMul(bt);
  const Matrix fused = a.MatMulTransposed(b);
  for (size_t i = 0; i < direct.data().size(); ++i) {
    EXPECT_NEAR(direct.data()[i], fused.data()[i], 1e-12);
  }
}

TEST(MatrixTest, TransposedMatMulMatchesManual) {
  Rng rng(2);
  Matrix a(6, 3), b(6, 2);
  for (double& v : a.data()) v = rng.NextGaussian();
  for (double& v : b.data()) v = rng.NextGaussian();
  const Matrix out = a.TransposedMatMul(b);  // (3x2)
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      double acc = 0;
      for (size_t k = 0; k < 6; ++k) acc += a.At(k, i) * b.At(k, j);
      EXPECT_NEAR(out.At(i, j), acc, 1e-12);
    }
  }
}

TEST(MlpTest, FitsLinearFunction) {
  Rng rng(3);
  Mlp net({2, 16, 1}, rng);
  // y = 3x0 - 2x1 + 1
  const size_t n = 256;
  Matrix x(n, 2);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x.At(i, 0) = rng.NextDouble();
    x.At(i, 1) = rng.NextDouble();
    y[i] = 3 * x.At(i, 0) - 2 * x.At(i, 1) + 1;
  }
  double first_loss = 0, last_loss = 0;
  for (int epoch = 0; epoch < 300; ++epoch) {
    Matrix out = net.Forward(x);
    Matrix grad;
    const double loss = MseLoss(out, y, &grad);
    if (epoch == 0) first_loss = loss;
    last_loss = loss;
    net.Backward(grad);
    net.Step(1e-2);
  }
  EXPECT_LT(last_loss, first_loss * 0.01);
  EXPECT_LT(last_loss, 0.01);
}

TEST(MlpTest, FitsNonlinearXor) {
  Rng rng(4);
  Mlp net({2, 16, 16, 1}, rng);
  Matrix x(4, 2);
  std::vector<double> y = {0, 1, 1, 0};
  const double pts[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  for (size_t i = 0; i < 4; ++i) {
    x.At(i, 0) = pts[i][0];
    x.At(i, 1) = pts[i][1];
  }
  double loss = 0;
  for (int epoch = 0; epoch < 2000; ++epoch) {
    Matrix out = net.Forward(x);
    Matrix grad;
    loss = MseLoss(out, y, &grad);
    net.Backward(grad);
    net.Step(5e-3);
  }
  EXPECT_LT(loss, 0.01);
}

TEST(MlpTest, InferMatchesForward) {
  Rng rng(5);
  Mlp net({3, 8, 2}, rng);
  Matrix x(4, 3);
  for (double& v : x.data()) v = rng.NextGaussian();
  const Matrix a = net.Forward(x);
  const Matrix b = net.Infer(x);
  for (size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(SoftmaxTest, RowsSumToOneWithinSegment) {
  Matrix m(2, 5, 0.5);
  m.At(0, 1) = 3.0;
  SoftmaxRows(m, 1, 4);
  for (size_t r = 0; r < 2; ++r) {
    double sum = 0;
    for (size_t c = 1; c < 4; ++c) sum += m.At(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
  // Columns outside the segment untouched.
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(m.At(1, 4), 0.5);
}

TEST(MadeTest, RespectsAutoregressiveProperty) {
  Rng rng(6);
  MadeModel made({4, 3, 5}, 32, 2, rng);
  // P(col 1 | col 0) must not depend on columns 1, 2 inputs.
  std::vector<std::vector<uint16_t>> prefix = {{2, 0, 0}};
  const Matrix base = made.EncodePrefixes(prefix, 1);
  Matrix poisoned = base;
  poisoned.At(0, made.ColumnOffset(1) + 1) = 1.0;  // junk in col 1
  poisoned.At(0, made.ColumnOffset(2) + 4) = 1.0;  // junk in col 2
  const Matrix p_base = made.ConditionalProbs(base, 1);
  const Matrix p_poisoned = made.ConditionalProbs(poisoned, 1);
  for (size_t b = 0; b < 3; ++b) {
    EXPECT_NEAR(p_base.At(0, b), p_poisoned.At(0, b), 1e-12);
  }
}

TEST(MadeTest, LearnsCorrelatedJointDistribution) {
  Rng rng(7);
  // Joint: x0 ~ uniform{0,1}; x1 == x0 with prob 0.9.
  std::vector<std::vector<uint16_t>> rows;
  for (int i = 0; i < 3000; ++i) {
    const uint16_t x0 = rng.NextBool(0.5) ? 1 : 0;
    const uint16_t x1 =
        rng.NextBool(0.9) ? x0 : static_cast<uint16_t>(1 - x0);
    rows.push_back({x0, x1});
  }
  MadeModel made({2, 2}, 16, 1, rng);
  for (int epoch = 0; epoch < 30; ++epoch) {
    made.TrainEpoch(rows, 64, 5e-3, rng);
  }
  // P(x1 = 1 | x0 = 1) should approach 0.9.
  std::vector<std::vector<uint16_t>> prefix = {{1, 0}};
  const Matrix enc = made.EncodePrefixes(prefix, 1);
  const Matrix probs = made.ConditionalProbs(enc, 1);
  EXPECT_NEAR(probs.At(0, 1), 0.9, 0.06);
}

TEST(MadeTest, TrainingReducesNll) {
  Rng rng(8);
  std::vector<std::vector<uint16_t>> rows;
  for (int i = 0; i < 1000; ++i) {
    const uint16_t a = static_cast<uint16_t>(rng.NextZipf(6, 1.2));
    rows.push_back({a, static_cast<uint16_t>((a * 2) % 5)});
  }
  MadeModel made({6, 5}, 24, 2, rng);
  const double before = made.EvalNll(rows);
  for (int epoch = 0; epoch < 25; ++epoch) made.TrainEpoch(rows, 64, 5e-3, rng);
  const double after = made.EvalNll(rows);
  EXPECT_LT(after, before * 0.8);
}

TEST(GbdtTest, FitsStepFunction) {
  Rng rng(9);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.NextDouble();
    const double w = rng.NextDouble();
    x.push_back({v, w});
    y.push_back((v > 0.5 ? 10.0 : 0.0) + (w > 0.25 ? 5.0 : 0.0));
  }
  GbdtRegressor gbdt;
  gbdt.Fit(x, y);
  const std::vector<double> predictions = gbdt.PredictBatch(x);
  double se = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double d = predictions[i] - y[i];
    se += d * d;
  }
  EXPECT_LT(se / static_cast<double>(x.size()), 0.5);
}

TEST(GbdtTest, BeatsMeanPredictor) {
  Rng rng(10);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  double mean = 0;
  for (int i = 0; i < 400; ++i) {
    const double v = rng.NextDouble() * 4;
    x.push_back({v});
    y.push_back(v * v);
    mean += v * v;
  }
  mean /= static_cast<double>(y.size());
  double mean_se = 0;
  for (double t : y) mean_se += (t - mean) * (t - mean);
  GbdtRegressor gbdt;
  gbdt.Fit(x, y);
  const std::vector<double> predictions = gbdt.PredictBatch(x);
  double se = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double d = predictions[i] - y[i];
    se += d * d;
  }
  EXPECT_LT(se, mean_se * 0.05);
}

TEST(ClusteringTest, TwoMeansSeparatesBlobs) {
  Rng rng(11);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back({rng.NextGaussian() * 0.2, rng.NextGaussian() * 0.2});
  }
  for (int i = 0; i < 100; ++i) {
    rows.push_back({10 + rng.NextGaussian() * 0.2, 10 + rng.NextGaussian() * 0.2});
  }
  const auto labels = TwoMeans(rows, rng);
  // All of blob A one label, all of blob B the other.
  for (int i = 1; i < 100; ++i) EXPECT_EQ(labels[i], labels[0]);
  for (int i = 101; i < 200; ++i) EXPECT_EQ(labels[i], labels[100]);
  EXPECT_NE(labels[0], labels[100]);
}

TEST(ClusteringTest, TwoMeansAlwaysSplitsNonTrivially) {
  Rng rng(12);
  std::vector<std::vector<double>> rows(50, {1.0});  // identical rows
  const auto labels = TwoMeans(rows, rng);
  size_t ones = 0;
  for (int l : labels) ones += static_cast<size_t>(l);
  EXPECT_GT(ones, 0u);
  EXPECT_LT(ones, rows.size());
}

TEST(ClusteringTest, DependenceScoreHighForMonotone) {
  std::vector<double> x, y, z;
  Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    const double v = rng.NextDouble();
    x.push_back(v);
    y.push_back(std::exp(3 * v));           // monotone, nonlinear
    z.push_back(rng.NextDouble());          // independent
  }
  EXPECT_GT(DependenceScore(x, y), 0.95);
  EXPECT_LT(DependenceScore(x, z), 0.2);
}

TEST(ClusteringTest, DependenceScoreHandlesTies) {
  std::vector<double> x = {1, 1, 1, 2, 2, 2, 3, 3, 3};
  std::vector<double> y = {1, 1, 1, 2, 2, 2, 3, 3, 3};
  EXPECT_GT(DependenceScore(x, y), 0.99);
  std::vector<double> c(9, 5.0);
  EXPECT_DOUBLE_EQ(DependenceScore(x, c), 0.0);
}

}  // namespace
}  // namespace cardbench
