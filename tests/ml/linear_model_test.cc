#include "ml/linear_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace atune {
namespace {

TEST(StandardScalerTest, TransformsToZeroMeanUnitVar) {
  std::vector<Vec> xs = {{1.0, 100.0}, {2.0, 200.0}, {3.0, 300.0}};
  StandardScaler scaler;
  scaler.Fit(xs);
  auto zs = scaler.TransformAll(xs);
  for (size_t d = 0; d < 2; ++d) {
    double mean = 0.0, var = 0.0;
    for (const Vec& z : zs) mean += z[d];
    mean /= 3.0;
    for (const Vec& z : zs) var += (z[d] - mean) * (z[d] - mean);
    var /= 3.0;
    EXPECT_NEAR(mean, 0.0, 1e-12);
    EXPECT_NEAR(var, 1.0, 1e-12);
  }
}

TEST(StandardScalerTest, ConstantColumnMapsToZeroAndBack) {
  std::vector<Vec> xs = {{5.0, 1.0}, {5.0, 2.0}};
  StandardScaler scaler;
  scaler.Fit(xs);
  Vec z = scaler.Transform({5.0, 1.5});
  EXPECT_DOUBLE_EQ(z[0], 0.0);
}

TEST(RidgeTest, RecoversLinearFunction) {
  Rng rng(3);
  std::vector<Vec> xs;
  Vec ys;
  for (int i = 0; i < 50; ++i) {
    Vec x = {rng.Uniform(), rng.Uniform()};
    ys.push_back(3.0 * x[0] - 2.0 * x[1] + 1.0);
    xs.push_back(std::move(x));
  }
  RidgeRegression ridge(1e-6);
  ASSERT_TRUE(ridge.Fit(xs, ys).ok());
  EXPECT_NEAR(ridge.Predict({0.0, 0.0}), 1.0, 1e-3);
  EXPECT_NEAR(ridge.Predict({1.0, 0.0}), 4.0, 1e-3);
  EXPECT_NEAR(ridge.Predict({0.0, 1.0}), -1.0, 1e-3);
  EXPECT_NEAR(ridge.Predict({0.5, 0.5}), 1.5, 1e-3);
}

TEST(RidgeTest, RejectsBadData) {
  RidgeRegression ridge;
  EXPECT_FALSE(ridge.Fit({}, {}).ok());
  EXPECT_FALSE(ridge.Fit({{1.0}}, {1.0, 2.0}).ok());
}

TEST(LassoTest, ShrinksIrrelevantFeaturesToZero) {
  Rng rng(7);
  std::vector<Vec> xs;
  Vec ys;
  for (int i = 0; i < 80; ++i) {
    Vec x(6);
    for (double& v : x) v = rng.Uniform(-1.0, 1.0);
    // Only features 1 and 4 matter.
    ys.push_back(5.0 * x[1] - 4.0 * x[4] + rng.Normal(0.0, 0.01));
    xs.push_back(std::move(x));
  }
  LassoRegression lasso(0.1);
  ASSERT_TRUE(lasso.Fit(xs, ys).ok());
  EXPECT_GT(std::abs(lasso.weights()[1]), 0.5);
  EXPECT_GT(std::abs(lasso.weights()[4]), 0.5);
  for (size_t d : {0u, 2u, 3u, 5u}) {
    EXPECT_LT(std::abs(lasso.weights()[d]), 0.05) << "feature " << d;
  }
}

TEST(LassoTest, LargeLambdaKillsAllWeights) {
  Rng rng(9);
  std::vector<Vec> xs;
  Vec ys;
  for (int i = 0; i < 30; ++i) {
    Vec x = {rng.Uniform(), rng.Uniform()};
    ys.push_back(x[0]);
    xs.push_back(std::move(x));
  }
  LassoRegression lasso(1e6);
  ASSERT_TRUE(lasso.Fit(xs, ys).ok());
  for (double w : lasso.weights()) EXPECT_EQ(w, 0.0);
}

TEST(LassoPathTest, RanksStrongFeaturesFirst) {
  Rng rng(11);
  std::vector<Vec> xs;
  Vec ys;
  for (int i = 0; i < 100; ++i) {
    Vec x(5);
    for (double& v : x) v = rng.Uniform(-1.0, 1.0);
    // Effect sizes: x2 >> x0 >> others(0).
    ys.push_back(10.0 * x[2] + 2.0 * x[0] + rng.Normal(0.0, 0.05));
    xs.push_back(std::move(x));
  }
  auto ranking = LassoPathRanking(xs, ys);
  ASSERT_TRUE(ranking.ok());
  ASSERT_EQ(ranking->size(), 5u);
  EXPECT_EQ((*ranking)[0], 2u);
  EXPECT_EQ((*ranking)[1], 0u);
}

TEST(LassoPathTest, RejectsBadData) {
  EXPECT_FALSE(LassoPathRanking({}, {}).ok());
}

}  // namespace
}  // namespace atune
