#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace atune {
namespace {

TEST(RunningStatsTest, MatchesBatchFormulas) {
  RunningStats s;
  std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) s.Add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), Variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Median(xs), 2.5);
}

TEST(StatsTest, EmptyInputsAreSafe) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(Mean(empty), 0.0);
  EXPECT_DOUBLE_EQ(Variance(empty), 0.0);
  EXPECT_DOUBLE_EQ(Quantile(empty, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(empty, empty), 0.0);
}

TEST(StatsTest, QuantileDegenerateInputs) {
  // Seed-era gap: the empty and 1-element paths were only exercised
  // indirectly through the Evaluator. Pin them down directly.
  EXPECT_DOUBLE_EQ(Quantile({}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 1.0), 0.0);
  std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(Quantile(one, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(Quantile(one, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(Quantile(one, 1.0), 42.0);
  EXPECT_DOUBLE_EQ(Median(one), 42.0);
  // Out-of-range q clamps to the extremes instead of indexing out of
  // bounds.
  std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.5), 3.0);
}

TEST(StatsTest, UpperMedianIsAnActualSample) {
  // Odd n: the middle element. Even n: the UPPER of the two middle
  // elements — no interpolation (Median() would give 2.5 here).
  std::vector<double> odd = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(UpperMedianInPlace(&odd), 2.0);
  std::vector<double> even = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(UpperMedianInPlace(&even), 3.0);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(UpperMedianInPlace(&empty), 0.0);
  std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(UpperMedianInPlace(&one), 7.0);
}

TEST(StatsTest, MadMatchesModifiedZScoreRecipe) {
  // {1,2,3,4,100}: upper median 3, |x-3| = {2,1,0,1,97}, upper median 1.
  MadResult r = Mad({1.0, 2.0, 3.0, 4.0, 100.0});
  EXPECT_DOUBLE_EQ(r.median, 3.0);
  EXPECT_DOUBLE_EQ(r.mad, 1.0);
  // The modified z-score of the outlier: 0.6745 * 97 / 1.
  EXPECT_NEAR(0.6745 * std::abs(100.0 - r.median) / r.mad, 65.4265, 1e-9);
}

TEST(StatsTest, MadDegenerateInputs) {
  MadResult empty = Mad({});
  EXPECT_DOUBLE_EQ(empty.median, 0.0);
  EXPECT_DOUBLE_EQ(empty.mad, 0.0);
  MadResult one = Mad({5.0});
  EXPECT_DOUBLE_EQ(one.median, 5.0);
  EXPECT_DOUBLE_EQ(one.mad, 0.0);
  // Constant history: MAD 0 (the Evaluator floors it before dividing).
  MadResult constant = Mad({2.0, 2.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(constant.median, 2.0);
  EXPECT_DOUBLE_EQ(constant.mad, 0.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  std::vector<double> neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, neg), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantSideIsZero) {
  std::vector<double> xs = {1, 2, 3};
  std::vector<double> c = {5, 5, 5};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(xs, c), 0.0);
}

TEST(StatsTest, SpearmanMonotoneNonlinearIsOne) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {1, 8, 27, 64, 125};  // monotone, nonlinear
  EXPECT_NEAR(SpearmanCorrelation(xs, ys), 1.0, 1e-12);
}

TEST(StatsTest, RanksAverageTies) {
  std::vector<double> xs = {10.0, 20.0, 20.0, 30.0};
  std::vector<double> r = Ranks(xs);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

}  // namespace
}  // namespace atune
