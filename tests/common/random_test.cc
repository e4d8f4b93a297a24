#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace atune {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  Rng a2(123);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    saw_lo |= v == 1;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalHasRoughMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, BernoulliRespectsProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(23);
  std::vector<double> weights = {1.0, 3.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 10000; ++i) counts[rng.Categorical(weights)]++;
  EXPECT_NEAR(counts[1] / 10000.0, 0.75, 0.03);
  EXPECT_EQ(counts[2], 0);
}

TEST(RngTest, CategoricalAllZeroWeightsReturnsZero) {
  Rng rng(29);
  EXPECT_EQ(rng.Categorical({0.0, 0.0}), 0u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.Fork();
  // The fork must not replay the parent's stream.
  Rng b(31);
  b.Next();  // consume the draw used to create the fork
  EXPECT_NE(child.Next(), b.Next());
}

TEST(RngTest, LogNormalMatchesMedian) {
  Rng rng(41);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.LogNormal(1.0, 0.5));
  std::sort(xs.begin(), xs.end());
  // Median of lognormal(mu, sigma) is e^mu.
  EXPECT_NEAR(xs[xs.size() / 2], std::exp(1.0), 0.1);
  for (double x : xs) EXPECT_GT(x, 0.0);
}

TEST(RngTest, ExponentialMeanIsInverseRate) {
  Rng rng(43);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

}  // namespace
}  // namespace atune
