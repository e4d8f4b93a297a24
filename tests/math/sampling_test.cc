#include "math/sampling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace atune {
namespace {

// Property: LHS puts exactly one sample in each of the n strata, per dim.
class LhsStratificationTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(LhsStratificationTest, EveryStratumHitOnce) {
  auto [count, dims] = GetParam();
  Rng rng(42 + count * 13 + dims);
  auto pts = LatinHypercubeSamples(count, dims, &rng);
  ASSERT_EQ(pts.size(), count);
  for (size_t d = 0; d < dims; ++d) {
    std::vector<int> hits(count, 0);
    for (const Vec& p : pts) {
      size_t stratum = std::min<size_t>(
          static_cast<size_t>(p[d] * static_cast<double>(count)), count - 1);
      hits[stratum]++;
    }
    for (size_t s = 0; s < count; ++s) {
      EXPECT_EQ(hits[s], 1) << "dim " << d << " stratum " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LhsStratificationTest,
    ::testing::Combine(::testing::Values<size_t>(2, 5, 16, 40),
                       ::testing::Values<size_t>(1, 3, 8, 12)));

TEST(SamplingTest, MaximinLhsAtLeastAsSpreadAsSingle) {
  Rng rng1(7), rng2(7);
  auto single = LatinHypercubeSamples(12, 3, &rng1);
  auto maximin = MaximinLatinHypercube(12, 3, 20, &rng2);
  EXPECT_GE(MinPairwiseDistance(maximin) + 1e-12,
            MinPairwiseDistance(single));
}

TEST(SamplingTest, HaltonDeterministicAndInRange) {
  auto a = HaltonSamples(20, 5);
  auto b = HaltonSamples(20, 5);
  EXPECT_EQ(a.size(), 20u);
  EXPECT_EQ(a, b);  // deterministic
  for (const Vec& p : a) {
    for (double x : p) {
      EXPECT_GT(x, 0.0);
      EXPECT_LT(x, 1.0);
    }
  }
}

TEST(SamplingTest, HaltonFirstDimensionIsVanDerCorputBase2) {
  auto pts = HaltonSamples(4, 1);
  EXPECT_DOUBLE_EQ(pts[0][0], 0.5);    // 1 -> 0.1b
  EXPECT_DOUBLE_EQ(pts[1][0], 0.25);   // 2 -> 0.01b
  EXPECT_DOUBLE_EQ(pts[2][0], 0.75);   // 3 -> 0.11b
  EXPECT_DOUBLE_EQ(pts[3][0], 0.125);  // 4 -> 0.001b
}

TEST(SamplingTest, MinPairwiseDistanceKnownValue) {
  std::vector<Vec> pts = {{0.0, 0.0}, {1.0, 0.0}, {0.0, 0.5}};
  EXPECT_DOUBLE_EQ(MinPairwiseDistance(pts), 0.5);
  EXPECT_DOUBLE_EQ(MinPairwiseDistance({{1.0}}), 0.0);
}

}  // namespace
}  // namespace atune
