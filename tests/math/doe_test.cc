#include "math/doe.h"

#include <gtest/gtest.h>

#include <cmath>

namespace atune {
namespace {

// Property: every PB design must be balanced (each column has equal +1/-1
// counts) and orthogonal (any two columns' elementwise products sum to 0).
class PbOrthogonalityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PbOrthogonalityTest, BalancedAndOrthogonal) {
  size_t factors = GetParam();
  auto design = PlackettBurman(factors);
  ASSERT_TRUE(design.ok()) << design.status().ToString();
  ASSERT_EQ(design->num_factors, factors);
  size_t runs = design->rows.size();
  EXPECT_GT(runs, factors);
  EXPECT_EQ(runs % 4, 0u);
  for (size_t c = 0; c < factors; ++c) {
    int sum = 0;
    for (const auto& row : design->rows) sum += row[c];
    EXPECT_EQ(sum, 0) << "column " << c << " unbalanced";
  }
  for (size_t c1 = 0; c1 < factors; ++c1) {
    for (size_t c2 = c1 + 1; c2 < factors; ++c2) {
      int dot = 0;
      for (const auto& row : design->rows) dot += row[c1] * row[c2];
      EXPECT_EQ(dot, 0) << "columns " << c1 << "," << c2 << " correlated";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PbOrthogonalityTest,
                         ::testing::Values<size_t>(2, 3, 5, 7, 11, 12, 14, 19,
                                                   23, 30, 47, 63, 100));

TEST(DoeTest, PlackettBurmanRejectsDegenerate) {
  EXPECT_FALSE(PlackettBurman(0).ok());
  EXPECT_FALSE(PlackettBurman(512).ok());
}

TEST(DoeTest, FoldoverDoublesRunsAndMirrors) {
  auto design = PlackettBurmanFoldover(10);
  ASSERT_TRUE(design.ok());
  size_t half = design->rows.size() / 2;
  for (size_t r = 0; r < half; ++r) {
    for (size_t c = 0; c < design->num_factors; ++c) {
      EXPECT_EQ(design->rows[r][c], -design->rows[r + half][c]);
    }
  }
}

TEST(DoeTest, MainEffectsRecoverAdditiveModel) {
  // Response = 10 + 3*x0 - 5*x2 (x in {-1,+1}): effects are 2*coef.
  auto design = PlackettBurman(4);
  ASSERT_TRUE(design.ok());
  std::vector<double> responses;
  for (const auto& row : design->rows) {
    responses.push_back(10.0 + 3.0 * row[0] - 5.0 * row[2]);
  }
  auto effects = MainEffects(*design, responses);
  ASSERT_TRUE(effects.ok());
  EXPECT_NEAR((*effects)[0], 6.0, 1e-9);
  EXPECT_NEAR((*effects)[1], 0.0, 1e-9);
  EXPECT_NEAR((*effects)[2], -10.0, 1e-9);
  EXPECT_NEAR((*effects)[3], 0.0, 1e-9);

  auto ranking = RankByEffect(*effects);
  EXPECT_EQ(ranking[0], 2u);
  EXPECT_EQ(ranking[1], 0u);
}

TEST(DoeTest, MainEffectsSizeMismatchRejected) {
  auto design = PlackettBurman(3);
  ASSERT_TRUE(design.ok());
  EXPECT_FALSE(MainEffects(*design, {1.0, 2.0}).ok());
}

}  // namespace
}  // namespace atune
