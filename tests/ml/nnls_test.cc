#include "ml/nnls.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "tests/math/matrix_of.h"

namespace atune {
namespace {

TEST(NnlsTest, RecoversNonNegativeSolution) {
  // b = A x with x = (2, 0.5) >= 0: NNLS should recover it exactly.
  Matrix a = MatrixOf({{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {2.0, 1.0}});
  Vec x_true = {2.0, 0.5};
  Vec b = a.MultiplyVec(x_true);
  auto x = SolveNnls(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 2.0, 1e-4);
  EXPECT_NEAR((*x)[1], 0.5, 1e-4);
}

TEST(NnlsTest, ClampsNegativeComponents) {
  // Unconstrained least squares would want a negative coefficient; NNLS
  // must return 0 for it.
  Matrix a = MatrixOf({{1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}});
  Vec b = {3.0, 2.0, 1.0};  // decreasing in the 2nd feature
  auto x = SolveNnls(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_GE((*x)[0], 0.0);
  EXPECT_NEAR((*x)[1], 0.0, 1e-6);
}

TEST(NnlsTest, ErnestShapedFit) {
  // time(m) = 5 + 20/m + 0.1*m sampled at several machine counts.
  std::vector<double> machines = {1, 2, 4, 8, 16, 32};
  Matrix a(machines.size(), 3);
  Vec b(machines.size());
  for (size_t i = 0; i < machines.size(); ++i) {
    double m = machines[i];
    a.At(i, 0) = 1.0;
    a.At(i, 1) = 1.0 / m;
    a.At(i, 2) = m;
    b[i] = 5.0 + 20.0 / m + 0.1 * m;
  }
  auto x = SolveNnls(a, b, 200000, 1e-12);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 5.0, 0.2);
  EXPECT_NEAR((*x)[1], 20.0, 0.3);
  EXPECT_NEAR((*x)[2], 0.1, 0.02);
}

TEST(NnlsTest, RejectsBadShapes) {
  Matrix a(2, 2);
  EXPECT_FALSE(SolveNnls(a, {1.0}).ok());
  EXPECT_FALSE(SolveNnls(Matrix(), {}).ok());
}

}  // namespace
}  // namespace atune
