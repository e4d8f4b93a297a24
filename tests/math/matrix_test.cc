#include "math/matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "tests/math/matrix_of.h"

namespace atune {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m = MatrixOf({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  m(1, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m.At(1, 0), 7.0);
}

TEST(MatrixTest, MultiplyAgainstKnownProduct) {
  Matrix a = MatrixOf({{1, 2, 3}, {4, 5, 6}});
  Matrix b = MatrixOf({{7, 8}, {9, 10}, {11, 12}});
  Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(MatrixTest, TransposeInvolution) {
  Matrix a = MatrixOf({{1, 2, 3}, {4, 5, 6}});
  Matrix att = a.Transpose().Transpose();
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(att(r, c), a(r, c));
  }
}

TEST(MatrixTest, MultiplyVec) {
  Matrix a = MatrixOf({{1, 2}, {3, 4}});
  Vec v = a.MultiplyVec({1.0, 1.0});
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[1], 7.0);
}

TEST(MatrixTest, CholeskyReconstructs) {
  // SPD matrix A = B B^T + n I.
  Matrix a = MatrixOf({{4.0, 2.0, 0.6}, {2.0, 5.0, 1.0}, {0.6, 1.0, 3.0}});
  auto l = a.Cholesky();
  ASSERT_TRUE(l.ok());
  Matrix rec = l->Multiply(l->Transpose());
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_NEAR(rec(r, c), a(r, c), 1e-10);
  }
}

TEST(MatrixTest, CholeskyRejectsNonSpd) {
  Matrix notspd = MatrixOf({{1.0, 2.0}, {2.0, 1.0}});  // indefinite
  EXPECT_FALSE(notspd.Cholesky().ok());
  Matrix notsquare(2, 3);
  EXPECT_FALSE(notsquare.Cholesky().ok());
}

TEST(MatrixTest, SolveSpdMatchesDirect) {
  Matrix a = MatrixOf({{4.0, 1.0}, {1.0, 3.0}});
  Vec b = {1.0, 2.0};
  auto x = a.SolveSpd(b);
  ASSERT_TRUE(x.ok());
  Vec ax = a.MultiplyVec(*x);
  EXPECT_NEAR(ax[0], b[0], 1e-10);
  EXPECT_NEAR(ax[1], b[1], 1e-10);
}

TEST(MatrixTest, ForwardBackwardSolveRoundTrip) {
  Matrix a = MatrixOf({{9.0, 3.0, 1.0}, {3.0, 8.0, 2.0}, {1.0, 2.0, 7.0}});
  auto l = a.Cholesky();
  ASSERT_TRUE(l.ok());
  Vec b = {1.0, -2.0, 0.5};
  Vec y = Matrix::ForwardSolve(*l, b);
  Vec x = Matrix::BackwardSolveTranspose(*l, y);
  Vec ax = a.MultiplyVec(x);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

TEST(MatrixTest, LogDetMatchesDirect) {
  Matrix a = MatrixOf({{4.0, 0.0}, {0.0, 9.0}});
  auto l = a.Cholesky();
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR(Matrix::LogDetFromCholesky(*l), std::log(36.0), 1e-10);
}

TEST(MatrixTest, LeastSquaresRecoversLine) {
  // y = 2x + 1 with exact data.
  Matrix a(5, 2);
  Vec b(5);
  for (int i = 0; i < 5; ++i) {
    a.At(i, 0) = i;
    a.At(i, 1) = 1.0;
    b[i] = 2.0 * i + 1.0;
  }
  auto x = Matrix::LeastSquares(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 2.0, 1e-8);
  EXPECT_NEAR((*x)[1], 1.0, 1e-8);
}

TEST(MatrixTest, LeastSquaresRankDeficientFallsBackToRidge) {
  // Duplicate column: unregularized normal equations are singular.
  Matrix a(4, 2);
  Vec b(4);
  for (int i = 0; i < 4; ++i) {
    a.At(i, 0) = i;
    a.At(i, 1) = i;
    b[i] = 3.0 * i;
  }
  auto x = Matrix::LeastSquares(a, b, 0.0);
  ASSERT_TRUE(x.ok());
  // Any solution with x0 + x1 = 3 fits; check the fit, not the coords.
  Vec ax = a.MultiplyVec(*x);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(ax[i], b[i], 1e-4);
}

TEST(VecOpsTest, DotNormAxpyDistance) {
  Vec a = {1.0, 2.0, 2.0};
  Vec b = {2.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(Dot(a, b), 4.0);
  EXPECT_DOUBLE_EQ(Norm2(a), 3.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 1.0 + 4.0 + 1.0);
}

TEST(MatrixTest, AddSubtractScaleAddDiagonal) {
  Matrix a = MatrixOf({{1, 2}, {3, 4}});
  a.AddDiagonal(10.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 11.0);
  EXPECT_DOUBLE_EQ(a(0, 1), 2.0);
}

}  // namespace
}  // namespace atune
