// Property tests for the blocked fast-path kernels of math/matrix.cc against
// the naive references in math/reference_kernels.h (DESIGN.md §11). The
// contract is *bit-identity*: memcmp-level equality of the output doubles.
// The AVX-dispatched kernels also run their two-lane instances here,
// through SetSse2KernelsForTesting.

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "math/matrix.h"
#include "math/reference_kernels.h"
#include "tests/math/matrix_of.h"

namespace atune {
namespace {

using std::mt19937_64;

/// Random SPD matrix A = G Gᵀ + d·I with entries from `gen`; `diag_boost`
/// near 0 makes it ill-conditioned.
Matrix RandomSpd(size_t n, mt19937_64* gen, double diag_boost) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Matrix g(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) g.At(i, j) = u(*gen);
  }
  Matrix a(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < n; ++k) acc += g.At(i, k) * g.At(j, k);
      a.At(i, j) = acc;
    }
  }
  for (size_t i = 0; i < n; ++i) a.At(i, i) += diag_boost;
  return a;
}

Vec RandomVec(size_t n, mt19937_64* gen) {
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  Vec v(n);
  for (double& x : v) x = u(*gen);
  return v;
}

/// Routes the AVX-dispatched kernels to their two-lane instances for one
/// scope, so hosts with AVX test both; restores AVX even when an assertion
/// returns.
class Sse2Kernels {
 public:
  explicit Sse2Kernels(bool sse2) { SetSse2KernelsForTesting(sse2); }
  ~Sse2Kernels() { SetSse2KernelsForTesting(false); }
};

::testing::AssertionResult BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  // An empty matrix has no storage, and memcmp must not get null pointers.
  if (!a.empty() && std::memcmp(a.data().data(), b.data().data(),
                                a.data().size() * sizeof(double)) != 0) {
    for (size_t i = 0; i < a.rows(); ++i) {
      for (size_t j = 0; j < a.cols(); ++j) {
        double av = a.At(i, j);
        double bv = b.At(i, j);
        if (std::memcmp(&av, &bv, sizeof(double)) != 0) {
          return ::testing::AssertionFailure()
                 << "first differing element (" << i << "," << j << "): " << av
                 << " vs " << bv;
        }
      }
    }
    return ::testing::AssertionFailure() << "bytes differ";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BitIdentical(const Vec& a, const Vec& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "first differing element [" << i << "]: " << a[i] << " vs "
               << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(BlockedKernels, CholeskyBitIdenticalAcrossSizes) {
  // Sizes straddle every blocking boundary (n % 4 in {0,1,2,3}) including
  // degenerate 0/1 and a "large" case, at four lanes and at two.
  for (bool sse2 : {false, true}) {
    Sse2Kernels guard(sse2);
    mt19937_64 gen(7);
    for (size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 64, 97}) {
      Matrix a = RandomSpd(n, &gen, 1.0 + static_cast<double>(n));
      auto fast = a.Cholesky();
      auto ref = reference::Cholesky(a);
      ASSERT_TRUE(fast.ok());
      ASSERT_TRUE(ref.ok());
      EXPECT_TRUE(BitIdentical(*fast, *ref)) << "n=" << n << " sse2=" << sse2;
    }
  }
}

TEST(BlockedKernels, CholeskyIllConditionedBitIdentical) {
  // 8 is one full panel, 9, 12 and 15 a full one and a partial one; 33, 50,
  // 67 and 100 leave 1, 2, 3 and 0 rows below each panel after the groups
  // of four.
  for (bool sse2 : {false, true}) {
    Sse2Kernels guard(sse2);
    mt19937_64 gen(11);
    for (size_t n : {8, 9, 12, 15, 33, 50, 67, 100}) {
      Matrix a = RandomSpd(n, &gen, 1e-9);
      auto fast = a.Cholesky();
      auto ref = reference::Cholesky(a);
      ASSERT_EQ(fast.ok(), ref.ok()) << "n=" << n << " sse2=" << sse2;
      if (fast.ok()) {
        EXPECT_TRUE(BitIdentical(*fast, *ref)) << "n=" << n << " sse2=" << sse2;
      }
    }
  }
}

/// Byte comparison of a packed lower triangle against a dense factor's.
::testing::AssertionResult PackedEqualsDense(const Vec& packed,
                                             const Matrix& dense) {
  const PackedRows rows;
  for (size_t i = 0; i < dense.rows(); ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double p = packed[rows(i) + j];
      double d = dense.At(i, j);
      if (std::memcmp(&p, &d, sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "first differing element (" << i << "," << j << "): " << p
               << " vs " << d;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Checks Cholesky() against the reference, the in-place factors (dense
/// and packed) against Cholesky(), and the packed solves against the dense
/// ones, at every n from 1 to 140.
void ExpectInPlaceFactorsAndPackedSolvesMatchDense() {
  mt19937_64 gen(19);
  // Every size through PanelCholesky8, with all panel widths of the last
  // block (n < 8 is one partial panel). The rows below a panel go in fours,
  // then n % 4 of them are left over (none, a single row, a pair, or a pair
  // and a single row).
  for (size_t n = 1; n <= 140; ++n) {
    Matrix a = RandomSpd(n, &gen, 1.0 + static_cast<double>(n));
    auto want = a.Cholesky();
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(BitIdentical(*want, *reference::Cholesky(a))) << "n=" << n;
    // Only the lower triangle of A goes in. Dense, the zeroed upper
    // triangle must come out untouched, so the buffer ends byte-equal to
    // Cholesky()'s. Packed, the buffer is exactly n(n+1)/2 doubles, so a
    // read past its end fails under AddressSanitizer.
    Matrix dense(n, n);
    Vec packed(PackedSize(n));
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j <= i; ++j) {
        dense.At(i, j) = a.At(i, j);
        packed[PackedRows()(i) + j] = a.At(i, j);
      }
    }
    Vec panel(8 * n);
    ASSERT_TRUE(CholeskyInPlace(dense.RowPtr(0), n, DenseRows{n},
                                panel.data()))
        << "n=" << n;
    ASSERT_TRUE(BitIdentical(dense, *want)) << "n=" << n;
    ASSERT_TRUE(CholeskyInPlace(packed.data(), n, PackedRows{}, panel.data()))
        << "n=" << n;
    ASSERT_TRUE(PackedEqualsDense(packed, *want)) << "n=" << n;

    Vec b = RandomVec(n, &gen);
    Vec y(n);
    packed::ForwardSolveInto(packed.data(), n, b.data(), y.data());
    ASSERT_TRUE(BitIdentical(y, Matrix::ForwardSolve(*want, b))) << "n=" << n;
    Vec x(n);
    packed::BackwardSolveTransposeInto(packed.data(), n, y.data(), x.data());
    ASSERT_TRUE(BitIdentical(x, Matrix::BackwardSolveTranspose(*want, y)))
        << "n=" << n;
    double got = packed::LogDetFromCholesky(packed.data(), n);
    double det = Matrix::LogDetFromCholesky(*want);
    ASSERT_EQ(std::memcmp(&got, &det, sizeof(double)), 0) << "n=" << n;
  }
  // {{1, 2}, {2, 1}}'s lower triangle is indefinite in both layouts.
  Vec panel(16);
  Matrix indefinite = MatrixOf({{1.0, 0.0}, {2.0, 1.0}});
  EXPECT_FALSE(CholeskyInPlace(indefinite.RowPtr(0), 2, DenseRows{2},
                               panel.data()));
  Vec packed = {1.0, 2.0, 1.0};
  EXPECT_FALSE(CholeskyInPlace(packed.data(), 2, PackedRows{}, panel.data()));
}

TEST(BlockedKernels, InPlaceFactorsAndPackedSolvesMatchDense) {
  for (bool sse2 : {false, true}) {
    SCOPED_TRACE(testing::Message() << "sse2=" << sse2);
    Sse2Kernels guard(sse2);
    ExpectInPlaceFactorsAndPackedSolvesMatchDense();
  }
}

TEST(BlockedKernels, CholeskyNotPositiveDefiniteSameError) {
  Matrix a = MatrixOf({{1.0, 2.0}, {2.0, 1.0}});  // indefinite
  auto fast = a.Cholesky();
  auto ref = reference::Cholesky(a);
  ASSERT_FALSE(fast.ok());
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(fast.status().message(), ref.status().message());
}

TEST(BlockedKernels, ForwardSolveBitIdentical) {
  mt19937_64 gen(13);
  for (size_t n : {1, 2, 3, 4, 5, 8, 13, 27, 64, 101}) {
    Matrix a = RandomSpd(n, &gen, 2.0);
    auto l = a.Cholesky();
    ASSERT_TRUE(l.ok());
    Vec b = RandomVec(n, &gen);
    EXPECT_TRUE(BitIdentical(Matrix::ForwardSolve(*l, b),
                             reference::ForwardSolve(*l, b)))
        << "n=" << n;
  }
}

TEST(BlockedKernels, ForwardSolveIntoMatchesAndAllowsAliasing) {
  mt19937_64 gen(17);
  size_t n = 37;
  Matrix a = RandomSpd(n, &gen, 2.0);
  auto l = a.Cholesky();
  ASSERT_TRUE(l.ok());
  Vec b = RandomVec(n, &gen);
  Vec expect = reference::ForwardSolve(*l, b);
  Vec out(n, 0.0);
  Matrix::ForwardSolveInto(*l, b.data(), out.data());
  EXPECT_TRUE(BitIdentical(out, expect));
  Vec in_place = b;  // y == b aliasing
  Matrix::ForwardSolveInto(*l, in_place.data(), in_place.data());
  EXPECT_TRUE(BitIdentical(in_place, expect));
}

// The panel solve behind GaussianProcess::ArgmaxAcquisition: each of the
// sixteen lanes must equal reference::ForwardSolve on its column bit for
// bit, at four lanes and at two alike.
TEST(BlockedKernels, ForwardSolvePanelEachLaneBitIdentical) {
  constexpr size_t kLanes = internal::kPanelLanes;
  for (bool sse2 : {false, true}) {
    Sse2Kernels guard(sse2);
    mt19937_64 gen(19);
    for (size_t n : {1, 5, 16, 40}) {
      Matrix a = RandomSpd(n, &gen, 2.0);
      auto l = a.Cholesky();
      ASSERT_TRUE(l.ok());
      Vec panel(n * kLanes);
      for (size_t k = 0; k < panel.size(); ++k) {
        panel[k] = std::sin(static_cast<double>(k));
      }
      const Vec rhs = panel;
      internal::ForwardSolvePanel(*l, panel.data(), kLanes);
      for (size_t c = 0; c < kLanes; ++c) {
        Vec b(n), y(n);
        for (size_t i = 0; i < n; ++i) {
          b[i] = rhs[i * kLanes + c];
          y[i] = panel[i * kLanes + c];
        }
        EXPECT_TRUE(BitIdentical(y, reference::ForwardSolve(*l, b)))
            << "n=" << n << " lane=" << c << " sse2=" << sse2;
      }
    }
  }
}

TEST(BlockedKernels, MultiplyBitIdenticalIncludingZeroSkip) {
  mt19937_64 gen(23);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (auto [r, k, c] : {std::array<size_t, 3>{1, 1, 1},
                         {3, 4, 5},
                         {8, 8, 8},
                         {13, 7, 21}}) {
    Matrix a(r, k);
    Matrix b(k, c);
    for (size_t i = 0; i < r; ++i) {
      for (size_t j = 0; j < k; ++j) {
        // Sprinkle exact zeros so the zero-skip path is exercised.
        a.At(i, j) = ((i + j) % 3 == 0) ? 0.0 : u(gen);
      }
    }
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < c; ++j) b.At(i, j) = u(gen);
    }
    EXPECT_TRUE(BitIdentical(a.Multiply(b), reference::Multiply(a, b)));
  }
}

TEST(BlockedKernels, AppendRowBitIdenticalToFullRefactorization) {
  mt19937_64 gen(29);
  // Grow a factor one bordered row at a time from 0 to 40 points; at every
  // step it must equal the from-scratch factorization byte for byte (this
  // covers the in-place relayout across all stride transitions).
  size_t target = 40;
  Matrix a = RandomSpd(target, &gen, 4.0 + target);
  Matrix incremental(0, 0);
  for (size_t n = 0; n < target; ++n) {
    Vec row(n + 1);
    for (size_t j = 0; j <= n; ++j) row[j] = a.At(n, j);
    ASSERT_TRUE(incremental.CholeskyAppendRow(row).ok()) << "n=" << n;
    Matrix head(n + 1, n + 1);
    for (size_t i = 0; i <= n; ++i) {
      for (size_t j = 0; j <= n; ++j) head.At(i, j) = a.At(i, j);
    }
    auto full = head.Cholesky();
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(BitIdentical(incremental, *full)) << "n=" << n;
  }
}

TEST(BlockedKernels, AppendRowRejectsIndefiniteBorderUnchanged) {
  Matrix l(0, 0);
  ASSERT_TRUE(l.CholeskyAppendRow({4.0}).ok());
  // Border that makes the matrix indefinite: cross term too large.
  Status s = l.CholeskyAppendRow({10.0, 1.0});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(l.rows(), 1u);
  EXPECT_EQ(l.At(0, 0), 2.0);
}

TEST(BlockedKernels, ScalarSwitchRoutesToReference) {
  mt19937_64 gen(37);
  Matrix a = RandomSpd(12, &gen, 3.0);
  Vec b = RandomVec(12, &gen);
  ASSERT_FALSE(ScalarKernelsForTesting());
  auto fast = a.Cholesky();
  SetScalarKernelsForTesting(true);
  auto scalar = a.Cholesky();
  Vec scalar_solve = Matrix::ForwardSolve(*scalar, b);
  SetScalarKernelsForTesting(false);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(scalar.ok());
  // Scalar and fast agree bit-for-bit — that is the whole point — so the
  // switch is observable only through timing; identity is what we assert.
  EXPECT_TRUE(BitIdentical(*fast, *scalar));
  EXPECT_TRUE(BitIdentical(Matrix::ForwardSolve(*fast, b), scalar_solve));
}

TEST(BlockedKernels, DotSpanMatchesDot) {
  mt19937_64 gen(41);
  Vec a = RandomVec(19, &gen);
  Vec b = RandomVec(19, &gen);
  double d1 = Dot(a, b);
  double d2 = DotSpan(a.data(), b.data(), a.size());
  EXPECT_TRUE(std::memcmp(&d1, &d2, sizeof(double)) == 0);
}

}  // namespace
}  // namespace atune
