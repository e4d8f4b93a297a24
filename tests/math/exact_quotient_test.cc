// Tests for the exact-quotient distance pass (DESIGN.md §11). On hosts with
// AVX2 and FMA, internal::ExactQuotient rebuilds the correctly rounded
// a / b from RN(1 / b) with FMA corrections, and internal::SquaredDistances
// runs it four lanes abreast wherever the inputs pass the guard. Every
// result must carry the divide's bits; near underflow and overflow, where
// the sequence can fail, the guard must send the inputs to the divide.

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "math/matrix.h"
#include "ml/gaussian_process.h"

namespace atune {
namespace {

using std::mt19937_64;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

#if defined(ATUNE_HAVE_AVX_DISPATCH)
/// out[i] = ExactQuotient(a[i], b) for i < count (a multiple of four),
/// inlined into an entry of the distance pass's kind.
__attribute__((target("avx2,fma"), optimize("fp-contract=off"), flatten)) void
FmaQuotients(const double* a, size_t count, double b, double* out) {
  const double y = 1.0 / b;
  for (size_t i = 0; i < count; i += 4) {
    internal::V4 v = {};
    internal::Load(&v, a + i);
    internal::V4 q = {};
    internal::ExactQuotient(&q, v, b, y);
    internal::Store(out + i, q);
  }
}
#endif

/// Counts the quotients a[i] / b that ExactQuotient rounds differently
/// from the divide. A zero quotient may come out as either zero.
size_t Mismatches(const std::vector<double>& a, double b) {
#if defined(ATUNE_HAVE_AVX_DISPATCH)
  std::vector<double> q(a.size());
  FmaQuotients(a.data(), a.size(), b, q.data());
  size_t bad = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double want = a[i] / b;
    if (want == 0.0 ? q[i] != 0.0 : !SameBits(q[i], want)) ++bad;
  }
  return bad;
#else
  (void)a;
  (void)b;
  return 0;
#endif
}

TEST(ExactQuotient, RandomQuotientsEqualTheDivide) {
  if (!internal::FmaAvailable()) GTEST_SKIP() << "no AVX2 and FMA";
  // 10.24 M quotients. Numerators are differences of two uniform doubles in
  // [0, 1), as the distance pass forms them, one in eight an exact tie and
  // one in eight two adjacent doubles; divisors are log-uniform over the
  // hyper search's [0.05, 2], one in five over [e^-30, e^30].
  mt19937_64 gen(11);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_real_distribution<double> narrow(std::log(0.05), std::log(2.0));
  std::uniform_real_distribution<double> wide(-30.0, 30.0);
  std::vector<double> a(64);
  size_t bad = 0;
  for (size_t round = 0; round < 160000; ++round) {
    const double b = std::exp(round % 5 == 0 ? wide(gen) : narrow(gen));
    for (size_t i = 0; i < a.size(); ++i) {
      const double x = u(gen);
      switch (i % 8) {
        case 0:
          a[i] = x - x;
          break;
        case 1:
          a[i] = x - std::nextafter(x, 2.0);
          break;
        default:
          a[i] = x - u(gen);
      }
    }
    bad += Mismatches(a, b);
  }
  EXPECT_EQ(bad, 0u);
}

TEST(ExactQuotient, EdgeCasesEqualTheDivide) {
  if (!internal::FmaAvailable()) GTEST_SKIP() << "no AVX2 and FMA";
  // Numerators at the bounds of the differences of guarded operands
  // ([2^-852, 2^501]), powers of two, adjacent doubles and ties; divisors
  // at the guard's bounds, the 1e-12 lengthscale clamp and around powers
  // of two.
  std::vector<double> a = {0.0, -0.0, 1.0, -1.0, 0.5, 0.75, 1.0 / 3.0};
  for (int e = -60; e <= 40; e += 5) {
    a.push_back(std::ldexp(1.0, e));
    a.push_back(-std::ldexp(1.0, e));
    a.push_back(std::nextafter(std::ldexp(1.0, e), 0.0));
    a.push_back(std::nextafter(std::ldexp(1.0, e), 1e300));
  }
  for (double x : {0.1, 0.3, 0.7, 0.9999999999999999}) {
    a.push_back(x - std::nextafter(x, 0.0));
    a.push_back(std::nextafter(x, 0.0) - x);
    a.push_back(x - 0.0);
  }
  const double lo = std::ldexp(1.0, -800);
  const double hi = std::ldexp(1.0, 500);
  for (double v : {lo, std::nextafter(lo, 1.0), hi, std::nextafter(hi, 0.0),
                   hi - lo, std::ldexp(1.0, -852), std::ldexp(1.5, 500)}) {
    a.push_back(v);
    a.push_back(-v);
  }
  while (a.size() % 4 != 0) a.push_back(1.0);
  for (double b : {std::ldexp(1.0, -40), std::ldexp(1.0, 40), 1e-12, 1.0,
                   2.0, 0.5, 3.0, 0.05, 0.7, 1.3, std::nextafter(1.0, 0.0),
                   std::nextafter(1.0, 2.0), std::nextafter(2.0, 0.0),
                   std::nextafter(std::ldexp(1.0, 40), 0.0)}) {
    ASSERT_TRUE(internal::ExactQuotientDivisors(&b, 1)) << b;
    EXPECT_EQ(Mismatches(a, b), 0u) << "b=" << b;
  }
}

TEST(ExactQuotient, GuardSendsNearUnderflowAndOverflowToTheDivide) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {0.0, -0.0, std::ldexp(1.0, -800), -std::ldexp(1.0, 500),
                   1.0, std::ldexp(1.0, -53)}) {
    EXPECT_TRUE(internal::ExactQuotientOperands(&v, 1)) << v;
  }
  for (double v : {std::ldexp(1.0, -1022), std::ldexp(1.0, -1040),
                   std::nextafter(std::ldexp(1.0, -800), 0.0),
                   std::nextafter(std::ldexp(1.0, 500), inf), 1e300, inf,
                   -inf, nan}) {
    EXPECT_FALSE(internal::ExactQuotientOperands(&v, 1)) << v;
  }
  for (double l : {std::ldexp(1.0, -40), std::ldexp(1.0, 40), 1e-12, 0.3}) {
    EXPECT_TRUE(internal::ExactQuotientDivisors(&l, 1)) << l;
  }
  for (double l : {std::nextafter(std::ldexp(1.0, -40), 0.0),
                   std::nextafter(std::ldexp(1.0, 40), inf), 0.0, -1.0, inf,
                   nan}) {
    EXPECT_FALSE(internal::ExactQuotientDivisors(&l, 1)) << l;
  }
  // One bad value anywhere fails the whole span.
  std::vector<double> span(37, 0.5);
  span[29] = std::ldexp(1.0, -1022);
  EXPECT_FALSE(internal::ExactQuotientOperands(span.data(), span.size()));

  if (internal::FmaAvailable()) {
    // Why the guard exists: near the subnormals the sequence misrounds.
    mt19937_64 gen(19);
    std::uniform_real_distribution<double> u(1.0, 2.0);
    std::vector<double> a(4096);
    for (double& v : a) v = std::ldexp(u(gen), -1022);
    size_t bad = 0;
    for (double b : {0.7, 1.3, 1.9}) bad += Mismatches(a, b);
    EXPECT_GT(bad, 0u);
  }

  // Through the GP: coordinates past the guard take the divide, so every
  // posterior and every scan keeps the scalar path's bits. The huge
  // coordinate makes its distances overflow, where the FMA sequence would
  // give NaN for the divide's infinity, and the squared-exponential kernel
  // tells them apart. A training coordinate past the guard turns the exact
  // body off for the whole GP; a candidate's only for its own kernel row
  // (Predict) or panel chunk (ArgmaxAcquisition).
  const double huge = std::ldexp(1.5, 1023);
  const double tiny = std::ldexp(1.0, -1022);
  const Vec ys = {0.5, -0.2, 1.1, 0.3};
  const std::vector<Vec> outside = {
      {0.1, 0.2}, {0.6, tiny}, {0.9, 0.4}, {0.3, huge}};
  Matrix subnormal(19, 2);
  mt19937_64 gen(23);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (size_t r = 0; r < subnormal.rows(); ++r) {
    subnormal.At(r, 0) = u(gen);
    subnormal.At(r, 1) = r % 3 == 0 ? tiny : u(gen);
  }
  // Training points inside the guard, and candidates on them, where the
  // variance is about 0, but for one huge candidate: its infinite distances
  // give it the prior, whose LCB is the largest. The exact body's NaN would
  // never win.
  const std::vector<Vec> inside = {
      {0.1, 0.2}, {0.6, 0.7}, {0.9, 0.4}, {0.3, 0.8}};
  const size_t kHugeRow = 13;
  Matrix on_points(19, 2);
  for (size_t r = 0; r < on_points.rows(); ++r) {
    on_points.At(r, 0) = inside[r % 4][0];
    on_points.At(r, 1) = r == kHugeRow ? huge : inside[r % 4][1];
  }
  const AcquisitionKind kinds[] = {AcquisitionKind::kExpectedImprovement,
                                   AcquisitionKind::kProbabilityOfImprovement,
                                   AcquisitionKind::kLowerConfidenceBound};
  struct Scan {
    std::vector<GpPrediction> preds;
    std::optional<AcquisitionArgmax> picks[3];
  };
  auto run = [&](const std::vector<Vec>& xs, const Matrix& cands,
                 bool scalar) {
    SetScalarKernelsForTesting(scalar);
    GaussianProcess gp(
        GpHyperParams{KernelType::kSquaredExponential, {0.7, 0.5}, 1.0, 1e-4});
    EXPECT_TRUE(gp.Fit(xs, ys).ok());
    Scan scan;
    for (size_t r = 0; r < cands.rows(); ++r) {
      scan.preds.push_back(gp.Predict(cands.Row(r)));
    }
    for (size_t k = 0; k < 3; ++k) {
      scan.picks[k] = gp.ArgmaxAcquisition(cands, kinds[k], -0.2);
    }
    SetScalarKernelsForTesting(false);
    return scan;
  };
  for (bool training_outside : {true, false}) {
    SCOPED_TRACE(training_outside ? "training outside" : "training inside");
    const std::vector<Vec>& xs = training_outside ? outside : inside;
    const Matrix& cands = training_outside ? subnormal : on_points;
    const Scan want = run(xs, cands, true);
    const Scan got = run(xs, cands, false);
    for (size_t r = 0; r < cands.rows(); ++r) {
      EXPECT_TRUE(SameBits(got.preds[r].mean, want.preds[r].mean)) << r;
      EXPECT_TRUE(SameBits(got.preds[r].variance, want.preds[r].variance))
          << r;
    }
    for (size_t k = 0; k < 3; ++k) {
      ASSERT_TRUE(want.picks[k].has_value()) << k;
      ASSERT_TRUE(got.picks[k].has_value()) << k;
      EXPECT_EQ(got.picks[k]->index, want.picks[k]->index) << k;
      EXPECT_TRUE(SameBits(got.picks[k]->value, want.picks[k]->value)) << k;
    }
    if (!training_outside) {
      EXPECT_EQ(want.picks[2]->index, kHugeRow);
    }
  }
}

TEST(ExactQuotient, DistancePassBodiesAgree) {
  // Both bodies of internal::SquaredDistances against the scalar loop, for
  // row counts, point counts around the two-vector, one-vector and single
  // steps, and odd strides.
  mt19937_64 gen(29);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_real_distribution<double> scale(std::log(0.05), std::log(2.0));
  for (size_t d : {1, 3, 12}) {
    for (size_t m : {1, 3, 4, 7, 8, 11, 16, 37}) {
      for (size_t rows : {1, 2, 5}) {
        const size_t stride = m + 3;
        std::vector<double> xs(rows * d), pts(d * stride), ls(d), inv(d);
        for (double& v : xs) v = u(gen);
        for (double& v : pts) v = u(gen);
        for (size_t j = 0; j < d; ++j) {
          ls[j] = std::exp(scale(gen));
          inv[j] = 1.0 / ls[j];
        }
        std::vector<double> want(rows * m);
        for (size_t r = 0; r < rows; ++r) {
          for (size_t i = 0; i < m; ++i) {
            double acc = 0.0;
            for (size_t j = 0; j < d; ++j) {
              const double q = (xs[r * d + j] - pts[j * stride + i]) / ls[j];
              acc += q * q;
            }
            want[r * m + i] = acc;
          }
        }
        for (bool exact : {false, true}) {
          if (exact && !internal::FmaAvailable()) continue;
          std::vector<double> got(rows * m);
          internal::SquaredDistances(xs.data(), rows, pts.data(), stride, m,
                                     d, ls.data(), inv.data(), exact,
                                     got.data());
          for (size_t k = 0; k < got.size(); ++k) {
            ASSERT_TRUE(SameBits(got[k], want[k]))
                << "d=" << d << " m=" << m << " rows=" << rows
                << " exact=" << exact << " entry " << k;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace atune
