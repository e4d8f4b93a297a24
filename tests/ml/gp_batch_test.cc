// Bit-identity tests for the GP's fast paths of DESIGN.md §11: the
// fast-vs-scalar A/B switch over a full Fit/AddObservation/Predict cycle,
// and the kernel tail's ExpV4 body against its libm body. The
// AVX-dispatched kernels also run their two-lane instances here, through
// SetSse2KernelsForTesting. ArgmaxAcquisition's panels are checked lane by
// lane in acquisition_test.cc.

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "ml/gaussian_process.h"

namespace atune {
namespace {

using std::mt19937_64;

std::vector<Vec> RandomPoints(size_t n, size_t d, mt19937_64* gen) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<Vec> xs(n, Vec(d));
  for (auto& x : xs) {
    for (double& v : x) v = u(*gen);
  }
  return xs;
}

Vec RandomTargets(size_t n, mt19937_64* gen) {
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  Vec ys(n);
  for (double& y : ys) y = u(*gen);
  return ys;
}

Matrix RandomCandidates(size_t m, size_t d, mt19937_64* gen) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  Matrix c(m, d);
  for (size_t r = 0; r < m; ++r) {
    for (size_t j = 0; j < d; ++j) c.At(r, j) = u(*gen);
  }
  return c;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Routes the AVX-dispatched kernels to their two-lane instances for one
/// scope; restores AVX even when an assertion returns.
class Sse2Kernels {
 public:
  explicit Sse2Kernels(bool sse2) { SetSse2KernelsForTesting(sse2); }
  ~Sse2Kernels() { SetSse2KernelsForTesting(false); }
};

TEST(GpBatch, ScalarSwitchWholeCycleBitIdentical) {
  // Fit + AddObservation, then Predict, under the fast kernels at four
  // lanes and at two, must equal the same cycle under the scalar
  // (pre-speed-layer) kernels bit for bit, for both kernel types: the fast
  // paths share the kernel-row tail, so only the scalar path can catch a
  // change to it. Explicit lengthscales: the default 0.3 divides exactly
  // like a multiply by its reciprocal, and would hide one.
  auto run = [](KernelType kernel, bool scalar) {
    SetScalarKernelsForTesting(scalar);
    mt19937_64 gen(13);
    size_t d = 4;
    GaussianProcess gp(
        GpHyperParams{kernel, {0.7, 1.3, 0.45, 0.9}, 1.0, 1e-4});
    std::vector<Vec> xs = RandomPoints(20, d, &gen);
    Vec ys = RandomTargets(20, &gen);
    EXPECT_TRUE(gp.Fit(xs, ys).ok());
    std::vector<Vec> extra = RandomPoints(5, d, &gen);
    for (size_t i = 0; i < extra.size(); ++i) {
      EXPECT_TRUE(gp.AddObservation(extra[i], 0.1 * i).ok());
    }
    Matrix probes = RandomCandidates(11, d, &gen);
    std::vector<GpPrediction> preds(probes.rows());
    for (size_t r = 0; r < probes.rows(); ++r) {
      preds[r] = gp.Predict(probes.Row(r));
    }
    SetScalarKernelsForTesting(false);
    return preds;
  };
  for (KernelType kernel :
       {KernelType::kMatern52, KernelType::kSquaredExponential}) {
    const std::vector<GpPrediction> scalar = run(kernel, true);
    for (bool sse2 : {false, true}) {
      Sse2Kernels guard(sse2);
      SCOPED_TRACE(testing::Message() << "kernel=" << static_cast<int>(kernel)
                                      << " sse2=" << sse2);
      std::vector<GpPrediction> fast = run(kernel, false);
      ASSERT_EQ(fast.size(), scalar.size());
      for (size_t i = 0; i < fast.size(); ++i) {
        EXPECT_TRUE(SameBits(fast[i].mean, scalar[i].mean)) << i;
        EXPECT_TRUE(SameBits(fast[i].variance, scalar[i].variance)) << i;
      }
    }
  }
}

TEST(GpBatch, KernelTailExpV4BodyEqualsTheLibmBody) {
  if (!internal::FmaAvailable()) GTEST_SKIP() << "no AVX2 and FMA";
  // Squared distances as the hyper search meets them (d = 6, lengthscales
  // log-uniform over [0.05, 2]) with, in every vector position, lanes whose
  // exp argument leaves ExpV4's fast range beside fast ones: zero and tiny
  // distances, far ones (below -512 for either kernel), infinity and NaN.
  mt19937_64 gen(43);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_real_distribution<double> log_ls(std::log(0.05),
                                                std::log(2.0));
  const double special[] = {0.0,    0x1p-120, 0x1p-108, 2.5e3,
                            6e4,    1e6,      1e300,
                            std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
  std::vector<double> sq;
  for (double v : special) {
    for (size_t pos = 0; pos < 4; ++pos) {
      for (size_t l = 0; l < 4; ++l) sq.push_back(l == pos ? v : -1.0);
    }
  }
  for (size_t i = 0; i < 4096; ++i) sq.push_back(-1.0);
  for (double& v : sq) {
    if (v != -1.0) continue;
    double acc = 0.0;
    for (size_t j = 0; j < 6; ++j) {
      const double q = (u(gen) - u(gen)) / std::exp(log_ls(gen));
      acc += q * q;
    }
    v = acc;
  }
  for (bool se : {true, false}) {
    // Every length, so the four-lane steps end on each remainder.
    for (size_t m : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{7},
                     sq.size()}) {
      std::vector<double> libm(sq.begin(), sq.begin() + m);
      std::vector<double> fast = libm;
      internal::KernelTailInPlace(libm.data(), m, se, 1.7, false);
      internal::KernelTailInPlace(fast.data(), m, se, 1.7, true);
      for (size_t i = 0; i < m; ++i) {
        // KernelValue's operations on the same squared distance.
        const double r = std::sqrt(sq[i]);
        const double s = std::sqrt(5.0) * r;
        const double want =
            se ? 1.7 * std::exp(-0.5 * r * r)
               : 1.7 * (1.0 + s + s * s / 3.0) * std::exp(-s);
        ASSERT_TRUE(SameBits(libm[i], want))
            << "se=" << se << " m=" << m << " entry " << i;
        ASSERT_TRUE(SameBits(fast[i], want))
            << "se=" << se << " m=" << m << " entry " << i << " sq "
            << sq[i];
      }
    }
  }
}

}  // namespace
}  // namespace atune
