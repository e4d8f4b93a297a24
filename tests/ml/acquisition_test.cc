#include "ml/acquisition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace atune {
namespace {

TEST(AcquisitionTest, NormalPdfCdfKnownValues) {
  EXPECT_NEAR(NormalPdf(0.0), 0.3989422804, 1e-9);
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-3);
}

TEST(AcquisitionTest, EiZeroVarianceReducesToPlainImprovement) {
  GpPrediction certain{2.0, 0.0};
  EXPECT_DOUBLE_EQ(ExpectedImprovement(certain, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(ExpectedImprovement(certain, 1.0), 0.0);
}

TEST(AcquisitionTest, EiIncreasesWithUncertainty) {
  GpPrediction narrow{5.0, 0.01};
  GpPrediction wide{5.0, 1.0};
  double best = 4.0;  // both means are worse than best
  EXPECT_GT(ExpectedImprovement(wide, best),
            ExpectedImprovement(narrow, best));
}

TEST(AcquisitionTest, EiDecreasesWithWorseMean) {
  GpPrediction good{3.0, 0.5};
  GpPrediction bad{6.0, 0.5};
  EXPECT_GT(ExpectedImprovement(good, 4.0), ExpectedImprovement(bad, 4.0));
}

TEST(AcquisitionTest, EiAlwaysNonNegative) {
  for (double mean : {-2.0, 0.0, 5.0, 100.0}) {
    for (double var : {0.0, 0.1, 10.0}) {
      EXPECT_GE(ExpectedImprovement({mean, var}, 1.0), 0.0);
    }
  }
}

TEST(AcquisitionTest, PiIsProbability) {
  GpPrediction p{5.0, 4.0};
  double pi = ProbabilityOfImprovement(p, 5.0);
  EXPECT_NEAR(pi, 0.5, 1e-9);  // mean == best: 50/50
  EXPECT_GE(ProbabilityOfImprovement(p, -100.0), 0.0);
  EXPECT_LE(ProbabilityOfImprovement(p, 1000.0), 1.0);
  GpPrediction certain{2.0, 0.0};
  EXPECT_DOUBLE_EQ(ProbabilityOfImprovement(certain, 3.0), 1.0);
  EXPECT_DOUBLE_EQ(ProbabilityOfImprovement(certain, 1.0), 0.0);
}

TEST(AcquisitionTest, LcbPrefersLowMeanAndHighVariance) {
  EXPECT_GT(LowerConfidenceBound({1.0, 1.0}), LowerConfidenceBound({2.0, 1.0}));
  EXPECT_GT(LowerConfidenceBound({1.0, 4.0}), LowerConfidenceBound({1.0, 1.0}));
}

using std::mt19937_64;

constexpr AcquisitionKind kKinds[] = {
    AcquisitionKind::kExpectedImprovement,
    AcquisitionKind::kProbabilityOfImprovement,
    AcquisitionKind::kLowerConfidenceBound};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Pools by worker count, each built on first use and kept for the binary.
ThreadPool* Pool(size_t workers) {
  static std::map<size_t, std::unique_ptr<ThreadPool>> pools;
  std::unique_ptr<ThreadPool>& pool = pools[workers];
  if (pool == nullptr) pool = std::make_unique<ThreadPool>(workers);
  return pool.get();
}

/// Restores the AVX-dispatched kernels even when an assertion returns.
class Sse2Kernels {
 public:
  explicit Sse2Kernels(bool sse2) { SetSse2KernelsForTesting(sse2); }
  ~Sse2Kernels() { SetSse2KernelsForTesting(false); }
};

/// The scan ArgmaxAcquisition must reproduce: every candidate predicted and
/// scored, the first strictly larger value in index order kept.
std::optional<AcquisitionArgmax> FullScan(const GaussianProcess& gp,
                                          const Matrix& cands,
                                          AcquisitionKind kind, double best) {
  std::optional<AcquisitionArgmax> winner;
  double top = -std::numeric_limits<double>::infinity();
  for (size_t r = 0; r < cands.rows(); ++r) {
    const double v = AcquisitionValue(kind, gp.Predict(cands.Row(r)), best);
    if (v > top) {
      top = v;
      winner = AcquisitionArgmax{r, v};
    }
  }
  return winner;
}

/// ArgmaxAcquisition without a pool and on pools of one and three workers,
/// under the four-lane kernels (the exact-quotient body where the host has
/// FMA) and the two-lane divide ones, against the full scan.
void ExpectArgmaxOfFullScan(const GaussianProcess& gp, const Matrix& cands,
                            double best, const char* what) {
  for (AcquisitionKind kind : kKinds) {
    const std::optional<AcquisitionArgmax> want =
        FullScan(gp, cands, kind, best);
    for (bool sse2 : {false, true}) {
      Sse2Kernels guard(sse2);
      for (size_t workers : {0, 1, 3}) {
        SCOPED_TRACE(testing::Message()
                     << what << " kind=" << static_cast<int>(kind)
                     << " sse2=" << sse2 << " workers=" << workers);
        const std::optional<AcquisitionArgmax> got = gp.ArgmaxAcquisition(
            cands, kind, best, workers == 0 ? nullptr : Pool(workers));
        ASSERT_EQ(got.has_value(), want.has_value());
        if (!want) continue;
        EXPECT_EQ(got->index, want->index);
        EXPECT_TRUE(SameBits(got->value, want->value))
            << got->value << " vs " << want->value;
      }
    }
  }
}

Matrix UniformCandidates(size_t m, size_t d, mt19937_64* gen) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  Matrix c(m, d);
  for (size_t r = 0; r < m; ++r) {
    for (size_t j = 0; j < d; ++j) c.At(r, j) = u(*gen);
  }
  return c;
}

TEST(AcquisitionScanTest, ArgmaxIsTheFullScans) {
  mt19937_64 gen(43);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const size_t d = 4;
  for (KernelType kernel :
       {KernelType::kMatern52, KernelType::kSquaredExponential}) {
    for (size_t n : {3, 24, 70}) {
      std::vector<Vec> xs(n, Vec(d));
      Vec ys(n);
      for (size_t i = 0; i < n; ++i) {
        for (double& v : xs[i]) v = u(gen);
        ys[i] = 3.0 * u(gen) - 1.5;
      }
      GaussianProcess gp(
          GpHyperParams{kernel, {0.7, 0.45, 1.3, 0.35}, 1.3, 1e-4});
      ASSERT_TRUE(gp.Fit(xs, ys).ok());
      const double best = *std::min_element(ys.begin(), ys.end());
      for (size_t m : {1, 15, 17, 300, 1500}) {
        SCOPED_TRACE(testing::Message() << "kernel=" << static_cast<int>(kernel)
                                        << " n=" << n << " m=" << m);
        Matrix cands = UniformCandidates(m, d, &gen);
        ExpectArgmaxOfFullScan(gp, cands, best, "uniform");
        // The incumbent far below every mean: every EI and PI is tiny.
        ExpectArgmaxOfFullScan(gp, cands, best - 12.0, "tiny");
        // Ties: the second half repeats the first, and candidates sit at
        // training points, where the posterior variance is about 0.
        for (size_t r = m / 2; r < m; ++r) {
          for (size_t j = 0; j < d; ++j) {
            cands.At(r, j) = r % 5 == 0 ? xs[r % n][j] : cands.At(r - m / 2, j);
          }
        }
        ExpectArgmaxOfFullScan(gp, cands, best, "ties");
        // NaN candidates never win, and all of them give no winner.
        for (size_t r = 0; r < m; r += 3) {
          cands.At(r, r % d) = std::numeric_limits<double>::quiet_NaN();
        }
        ExpectArgmaxOfFullScan(gp, cands, best, "some nan");
      }
      // One 16-row block in all 16 rotations, so the winner visits every
      // chunk lane. A single chunk has no running best before its panel is
      // solved, so every lane is solved, in the solve panel's lane of its
      // chunk lane: a wrong bit in any lane's mean or variance shows in the
      // winner's value in some rotation.
      mt19937_64 block_gen(53 + n);
      const size_t lanes = internal::kPanelLanes;
      const Matrix block = UniformCandidates(lanes, d, &block_gen);
      for (size_t k = 0; k < lanes; ++k) {
        Matrix rotated(lanes, d);
        for (size_t r = 0; r < lanes; ++r) {
          for (size_t j = 0; j < d; ++j) {
            rotated.At(r, j) = block.At((r + k) % lanes, j);
          }
        }
        ExpectArgmaxOfFullScan(gp, rotated, best, "rotated");
      }
      // Candidates of the wrong width take the full scan, whose Predict
      // falls back to KernelValue over the shared dimensions.
      ExpectArgmaxOfFullScan(gp, UniformCandidates(40, d + 2, &block_gen),
                             best, "wrong width");
    }
  }
}

TEST(AcquisitionScanTest, AllNanCandidatesHaveNoWinner) {
  GaussianProcess gp(GpHyperParams{KernelType::kMatern52, {0.7}, 1.0, 1e-4});
  ASSERT_TRUE(gp.Fit({{0.1}, {0.5}, {0.8}}, Vec{1.0, -0.5, 0.2}).ok());
  Matrix cands(40, 1, std::numeric_limits<double>::quiet_NaN());
  for (AcquisitionKind kind : kKinds) {
    for (size_t workers : {0, 3}) {
      EXPECT_FALSE(gp.ArgmaxAcquisition(cands, kind, -0.5,
                                        workers == 0 ? nullptr : Pool(workers))
                       .has_value());
    }
    EXPECT_FALSE(FullScan(gp, cands, kind, -0.5).has_value());
  }
}

TEST(AcquisitionScanTest, SolvedCountsArePinned) {
  // The groups are fixed, so how many lanes the scan solves depends only on
  // the inputs: the same with or without a pool, under either kernel width.
  // Pruning against each group's running best solves a fraction of the
  // 2000 candidates; far from every training point (squared-exponential
  // kernel rows that are exactly 0) each LCB value equals its bound, so
  // every lane ties the best so far and is solved.
  mt19937_64 gen(47);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const size_t n = 60;
  const size_t d = 6;
  std::vector<Vec> xs(n, Vec(d));
  Vec ys(n);
  for (size_t i = 0; i < n; ++i) {
    for (double& v : xs[i]) v = u(gen);
    ys[i] = 3.0 * u(gen) - 1.5;
  }
  GaussianProcess gp(GpHyperParams{KernelType::kMatern52,
                                   {0.7, 0.45, 1.3, 0.35, 0.9, 0.6}, 1.3,
                                   1e-4});
  ASSERT_TRUE(gp.Fit(xs, ys).ok());
  const Matrix cands = UniformCandidates(2000, d, &gen);
  const double best = *std::min_element(ys.begin(), ys.end());

  GaussianProcess far(GpHyperParams{KernelType::kSquaredExponential,
                                    {0.01, 0.01}, 1.0, 1e-4});
  ASSERT_TRUE(far.Fit({{0.02, 0.05}, {0.08, 0.01}, {0.05, 0.09}},
                      Vec{0.3, -0.4, 0.9})
                  .ok());
  Matrix far_cands(100, 2);
  for (size_t r = 0; r < far_cands.rows(); ++r) {
    far_cands.At(r, 0) = 0.8 + 0.2 * u(gen);
    far_cands.At(r, 1) = 0.8 + 0.2 * u(gen);
  }

  struct Case {
    const GaussianProcess* gp;
    const Matrix* cands;
    AcquisitionKind kind;
    uint64_t solved;
  };
  const Case cases[] = {
      {&gp, &cands, AcquisitionKind::kExpectedImprovement, 234},
      {&gp, &cands, AcquisitionKind::kProbabilityOfImprovement, 156},
      {&gp, &cands, AcquisitionKind::kLowerConfidenceBound, 711},
      {&far, &far_cands, AcquisitionKind::kLowerConfidenceBound, 100},
  };
  for (const Case& c : cases) {
    for (bool sse2 : {false, true}) {
      Sse2Kernels guard(sse2);
      for (size_t workers : {0, 3}) {
        SCOPED_TRACE(testing::Message() << "kind=" << static_cast<int>(c.kind)
                                        << " sse2=" << sse2
                                        << " workers=" << workers);
        MetricsRegistry metrics;
        ScopedMetricsInstall install(&metrics);
        ASSERT_TRUE(c.gp->ArgmaxAcquisition(*c.cands, c.kind, best,
                                            workers == 0 ? nullptr
                                                         : Pool(workers))
                        .has_value());
        EXPECT_EQ(metrics.GetCounter("gp.acquisition_candidates")->Value(),
                  c.cands->rows());
        EXPECT_EQ(metrics.GetCounter("gp.acquisition_solved")->Value(),
                  c.solved);
      }
    }
  }
}

}  // namespace
}  // namespace atune
