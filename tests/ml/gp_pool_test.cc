// Bit-identity tests for the pooled GP surrogate (DESIGN.md §6, §11): the
// hyper search scores its probes in place from one queue that the calling
// thread and up to five pool workers drain, optionally beside an
// `alongside` task on the pool, and hands the model its winning probe's
// factor. None of it may change a bit: the fitted params, the log marginal
// likelihood and every prediction must equal the unpooled run's, the fast
// in-place path must equal the scalar reference path (which refits the
// winner), and the caller's random stream must end where the unpooled run
// leaves it. The pooled acquisition scan is checked in acquisition_test.cc.

#include <chrono>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "ml/gaussian_process.h"
#include "obs/metrics.h"

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

/// Restores the fast kernels even when an assertion returns early.
class ScalarKernels {
 public:
  ScalarKernels() { SetScalarKernelsForTesting(true); }
  ~ScalarKernels() { SetScalarKernelsForTesting(false); }
};

/// Routes the AVX-dispatched kernels to their two-lane divide instances for
/// one scope (on an FMA host the other setting runs the exact-quotient
/// distance body); restores them even when an assertion returns early.
class Sse2Kernels {
 public:
  explicit Sse2Kernels(bool sse2) { SetSse2KernelsForTesting(sse2); }
  ~Sse2Kernels() { SetSse2KernelsForTesting(false); }
};

/// Pools by worker count, each built on first use and kept for the binary.
ThreadPool* Pool(size_t workers) {
  static std::map<size_t, std::unique_ptr<ThreadPool>> pools;
  std::unique_ptr<ThreadPool>& pool = pools[workers];
  if (pool == nullptr) pool = std::make_unique<ThreadPool>(workers);
  return pool.get();
}

/// Everything a fitted model exposes, as raw bits.
std::vector<double> Fingerprint(const GaussianProcess& gp,
                                const Matrix& probes) {
  const GpHyperParams& p = gp.params();
  std::vector<double> out = {static_cast<double>(p.kernel), p.signal_variance,
                             p.noise_variance, gp.LogMarginalLikelihood(),
                             static_cast<double>(gp.num_points()),
                             gp.fitted() ? 1.0 : 0.0};
  out.insert(out.end(), p.lengthscales.begin(), p.lengthscales.end());
  for (size_t r = 0; r < probes.rows(); ++r) {
    GpPrediction pred = gp.Predict(probes.Row(r));
    out.push_back(pred.mean);
    out.push_back(pred.variance);
  }
  return out;
}

void ExpectSameBits(const std::vector<double>& want,
                    const std::vector<double>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(SameBits(want[i], got[i]))
        << what << " entry " << i << ": " << want[i] << " vs " << got[i];
  }
}

/// Runs the same seeded hyper search without a pool, with pools of 1..4
/// workers, and under the scalar kernels without a pool and on a pool of
/// three (one pool task per candidate), each under both kernel widths, and
/// requires the bits of the unpooled search at the default width.
void ExpectSearchesAgree(const std::vector<Vec>& xs, const Vec& ys,
                         GpHyperParams params, size_t budget,
                         const Matrix& probes) {
  auto search = [&](ThreadPool* pool) {
    GaussianProcess gp(params);
    Rng rng(17);
    Status fit = gp.FitWithHyperSearch(xs, ys, budget, &rng, pool);
    EXPECT_TRUE(fit.ok()) << fit.ToString();
    return gp;
  };
  GaussianProcess serial = search(nullptr);
  ASSERT_TRUE(serial.fitted());
  const std::vector<double> want = Fingerprint(serial, probes);
  for (bool sse2 : {false, true}) {
    Sse2Kernels widths(sse2);
    SCOPED_TRACE(testing::Message() << "sse2=" << sse2);
    for (size_t workers = 0; workers <= 4; ++workers) {
      ExpectSameBits(
          want,
          Fingerprint(search(workers == 0 ? nullptr : Pool(workers)), probes),
          "pooled search");
    }
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), Pool(3)}) {
      GaussianProcess scalar;
      {
        ScalarKernels guard;
        scalar = search(pool);
      }
      ExpectSameBits(want, Fingerprint(scalar, probes),
                     pool == nullptr ? "scalar search"
                                     : "pooled scalar search");
    }
  }
}

TEST(GpPool, HyperSearchIsBitIdenticalAcrossSlicesAndKernels) {
  mt19937_64 gen(5);
  // n = 15 and 16 end on a partial and on a full panel of PanelCholesky8;
  // budget 7 does not divide among the probe threads.
  for (KernelType kernel :
       {KernelType::kMatern52, KernelType::kSquaredExponential}) {
    for (size_t n : {40, 15, 16, 200}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " kernel="
                                      << static_cast<int>(kernel));
      const size_t d = 4;
      ExpectSearchesAgree(RandomPoints(n, d, &gen), RandomTargets(n, &gen),
                          GpHyperParams{kernel, {}, 1.0, 1e-4}, 7,
                          RandomCandidates(5, d, &gen));
    }
  }
}

TEST(GpPool, HyperSearchOverDuplicateDesignIsBitIdentical) {
  mt19937_64 gen(9);
  for (KernelType kernel :
       {KernelType::kMatern52, KernelType::kSquaredExponential}) {
    for (size_t distinct : {5, 14, 50}) {
      // Every point three times: 15 rows (a partial last panel), 42 and
      // 150.
      std::vector<Vec> base = RandomPoints(distinct, 3, &gen);
      std::vector<Vec> xs;
      for (int copy = 0; copy < 3; ++copy) {
        xs.insert(xs.end(), base.begin(), base.end());
      }
      ExpectSearchesAgree(xs, RandomTargets(xs.size(), &gen),
                          GpHyperParams{kernel, {}, 1.0, 1e-4}, 6,
                          RandomCandidates(4, 3, &gen));
    }
  }
}

TEST(GpPool, JitterEscalationIsBitIdenticalInPlace) {
  // The search's candidates keep their noise above 2e-7 of the signal
  // variance, so their kernels factor at the first try; Fit shares the
  // in-place escalation, so force it there. With x_0 duplicated, unit
  // signal variance and a noise below the rounding of 1.0, the first pivot
  // after the duplicate is exactly <= 0; the retry at jitter 1e-10 must
  // give the bits of a fit that starts at 1e-10, on both kernel paths.
  mt19937_64 gen(13);
  for (bool sse2 : {false, true}) {
    Sse2Kernels widths(sse2);
    for (KernelType kernel :
         {KernelType::kMatern52, KernelType::kSquaredExponential}) {
      for (size_t n : {40, 200, 12}) {
        std::vector<Vec> xs = RandomPoints(n, 3, &gen);
        xs[n / 2] = xs[0];
        Vec ys = RandomTargets(n, &gen);
        Matrix probes = RandomCandidates(4, 3, &gen);
        auto fit = [&](double noise) {
          GaussianProcess gp(
              GpHyperParams{kernel, {0.4, 0.3, 0.5}, 1.0, noise});
          EXPECT_TRUE(gp.Fit(xs, ys).ok());
          return Fingerprint(gp, probes);
        };
        // The noise itself is part of the fingerprint; compare the rest.
        std::vector<double> escalated = fit(1e-20);
        std::vector<double> direct = fit(1e-10);
        escalated[2] = direct[2] = 0.0;
        ExpectSameBits(direct, escalated, "escalated fit");
        std::vector<double> scalar;
        {
          ScalarKernels guard;
          scalar = fit(1e-20);
        }
        scalar[2] = 0.0;
        ExpectSameBits(escalated, scalar, "scalar escalated fit");
      }
    }
  }
}

TEST(GpPool, KeptWinnerFactorGrowsLikeAFit) {
  // The search hands the model its winning probe's factor instead of
  // refitting. That model must then carry what Fit leaves behind, the
  // jitter included: growing it by AddObservation must give the bits of
  // Fit on the extended data with the winner's params.
  mt19937_64 gen(71);
  for (KernelType kernel :
       {KernelType::kMatern52, KernelType::kSquaredExponential}) {
    for (size_t n : {12, 90}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " kernel="
                                      << static_cast<int>(kernel));
      std::vector<Vec> xs = RandomPoints(n, 3, &gen);
      Vec ys = RandomTargets(n, &gen);
      const std::vector<Vec> extra = RandomPoints(3, 3, &gen);
      const Vec extra_ys = RandomTargets(3, &gen);
      const Matrix probes = RandomCandidates(4, 3, &gen);
      for (size_t run = 0; run < 4; ++run) {
        const size_t workers = run % 2 == 0 ? 0 : 3;
        Sse2Kernels widths(run >= 2);
        GaussianProcess gp(GpHyperParams{kernel, {}, 1.0, 1e-4});
        Rng rng(37);
        ASSERT_TRUE(gp.FitWithHyperSearch(xs, ys, 8, &rng,
                                          workers == 0 ? nullptr
                                                       : Pool(workers))
                        .ok());
        std::vector<Vec> grown_xs = xs;
        Vec grown_ys = ys;
        MetricsRegistry metrics;
        {
          ScopedMetricsInstall install(&metrics);
          for (size_t e = 0; e < extra.size(); ++e) {
            ASSERT_TRUE(gp.AddObservation(extra[e], extra_ys[e]).ok());
            grown_xs.push_back(extra[e]);
            grown_ys.push_back(extra_ys[e]);
          }
        }
        // Every observation bordered the factor; none fell back to Fit.
        EXPECT_EQ(metrics.GetCounter("gp.incremental_refits")->Value(),
                  extra.size());
        GaussianProcess refit(gp.params());
        ASSERT_TRUE(refit.Fit(grown_xs, grown_ys).ok());
        ExpectSameBits(Fingerprint(refit, probes), Fingerprint(gp, probes),
                       "kept factor grown");
      }
    }
  }
}

TEST(GpPool, FitThatNeverFactorsLeavesTheModelUnfitted) {
  // A slightly negative signal variance: a single point factors once the
  // jitter reaches 1e-5, but n duplicates of it have the eigenvalue
  // n * sv + jitter, which no retry (the jitter tops out at 1e-5) keeps
  // positive past n = 10. The in-place factor of the failed refit is
  // garbage, so the model must report itself unfitted, on both paths.
  for (bool scalar : {false, true}) {
    SetScalarKernelsForTesting(scalar);
    GaussianProcess gp(GpHyperParams{KernelType::kMatern52, {0.3}, -1e-6,
                                     1e-10});
    Status fit = gp.Fit({{0.5}}, Vec{1.0});
    bool fitted_once = gp.fitted();
    for (int i = 0; i < 20 && fit.ok(); ++i) {
      fit = gp.AddObservation({0.5}, 1.0);
    }
    SetScalarKernelsForTesting(false);
    EXPECT_TRUE(fitted_once);
    EXPECT_EQ(fit.code(), StatusCode::kInternal);
    EXPECT_FALSE(gp.fitted());
    EXPECT_EQ(gp.Predict({0.5}).variance, 0.0);
  }
}

TEST(GpPool, ProbeQueueIsBitIdenticalAcrossPoolsAndBudgets) {
  // One queue, drained by the calling thread and up to five workers, with
  // and without an `alongside` task that holds a pool worker for longer
  // than the whole search. Budget 1 leaves every worker idle, 5 gives each
  // thread at most one probe, and 24 is iTuned's search. Besides the model,
  // the result holds eight draws from the stream past the hyper candidates
  // (taken by `alongside`, or by the caller after the call without one) and
  // the caller's next draw, so the committed stream is pinned too.
  mt19937_64 gen(61);
  const size_t n = 130;  // a leftover pair below each of its 16 full panels
  const size_t d = 4;
  const std::vector<Vec> xs = RandomPoints(n, d, &gen);
  const Vec ys = RandomTargets(n, &gen);
  const Matrix probes = RandomCandidates(5, d, &gen);
  for (size_t budget : {1, 5, 24}) {
    SCOPED_TRACE(testing::Message() << "budget=" << budget);
    auto search = [&](ThreadPool* pool, std::chrono::microseconds hold) {
      GaussianProcess gp(GpHyperParams{KernelType::kMatern52, {}, 1.0, 1e-4});
      Rng rng(29);
      Vec drawn(8);
      std::function<void(Rng*)> alongside;
      if (hold.count() > 0) {
        alongside = [&drawn, hold](Rng* stream) {
          std::this_thread::sleep_for(hold);
          for (double& v : drawn) v = stream->Uniform();
        };
      }
      Status fit = gp.FitWithHyperSearch(xs, ys, budget, &rng, pool, alongside);
      EXPECT_TRUE(fit.ok()) << fit.ToString();
      if (!alongside) {
        for (double& v : drawn) v = rng.Uniform();
      }
      std::vector<double> out = Fingerprint(gp, probes);
      out.insert(out.end(), drawn.begin(), drawn.end());
      out.push_back(rng.Uniform());
      return out;
    };
    const auto start = std::chrono::steady_clock::now();
    const std::vector<double> want =
        search(nullptr, std::chrono::microseconds(0));
    const auto hold = 2 * std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - start) +
                      std::chrono::milliseconds(10);
    for (size_t workers : {0, 1, 3, 7}) {
      for (bool sse2 : {false, true}) {
        Sse2Kernels widths(sse2);
        SCOPED_TRACE(testing::Message()
                     << "workers=" << workers << " sse2=" << sse2);
        ThreadPool* pool = workers == 0 ? nullptr : Pool(workers);
        ExpectSameBits(want, search(pool, std::chrono::microseconds(0)),
                       "queued search");
        ExpectSameBits(want, search(pool, hold),
                       "queued search beside a hold");
      }
    }
  }
}

TEST(GpPool, FailedSearchLeavesTheCallersStreamUnmoved) {
  // A NaN target makes every probe's likelihood non-finite. The alongside
  // task still runs, but its stream is dropped: the caller's next draw is
  // the one a search without it leaves, which is where iTuned's and
  // OtterTune's fallback draws start.
  mt19937_64 gen(67);
  std::vector<Vec> xs = RandomPoints(30, 3, &gen);
  Vec ys = RandomTargets(30, &gen);
  ys[7] = std::numeric_limits<double>::quiet_NaN();
  for (size_t workers : {0, 3}) {
    ThreadPool* pool = workers == 0 ? nullptr : Pool(workers);
    GaussianProcess plain_gp;
    Rng plain(31);
    EXPECT_EQ(plain_gp.FitWithHyperSearch(xs, ys, 6, &plain, pool).code(),
              StatusCode::kInternal);
    GaussianProcess gp;
    Rng rng(31);
    bool ran = false;
    EXPECT_EQ(gp.FitWithHyperSearch(xs, ys, 6, &rng, pool,
                                    [&ran](Rng* stream) {
                                      ran = true;
                                      for (int i = 0; i < 100; ++i) {
                                        stream->Uniform();
                                      }
                                    })
                  .code(),
              StatusCode::kInternal);
    EXPECT_TRUE(ran) << "workers=" << workers;
    EXPECT_EQ(rng.Next(), plain.Next()) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace atune
