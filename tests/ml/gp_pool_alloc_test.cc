// Verifies that pool workers allocate nothing while they run the GP
// surrogate's work (DESIGN.md §11): every buffer a hyper-search probe
// thread, the kept winner's factor, an `alongside` draw or an
// acquisition-scan group touches is sized on the calling thread first. A
// worker's first malloc would give it a glibc arena of its own and raise
// the process's peak RSS. An unpooled scan at a size the calling thread
// has seen allocates nothing either. This binary links
// common/alloc_hook_override.cc, so SampleAllocCount() counts the calling
// thread's operator-new calls.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "common/alloc_hook.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "ml/gaussian_process.h"

namespace atune {
namespace {

TEST(GpPoolAlloc, WorkersAllocateNothing) {
  // One worker, so every pool task below runs on the same thread and the
  // worker's count can be sampled before and after the surrogate's slices.
  ThreadPool pool(1);
  auto worker_count = [&pool]() {
    return pool.Submit([]() { return SampleAllocCount(); }).get();
  };
  // The hook is live on the worker: a direct operator-new call counts.
  uint64_t probe = worker_count();
  pool.Submit([]() { ::operator delete(::operator new(64)); }).get();
  ASSERT_GT(worker_count(), probe);

  std::mt19937_64 gen(7);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const size_t n = 200;
  const size_t d = 6;
  std::vector<Vec> xs(n, Vec(d));
  Vec ys(n);
  for (size_t i = 0; i < n; ++i) {
    for (double& v : xs[i]) v = u(gen);
    ys[i] = 3.0 * u(gen) - 1.5;
  }
  Matrix cands(2000, d);
  for (size_t r = 0; r < cands.rows(); ++r) {
    for (size_t j = 0; j < d; ++j) cands.At(r, j) = u(gen);
  }

  GaussianProcess gp;
  Rng rng(3);
  // The acquisition draw iTuned runs alongside the search, into a matrix
  // sized here; the worker takes it before its probes.
  Matrix drawn(2000, d);
  std::thread::id drew_on;
  const std::function<void(Rng*)> draw = [&](Rng* stream) {
    drew_on = std::this_thread::get_id();
    for (size_t r = 0; r < drawn.rows(); ++r) {
      for (size_t j = 0; j < d; ++j) drawn.At(r, j) = stream->Uniform();
    }
  };
  uint64_t before = worker_count();
  ASSERT_TRUE(gp.FitWithHyperSearch(xs, ys, 8, &rng, &pool, draw).ok());
  // The pruned acquisition scan: the worker takes whole candidate groups
  // and gathers their lanes into a pending panel sized beforehand.
  const double best = *std::min_element(ys.begin(), ys.end());
  std::optional<AcquisitionArgmax> pick;
  for (AcquisitionKind kind : {AcquisitionKind::kExpectedImprovement,
                               AcquisitionKind::kProbabilityOfImprovement,
                               AcquisitionKind::kLowerConfidenceBound}) {
    pick = gp.ArgmaxAcquisition(cands, kind, best, &pool);
    ASSERT_TRUE(pick.has_value());
  }
  // Without a draw to run first the worker scores about half the probes,
  // so in some searches it beats the kept winner and swaps its buffer in.
  for (size_t budget : {16, 24, 24}) {
    GaussianProcess more;
    ASSERT_TRUE(more.FitWithHyperSearch(xs, ys, budget, &rng, &pool).ok());
  }
  EXPECT_EQ(worker_count(), before);
  EXPECT_NE(drew_on, std::this_thread::get_id());

  // The worker did score and draw: the results equal the unpooled ones.
  GaussianProcess serial;
  Rng serial_rng(3);
  ASSERT_TRUE(serial.FitWithHyperSearch(xs, ys, 8, &serial_rng).ok());
  EXPECT_EQ(serial.LogMarginalLikelihood(), gp.LogMarginalLikelihood());
  EXPECT_EQ(serial_rng.Uniform(), drawn.At(0, 0));
  std::optional<AcquisitionArgmax> serial_pick = serial.ArgmaxAcquisition(
      cands, AcquisitionKind::kLowerConfidenceBound, best);
  ASSERT_TRUE(serial_pick.has_value());
  EXPECT_EQ(serial_pick->index, pick->index);

  // A second unpooled scan at the same n and d reuses the calling thread's
  // panels: it allocates nothing.
  const uint64_t caller_before = SampleAllocCount();
  serial_pick = serial.ArgmaxAcquisition(
      cands, AcquisitionKind::kExpectedImprovement, best);
  EXPECT_EQ(SampleAllocCount(), caller_before);
  ASSERT_TRUE(serial_pick.has_value());
}

}  // namespace
}  // namespace atune
