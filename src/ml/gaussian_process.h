#ifndef ATUNE_ML_GAUSSIAN_PROCESS_H_
#define ATUNE_ML_GAUSSIAN_PROCESS_H_

#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "math/matrix.h"

namespace atune {

/// Kernel families supported by the GP.
enum class KernelType {
  kSquaredExponential,  ///< k(r) = s^2 exp(-r^2/2), ARD lengthscales
  kMatern52,            ///< Matérn 5/2, ARD lengthscales
};

/// GP hyperparameters. Lengthscales are per input dimension (ARD).
struct GpHyperParams {
  KernelType kernel = KernelType::kMatern52;
  std::vector<double> lengthscales;  ///< one per dim; empty = 1.0 each
  double signal_variance = 1.0;      ///< s^2
  double noise_variance = 1e-4;      ///< observation noise
};

/// Posterior prediction at one point.
struct GpPrediction {
  double mean = 0.0;
  double variance = 0.0;  ///< posterior variance (>= 0)
};

/// The acquisition functions ArgmaxAcquisition maximizes (ml/acquisition.h,
/// AcquisitionValue): expected or probability of improvement, or the lower
/// confidence bound at two standard deviations.
enum class AcquisitionKind {
  kExpectedImprovement,
  kProbabilityOfImprovement,
  kLowerConfidenceBound,
};

/// The winning candidate of an acquisition scan and its acquisition value.
struct AcquisitionArgmax {
  size_t index = 0;
  double value = 0.0;
};

namespace internal {
/// KernelValue's tail over m squared scaled distances, in place: out[i]
/// becomes k(r) for r = sqrt(out[i]), sv * exp(-0.5 * r * r) when `se`
/// and the Matérn 5/2 polynomial sv * (1 + s + s * s / 3) times exp(-s),
/// s = sqrt(5) * r, otherwise, each entry with KernelValue's operations in
/// its order. With `fast_exp`, which the caller may ask for only when
/// ExpV4Available(), four lanes run abreast with ExpV4; otherwise two,
/// with libm's exp. The bits are the same. Every kernel row of the GP runs
/// through it.
void KernelTailInPlace(double* out, size_t m, bool se, double sv,
                       bool fast_exp);
}  // namespace internal

/// Gaussian-process regression, the surrogate model behind iTuned [9] and
/// OtterTune [24]. Inputs are expected normalized to [0,1]^d; targets are
/// internally centered on their mean.
///
/// Usage:
///   GaussianProcess gp;
///   ATUNE_RETURN_IF_ERROR(gp.Fit(xs, ys));         // fixed hyperparameters
///   // or gp.FitWithHyperSearch(xs, ys, &rng);      // random-search ML-II
///   GpPrediction p = gp.Predict(x);
class GaussianProcess {
 public:
  GaussianProcess() = default;
  explicit GaussianProcess(GpHyperParams params) : params_(std::move(params)) {}

  /// Fits the posterior for the given data with the current hyperparameters.
  /// Adds jitter to the kernel diagonal as needed for stability. The kernel
  /// matrix is built straight into the factor's storage and factored in
  /// place (one n x n buffer), by the hyper-search probes' routine on dense
  /// rows. A kernel that stays indefinite through every jitter retry
  /// returns kInternal and leaves the model unfitted.
  Status Fit(const std::vector<Vec>& xs, const Vec& ys);

  /// Incrementally absorbs one observation into a fitted model. Appends a
  /// row to the cached Cholesky factor (Matrix::CholeskyAppendRow) and
  /// redoes only the O(n²) triangular solves, so growing the model by one
  /// point costs O(n²) instead of the O(n³) full refit — the per-iteration
  /// hot path of Bayesian optimization. The resulting posterior is
  /// bit-identical to Fit() on the extended data with the same
  /// hyperparameters (it performs the same arithmetic); if the append is
  /// numerically degenerate (e.g. a duplicate point), falls back to a full
  /// refit with jitter escalation. On an unfitted model, equivalent to
  /// Fit({x}, {y}).
  Status AddObservation(const Vec& x, double y);

  /// Observation eviction for drift adaptation (DESIGN.md §15): drops the
  /// oldest observations — insertion order of Fit/AddObservation — keeping
  /// the most recent `keep_last`, and refits the posterior on the retained
  /// window with the current hyperparameters. After a workload regime
  /// change, stale observations mislead the surrogate more than they
  /// inform it; evicting them is the cheapest rung of the re-tune
  /// degradation ladder. Returns the number of points evicted (0 when the
  /// model already holds <= keep_last points — then nothing is touched,
  /// so calling this on an untouched model is bit-identical to never
  /// calling it). keep_last == 0 resets the model to unfitted. If the
  /// refit on the retained window fails (degenerate kernel), the model is
  /// left unfitted rather than stale — the PR 5 honesty contract.
  size_t EvictOldest(size_t keep_last);

  /// Fits hyperparameters by maximizing the log marginal likelihood over a
  /// random search of `budget` candidate hyperparameter settings, and
  /// leaves the model fitted with the winner, exactly as Fit would.
  /// Candidates are pre-drawn from `rng` and ties broken by candidate
  /// index, so the winner — and therefore the fitted model — is the same
  /// with or without a pool.
  ///
  /// Exact probes over equal-length inputs score in place: one flattened
  /// training matrix and one centred target vector are shared, and each
  /// probe builds K + jitter I straight into a packed lower-triangle buffer
  /// (PackedRows) and factors it there (CholeskyInPlace), with Fit's
  /// arithmetic, so every score is bit-identical to fitting a
  /// GaussianProcess with that candidate. The probes form one queue: the
  /// calling thread and, with a non-null `pool`, up to five workers take
  /// the next unscored index until none is left, each scoring into a buffer
  /// of its own. A score does not depend on the thread that computed it,
  /// and the winner is still picked by index. One more packed buffer keeps
  /// the best probe so far (a probe that beats it swaps buffers with it
  /// under a mutex), and the model takes the winner's factor and jitter
  /// from it instead of refactoring the kernel. At most seven packed
  /// buffers are live, the size of three and a half dense n x n ones, and
  /// every buffer a worker touches is sized on the calling thread first, so
  /// workers never allocate. Under SetScalarKernelsForTesting and for
  /// ragged inputs each candidate instead fits its own GaussianProcess, one
  /// pool task per candidate, and the winner is refit with Fit.
  ///
  /// `alongside`, when set, is work that needs the caller's random stream
  /// but not the model, such as drawing acquisition candidates. It runs on
  /// `pool` (on the calling thread without one) with a copy of `*rng` taken
  /// right after the hyper candidates are drawn, overlapping the scoring,
  /// and this call returns only after it has finished.
  /// `*rng` becomes that copy only when the fit succeeds, so on success the
  /// stream has advanced exactly as if the caller had drawn after the
  /// call, and on failure it stands where the caller's fallback draws
  /// expect it. Whatever `alongside` writes must be sized beforehand: a
  /// pool worker must not allocate.
  Status FitWithHyperSearch(const std::vector<Vec>& xs, const Vec& ys,
                            size_t budget, Rng* rng,
                            ThreadPool* pool = nullptr,
                            const std::function<void(Rng*)>& alongside = {});

  /// Posterior mean/variance at x. Requires a successful Fit.
  GpPrediction Predict(const Vec& x) const;

  /// The candidate that maximizes the acquisition value AcquisitionValue(
  /// kind, Predict(row), best) over the rows of `candidates`, with that
  /// value: the first of equal values in index order, as a strict-> scan
  /// from -inf picks it. Empty when no candidate scores above -inf (every
  /// value NaN, say). Bit-identical to that full scan, but the O(n²) panel
  /// solve runs only for candidates that can still win: the rows split into
  /// a fixed number of 16-aligned groups, which the calling thread and
  /// `pool` take whole, and each group builds kernel rows and means sixteen
  /// candidates at a time over the contiguous training-point cache, bounds
  /// each candidate's value from its mean and the prior variance
  /// (AcquisitionBound), and gathers the lanes whose bound reaches the
  /// group's best so far into one pending 16-lane panel, which it solves
  /// and scores when full and at the group's end (the sixteen triangular
  /// solves share the factor's memory traffic, internal::
  /// ForwardSolvePanel). Every thread's panels come from one thread-local
  /// buffer sized on the calling thread before any worker starts, as
  /// Predict's are: workers allocate nothing, and after the first call at
  /// a given n and d an unpooled call allocates nothing either. Counts the
  /// candidates and the solved lanes in the gp.acquisition_* counters; both
  /// depend only on the inputs. The scalar A/B path and the fallbacks (an
  /// unfitted model, ragged training inputs, candidates of the wrong width)
  /// score every candidate, one Predict per row.
  std::optional<AcquisitionArgmax> ArgmaxAcquisition(
      const Matrix& candidates, AcquisitionKind kind, double best,
      ThreadPool* pool = nullptr) const;

  /// Log marginal likelihood of the fitted model.
  double LogMarginalLikelihood() const { return log_marginal_likelihood_; }

  bool fitted() const { return fitted_; }
  const GpHyperParams& params() const { return params_; }
  size_t num_points() const { return xs_.size(); }

 private:
  /// The best lane of a scan so far, by strict > in the order offered, so
  /// the first of equal values wins and NaN never does; and how many lanes
  /// were solved.
  struct GroupArgmax {
    std::optional<AcquisitionArgmax> winner;
    size_t solved = 0;
    void Offer(size_t index, double value) {
      if (value > (winner ? winner->value
                          : -std::numeric_limits<double>::infinity())) {
        winner = AcquisitionArgmax{index, value};
      }
    }
  };

  double KernelValue(const Vec& a, const Vec& b) const;
  /// True when the exact-quotient distance body may run against `count`
  /// point coordinates: the host has it and they, the training points and
  /// the lengthscales all pass its guards (internal::SquaredDistances).
  bool ExactQuotientFor(const double* pts, size_t count) const;
  /// Shared scratch-free kernel-row builder over the training cache: out[i]
  /// = k(x, x_i) for i < n, bit-identical to KernelValue(x, xs_[i]) (same
  /// per-dimension accumulation order, with the lengthscale clamp and
  /// kernel-type switch hoisted out of the loop). Requires flat_ok_ and x
  /// spanning clamped_ls_.size() doubles. Routes Predict's kstar and
  /// AddObservation's bordered row; Fit and the hyper-search probes build K
  /// with the same row kernel.
  void KernelRow(const double* x, double* out) const;
  /// Kernel rows and posterior means of the w <= 16 candidate rows from c0:
  /// panel[i * 16 + c] = k(candidate c0 + c, x_i) and mean[c] for the 16
  /// lanes, the lanes past w repeating the last candidate. `ct` holds
  /// d x 16 doubles, `panel` n x 16, `mean` 16.
  void PanelMeans(const Matrix& candidates, size_t c0, size_t w, double* ct,
                  double* panel, double* mean) const;
  /// var[c] = the posterior variance of the candidate whose kernel row is
  /// lane c of `panel` (n x 16), which the in-place solve consumes. Lanes
  /// are independent, so a lane's bits do not depend on its neighbours.
  void PanelVariances(double* panel, double* var) const;
  /// One group of ArgmaxAcquisition's scan, rows [begin, end): `ct` holds
  /// d x 16 doubles and `panels` two n x 16 panels (the chunk's and the
  /// pending one) of the caller's.
  void ScanGroup(const Matrix& candidates, size_t begin, size_t end,
                 AcquisitionKind kind, double best, double* ct,
                 double* panels, GroupArgmax* group) const;
  /// Rebuilds xs_flat_/xs_t_/clamped_ls_/inv_ls_/exact_inputs_ from xs_
  /// and params_ (flat_ok_ = false when xs_ is ragged; every fast path then
  /// falls back to KernelValue).
  void RebuildFlatCache();
  /// k(x, x) for any x: both kernels evaluate to the signal variance at
  /// distance zero, so the self-kernel is a cached constant rather than a
  /// per-point distance computation.
  double SelfKernel() const { return params_.signal_variance; }
  /// Recomputes y_mean_/alpha_/LML from xs_, ys_ and the current chol_
  /// (two O(n²) triangular solves); shared by Fit and AddObservation.
  void RecomputePosterior();

  GpHyperParams params_;
  std::vector<Vec> xs_;
  Vec xs_flat_;      // xs_ flattened row-major (n x d) for the batched paths
  Vec xs_t_;         // the same column-major (d x n), the kernel rows' points
  Vec clamped_ls_;   // per-dim lengthscales with ScaledDistance's clamp baked in
  Vec inv_ls_;       // RN(1 / clamped_ls_[j]), for the exact quotient
  bool flat_ok_ = false;
  bool exact_inputs_ = false;  // xs_flat_ and clamped_ls_ pass its guards
  Vec ys_;           // raw targets (kept for recentering and refits)
  Vec alpha_;        // K^{-1} (y - mean)
  Matrix chol_;      // lower Cholesky factor of K + jitter I
  double y_mean_ = 0.0;
  double jitter_ = 0.0;  // diagonal jitter chol_ was computed with
  double log_marginal_likelihood_ = 0.0;
  bool fitted_ = false;
};

}  // namespace atune

#endif  // ATUNE_ML_GAUSSIAN_PROCESS_H_
