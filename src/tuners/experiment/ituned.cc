#include "tuners/experiment/ituned.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "math/sampling.h"
#include "ml/acquisition.h"
#include "obs/trace.h"

namespace atune {

namespace {

/// Consecutive GP-fit failures tolerated (with a random-draw fallback per
/// failure) before the fit status escalates out of Tune(). Constant
/// responses do not fail a fit: the search then scales its candidates by a
/// unit variance and every likelihood is finite. A fit fails only when
/// every candidate's likelihood is non-finite, as a non-finite objective
/// makes it, or when the winner's kernel stays indefinite through the
/// jitter retries. Random draws cannot repair such observations, and
/// looping forever on a dead surrogate hides the failure from any
/// supervision layer.
constexpr size_t kMaxConsecutiveModelFailures = 3;

/// Draws the `acquisition_candidates` random proposals into *cands (a third
/// perturb the incumbent), with exactly the rng draw order of the old
/// per-point loop. Reads no model, so the serial loop runs it alongside the
/// GP fit.
void DrawCandidates(const ITunedOptions& options, const std::vector<Vec>& xs,
                    const Vec& ys, size_t dims, Rng* rng, Matrix* cands) {
  // The incumbent is loop-invariant; hoisting its argmin out of the
  // candidate loop changes no draws.
  const Vec* inc = nullptr;
  if (!xs.empty()) {
    inc = &xs[static_cast<size_t>(std::min_element(ys.begin(), ys.end()) -
                                  ys.begin())];
  }
  for (size_t i = 0; i < options.acquisition_candidates; ++i) {
    double* cand = cands->RowPtr(i);
    if (i % 3 == 0 && inc != nullptr) {
      // A third of candidates perturb the incumbent (local refinement).
      for (size_t d = 0; d < dims; ++d) {
        cand[d] = std::clamp((*inc)[d] + rng->Normal(0.0, 0.08), 0.0, 1.0);
      }
    } else {
      for (size_t d = 0; d < dims; ++d) cand[d] = rng->Uniform();
    }
  }
}

/// Acquisition-maximizing row of *cands, or none when no candidate
/// scores above -inf. Shared by the serial loop and the constant-liar batch
/// loop; `xs`/`ys` may include liar observations. With a non-null `rng` the
/// candidates are drawn here first; the serial loop passes null because it
/// drew them alongside the fit. The scan runs on the calling thread and
/// `pool`, and picks the winner a per-point strict-> scan in index order
/// picks (GaussianProcess::ArgmaxAcquisition).
std::optional<AcquisitionArgmax> ProposeCandidate(
    const GaussianProcess& gp, const ITunedOptions& options,
    const std::vector<Vec>& xs, const Vec& ys, size_t dims, Rng* rng,
    Matrix* cands, ThreadPool* pool) {
  ScopedSpan span(CurrentTracer(), "acquisition");
  if (span.active()) {
    span.AddArg("candidates", std::to_string(options.acquisition_candidates));
    span.AddArg("kind", AcquisitionName(options.acquisition));
  }
  if (rng != nullptr) DrawCandidates(options, xs, ys, dims, rng, cands);
  double best_log = *std::min_element(ys.begin(), ys.end());
  return gp.ArgmaxAcquisition(*cands, options.acquisition, best_log, pool);
}

}  // namespace

Status ITunedTuner::Tune(Evaluator* evaluator, Rng* rng) {
  if (options_.parallelism > 1) return TuneBatch(evaluator, rng);
  const ParameterSpace& space = evaluator->space();
  size_t dims = space.dims();

  std::vector<Vec> xs;
  Vec ys;  // log objectives
  auto record = [&](const Vec& u, double obj) {
    xs.push_back(u);
    ys.push_back(std::log(std::max(obj, 1e-6)));
  };

  // Defaults + maximin LHS bootstrap.
  {
    Configuration defaults = space.DefaultConfiguration();
    auto obj = evaluator->Evaluate(defaults);
    if (!obj.ok()) return obj.status();
    record(space.ToUnitVector(defaults), *obj);
  }
  std::vector<Vec> design =
      MaximinLatinHypercube(options_.initial_design, dims, 16, rng);
  for (const Vec& u : design) {
    if (evaluator->Exhausted()) break;
    auto obj = evaluator->Evaluate(space.FromUnitVector(u));
    if (!obj.ok()) {
      if (obj.status().code() == StatusCode::kResourceExhausted) break;
      return obj.status();
    }
    record(u, *obj);
  }

  // Bayesian optimization loop.
  size_t bo_iters = 0;
  size_t aborts = 0;
  size_t model_failures = 0;
  double last_acq = 0.0;
  // Sized once per session: the serial loop fills it on a pool worker,
  // which must not allocate.
  Matrix cands(options_.acquisition_candidates, dims);
  // The surrogate runs on the calling thread plus a pool that fills the
  // remaining cores; bit-identical to running it on one. The acquisition
  // candidates read no model, so a pool worker draws them while the hyper
  // search runs, from the stream position the draws would have had after it.
  const size_t helpers = HelperThreadCount();
  const std::function<void(Rng*)> draw = [&](Rng* stream) {
    DrawCandidates(options_, xs, ys, dims, stream, &cands);
  };
  while (!evaluator->Exhausted()) {
    GaussianProcess gp(GpHyperParams{options_.kernel, {}, 1.0, 1e-4});
    Status fit = gp.FitWithHyperSearch(xs, ys, options_.gp_hyper_budget, rng,
                                       evaluator->thread_pool(helpers), draw);
    std::optional<AcquisitionArgmax> pick;
    if (fit.ok()) {
      pick = ProposeCandidate(gp, options_, xs, ys, dims, /*rng=*/nullptr,
                              &cands, evaluator->thread_pool(helpers));
      if (!pick) {
        fit = Status::Internal(
            "ituned: no acquisition candidate scored above -inf");
      }
    }
    Vec next;
    if (pick) {
      model_failures = 0;
      next = cands.Row(pick->index);
      last_acq = pick->value;
    } else {
      // Failed GP (non-finite objectives, or a kernel that stays
      // indefinite) or a scan without a winner: one-off failures fall back
      // to a random draw from the stream as the search left it. Persistent
      // failures mean the observations themselves are poisoned and no
      // amount of random sampling inside this loop repairs the surrogate —
      // escalate so a supervision layer can fail over.
      if (++model_failures >= kMaxConsecutiveModelFailures) return fit;
      next.resize(dims);
      for (double& x : next) x = rng->Uniform();
    }
    Result<double> obj = Status::Internal("unset");
    bool aborted = false;
    if (options_.early_abort_factor > 0.0 && evaluator->best() != nullptr) {
      obj = evaluator->EvaluateWithEarlyAbort(
          space.FromUnitVector(next),
          options_.early_abort_factor * evaluator->best()->objective,
          &aborted);
      if (aborted) ++aborts;
    } else {
      obj = evaluator->Evaluate(space.FromUnitVector(next));
    }
    if (!obj.ok()) {
      if (obj.status().code() == StatusCode::kResourceExhausted) break;
      return obj.status();
    }
    // Censored observations still enter the surrogate: the lower bound is
    // enough for the GP to steer away from the region.
    record(next, *obj);
    ++bo_iters;
  }
  report_ = StrFormat(
      "LHS design %zu + %zu GP/%s iterations (%zu early-aborted, final acq "
      "%.4f, %zu obs)",
      design.size(), bo_iters, AcquisitionName(options_.acquisition), aborts,
      last_acq, xs.size());
  return Status::OK();
}

Status ITunedTuner::TuneBatch(Evaluator* evaluator, Rng* rng) {
  const ParameterSpace& space = evaluator->space();
  size_t dims = space.dims();
  size_t parallelism = options_.parallelism;

  std::vector<Vec> xs;
  Vec ys;  // log objectives
  auto record = [&](const Vec& u, double obj) {
    xs.push_back(u);
    ys.push_back(std::log(std::max(obj, 1e-6)));
  };

  // Defaults, then the LHS bootstrap dispatched `parallelism` at a time —
  // the design is fixed up front, so batching it is pure chunking.
  {
    Configuration defaults = space.DefaultConfiguration();
    auto obj = evaluator->Evaluate(defaults);
    if (!obj.ok()) return obj.status();
    record(space.ToUnitVector(defaults), *obj);
  }
  std::vector<Vec> design =
      MaximinLatinHypercube(options_.initial_design, dims, 16, rng);
  for (size_t start = 0; start < design.size() && !evaluator->Exhausted();
       start += parallelism) {
    size_t end = std::min(design.size(), start + parallelism);
    std::vector<Configuration> batch;
    batch.reserve(end - start);
    for (size_t i = start; i < end; ++i) {
      batch.push_back(space.FromUnitVector(design[i]));
    }
    auto objs = evaluator->EvaluateBatch(batch, parallelism);
    if (!objs.ok()) {
      if (objs.status().code() == StatusCode::kResourceExhausted) break;
      return objs.status();
    }
    for (size_t i = 0; i < objs->size(); ++i) record(design[start + i], (*objs)[i]);
  }

  // Batched Bayesian optimization: each round fits one GP (hyper search on
  // the evaluator's pool), then picks k candidates with the constant-liar
  // heuristic — after each pick, pretend the point observed the incumbent
  // best ("lie"), absorb it into the GP incrementally (AddObservation,
  // O(n²)), and re-run the acquisition so the k proposals repel each other.
  // The pool is fetched at each use: a later EvaluateBatch may replace it.
  size_t bo_rounds = 0;
  size_t proposed = 0;
  size_t model_failures = 0;
  double last_acq = 0.0;
  Matrix cands(options_.acquisition_candidates, dims);
  while (!evaluator->Exhausted()) {
    size_t affordable = static_cast<size_t>(
        std::max(0.0, evaluator->Remaining() + 1e-9));
    size_t k = std::min(parallelism, affordable);
    if (k == 0) break;
    GaussianProcess gp(GpHyperParams{options_.kernel, {}, 1.0, 1e-4});
    Status fit = gp.FitWithHyperSearch(xs, ys, options_.gp_hyper_budget, rng,
                                       evaluator->thread_pool(parallelism));
    std::vector<Vec> proposals;
    std::vector<Configuration> batch;
    proposals.reserve(k);
    batch.reserve(k);
    if (fit.ok()) {
      model_failures = 0;
      double lie = *std::min_element(ys.begin(), ys.end());
      std::vector<Vec> lie_xs = xs;
      Vec lie_ys = ys;
      for (size_t j = 0; j < k; ++j) {
        std::optional<AcquisitionArgmax> pick =
            ProposeCandidate(gp, options_, lie_xs, lie_ys, dims, rng, &cands,
                             evaluator->thread_pool(parallelism));
        Vec cand(dims);
        if (pick) {
          cand = cands.Row(pick->index);
          last_acq = pick->value;
        } else {
          // No winner: this lane takes the failed-model draw.
          for (double& x : cand) x = rng->Uniform();
        }
        batch.push_back(space.FromUnitVector(cand));
        if (j + 1 < k) {
          // Liar update; a degenerate append falls back to a full refit
          // inside AddObservation, so the status is advisory only.
          (void)gp.AddObservation(cand, lie);
          lie_xs.push_back(cand);
          lie_ys.push_back(lie);
        }
        proposals.push_back(std::move(cand));
      }
    } else {
      // Degenerate GP: random fallback for one-off failures, escalate when
      // persistent (see the serial loop for rationale).
      if (++model_failures >= kMaxConsecutiveModelFailures) return fit;
      for (size_t j = 0; j < k; ++j) {
        Vec cand(dims);
        for (double& x : cand) x = rng->Uniform();
        batch.push_back(space.FromUnitVector(cand));
        proposals.push_back(std::move(cand));
      }
    }
    auto objs = evaluator->EvaluateBatch(batch, parallelism);
    if (!objs.ok()) {
      if (objs.status().code() == StatusCode::kResourceExhausted) break;
      return objs.status();
    }
    for (size_t i = 0; i < objs->size(); ++i) record(proposals[i], (*objs)[i]);
    proposed += objs->size();
    ++bo_rounds;
  }
  report_ = StrFormat(
      "LHS design %zu + %zu constant-liar rounds of %zu (%zu proposals, "
      "final acq %.4f, %zu obs)",
      design.size(), bo_rounds, parallelism, proposed, last_acq, xs.size());
  return Status::OK();
}

}  // namespace atune
