#include "tuners/ml_tuners/ottertune.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>

#include "common/stats.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "math/sampling.h"
#include "ml/gaussian_process.h"
#include "ml/kmeans.h"
#include "ml/linear_model.h"
#include "obs/trace.h"
#include "systems/dbms/dbms_workloads.h"
#include "systems/mapreduce/mr_workloads.h"
#include "systems/spark/spark_workloads.h"

namespace atune {

std::vector<Workload> DefaultHistoryWorkloads(const std::string& system_name,
                                              const std::string& exclude_kind) {
  std::vector<Workload> all;
  if (system_name == "simulated-mapreduce") {
    all = {MakeMrWordCountWorkload(5.0), MakeMrTeraSortWorkload(5.0),
           MakeMrGrepWorkload(5.0), MakeMrJoinWorkload(5.0)};
  } else if (system_name == "simulated-spark") {
    all = {MakeSparkSqlAggregateWorkload(4.0, 5.0),
           MakeSparkJoinWorkload(4.0, 64.0),
           MakeSparkIterativeMlWorkload(2.0, 5.0),
           MakeSparkStreamingWorkload(64.0, 10.0, 5.0)};
  } else {
    all = {MakeDbmsOltpWorkload(0.5, 32.0, 0.6), MakeDbmsOlapWorkload(0.5),
           MakeDbmsMixedWorkload(0.5),
           MakeDbmsOltpWorkload(0.5, 8.0, 0.2)};
  }
  std::vector<Workload> out;
  for (Workload& w : all) {
    if (w.kind != exclude_kind) out.push_back(std::move(w));
  }
  return out;
}

OtterTuneRepository BuildOtterTuneRepository(
    TunableSystem* system, const std::vector<Workload>& history_workloads,
    size_t samples_per_workload, uint64_t seed) {
  OtterTuneRepository repo;
  repo.metric_names = system->MetricNames();
  Rng rng(seed);
  const ParameterSpace& space = system->space();
  for (const Workload& w : history_workloads) {
    OtterTuneRepository::Session session;
    session.workload_name = w.name;
    std::vector<Vec> design =
        LatinHypercubeSamples(samples_per_workload, space.dims(), &rng);
    // Always include the defaults: mapping anchors on a shared config.
    design.push_back(space.ToUnitVector(space.DefaultConfiguration()));
    for (const Vec& u : design) {
      Configuration config = space.FromUnitVector(u);
      auto result = system->Execute(config, w);
      if (!result.ok()) continue;
      session.configs.push_back(u);
      Vec metric_vec;
      metric_vec.reserve(repo.metric_names.size());
      for (const std::string& m : repo.metric_names) {
        metric_vec.push_back(result->MetricOr(m, 0.0));
      }
      session.metrics.push_back(std::move(metric_vec));
      double obj = result->runtime_seconds * (result->failed ? 10.0 : 1.0);
      session.objectives.push_back(obj);
    }
    if (!session.configs.empty()) repo.sessions.push_back(std::move(session));
  }
  return repo;
}

namespace {

// Metric pruning, following OtterTune's pipeline shape: embed each metric
// by its (standardized) response profile across all observations, cluster
// the metrics with k-means, and keep one representative per cluster (the
// member closest to its centroid). Constant metrics are dropped first.
std::vector<size_t> PruneMetrics(const OtterTuneRepository& repo, Rng* rng) {
  std::vector<size_t> kept;
  if (repo.sessions.empty()) return kept;
  size_t num_metrics = repo.metric_names.size();
  // Collect each metric's column across all observations.
  std::vector<std::vector<double>> columns(num_metrics);
  for (const auto& session : repo.sessions) {
    for (const Vec& mv : session.metrics) {
      for (size_t m = 0; m < num_metrics && m < mv.size(); ++m) {
        columns[m].push_back(mv[m]);
      }
    }
  }
  std::vector<size_t> informative;
  std::vector<Vec> profiles;  // standardized column per informative metric
  for (size_t m = 0; m < num_metrics; ++m) {
    double var = Variance(columns[m]);
    if (var <= 1e-12) continue;  // constant metric carries no signal
    double mean = Mean(columns[m]);
    double sd = std::sqrt(var);
    Vec z(columns[m].size());
    for (size_t i = 0; i < z.size(); ++i) z[i] = (columns[m][i] - mean) / sd;
    informative.push_back(m);
    profiles.push_back(std::move(z));
  }
  if (informative.size() <= 2) return informative;

  auto clustering =
      KMeansAutoK(profiles, std::min<size_t>(informative.size(), 8), rng);
  if (!clustering.ok()) return informative;
  // Representative per cluster: the profile nearest its centroid.
  size_t k = clustering->centroids.size();
  std::vector<int> best_in_cluster(k, -1);
  std::vector<double> best_dist(k, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < profiles.size(); ++i) {
    size_t c = clustering->assignments[i];
    double d = SquaredDistance(profiles[i], clustering->centroids[c]);
    if (d < best_dist[c]) {
      best_dist[c] = d;
      best_in_cluster[c] = static_cast<int>(i);
    }
  }
  for (int idx : best_in_cluster) {
    if (idx >= 0) kept.push_back(informative[static_cast<size_t>(idx)]);
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

// Workload mapping: the repository session whose standardized metric
// responses at (approximately) the same configs are closest to the
// target's, by the mean over the target observations of each one's squared
// distance. The repository's per-metric statistics and standardized
// responses are fixed for a session, so they are computed once; each
// target observation adds its term to every session's running sum when it
// is observed, in observation order, which is the order a pass over all
// targets would sum them in.
class WorkloadMapper {
 public:
  WorkloadMapper(const OtterTuneRepository& repo,
                 const std::vector<size_t>& metric_idx)
      : repo_(repo),
        metric_idx_(metric_idx),
        stats_(metric_idx.size()),
        sums_(repo.sessions.size(), 0.0) {
    // Standardize per metric across the repository for a fair distance.
    for (const auto& session : repo.sessions) {
      for (const Vec& mv : session.metrics) {
        for (size_t j = 0; j < metric_idx.size(); ++j) {
          stats_[j].Add(mv[metric_idx[j]]);
        }
      }
    }
    standardized_.resize(repo.sessions.size());
    for (size_t s = 0; s < repo.sessions.size(); ++s) {
      for (const Vec& mv : repo.sessions[s].metrics) {
        standardized_[s].push_back(Standardize(mv));
      }
    }
  }

  void AddTarget(const Vec& config, const Vec& metrics) {
    const Vec z = Standardize(metrics);
    for (size_t s = 0; s < repo_.sessions.size(); ++s) {
      const auto& session = repo_.sessions[s];
      // Nearest historical config stands in for "same config".
      size_t nearest = 0;
      double nd = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < session.configs.size(); ++i) {
        double d = SquaredDistance(session.configs[i], config);
        if (d < nd) {
          nd = d;
          nearest = i;
        }
      }
      sums_[s] += SquaredDistance(standardized_[s][nearest], z);
    }
    ++targets_;
  }

  size_t Best() const {
    double best_score = std::numeric_limits<double>::infinity();
    size_t best_session = 0;
    for (size_t s = 0; s < sums_.size(); ++s) {
      double score = sums_[s];
      if (targets_ > 0) score /= static_cast<double>(targets_);
      if (score < best_score) {
        best_score = score;
        best_session = s;
      }
    }
    return best_session;
  }

 private:
  Vec Standardize(const Vec& mv) const {
    Vec z(metric_idx_.size());
    for (size_t j = 0; j < metric_idx_.size(); ++j) {
      double sd = stats_[j].stddev();
      z[j] = sd > 1e-12 ? (mv[metric_idx_[j]] - stats_[j].mean()) / sd : 0.0;
    }
    return z;
  }

  const OtterTuneRepository& repo_;
  const std::vector<size_t>& metric_idx_;
  std::vector<RunningStats> stats_;
  std::vector<std::vector<Vec>> standardized_;  // [session][observation]
  Vec sums_;                                    // per session
  size_t targets_ = 0;
};

}  // namespace

Status OtterTuneTuner::Tune(Evaluator* evaluator, Rng* rng) {
  const ParameterSpace& space = evaluator->space();
  size_t dims = space.dims();

  // Offline phase: repository of historical sessions (not budget-charged;
  // see header). Sized ~15 observations x 3 workloads.
  if (repository_.sessions.empty()) {
    repository_ = BuildOtterTuneRepository(
        evaluator->system(),
        DefaultHistoryWorkloads(evaluator->system()->name(),
                                evaluator->workload().kind),
        15, rng->Next());
  }
  if (repository_.sessions.empty()) {
    return Status::FailedPrecondition("ottertune: empty repository");
  }

  // Knob ranking from the whole repository via the Lasso path.
  std::vector<Vec> all_configs;
  Vec all_objectives;
  for (const auto& session : repository_.sessions) {
    for (size_t i = 0; i < session.configs.size(); ++i) {
      all_configs.push_back(session.configs[i]);
      all_objectives.push_back(std::log(std::max(session.objectives[i], 1e-6)));
    }
  }
  ATUNE_ASSIGN_OR_RETURN(std::vector<size_t> knob_order,
                         LassoPathRanking(all_configs, all_objectives));
  knob_ranking_.clear();
  for (size_t d : knob_order) knob_ranking_.push_back(space.param(d).name());
  size_t k = std::min(top_knobs_, dims);

  // Metric pruning.
  std::vector<size_t> metric_idx = PruneMetrics(repository_, rng);

  // Target observations: defaults + LHS probes.
  std::vector<Vec> target_configs;
  Vec target_objectives;
  WorkloadMapper mapper(repository_, metric_idx);
  auto observe = [&](const Vec& u) -> Status {
    auto obj = evaluator->Evaluate(space.FromUnitVector(u));
    if (!obj.ok()) return obj.status();
    const ExecutionResult& res = evaluator->history().back().result;
    Vec mv;
    mv.reserve(repository_.metric_names.size());
    for (const std::string& m : repository_.metric_names) {
      mv.push_back(res.MetricOr(m, 0.0));
    }
    mapper.AddTarget(u, mv);
    target_configs.push_back(u);
    target_objectives.push_back(std::log(std::max(*obj, 1e-6)));
    return Status::OK();
  };

  Status s = observe(space.ToUnitVector(space.DefaultConfiguration()));
  if (!s.ok()) return s;
  std::vector<Vec> probes =
      LatinHypercubeSamples(target_observations_, dims, rng);
  for (const Vec& u : probes) {
    if (evaluator->Exhausted()) break;
    Status st = observe(u);
    if (!st.ok()) {
      if (st.code() == StatusCode::kResourceExhausted) break;
      return st;
    }
  }

  // Recommendation loop: map -> GP on mapped + target -> EI -> observe.
  size_t mapped = 0;
  size_t recommendations = 0;
  size_t model_failures = 0;
  // The acquisition candidates, allocated once per session.
  constexpr size_t kAcqCandidates = 1500;
  Matrix acq_cands(kAcqCandidates, dims);
  // The surrogate runs on the calling thread plus a pool that fills the
  // remaining cores; bit-identical to running it on one. The candidates read
  // no model, so a pool worker draws them while the hyper search runs, from
  // the stream position the draws would have had after it.
  const size_t helpers = HelperThreadCount();
  Vec incumbent;
  const std::function<void(Rng*)> draw = [&](Rng* stream) {
    // The per-point loop's exact rng draw order; the batch is scored after
    // the fit, and ArgmaxAcquisition picks the winner the per-point
    // strict-> scan in index order did.
    for (size_t c = 0; c < kAcqCandidates; ++c) {
      double* cand = acq_cands.RowPtr(c);
      // Non-top knobs stay at the incumbent.
      std::copy(incumbent.begin(), incumbent.end(), cand);
      for (size_t j = 0; j < k; ++j) {
        size_t d = knob_order[j];
        cand[d] = c % 3 == 0
                      ? std::clamp(incumbent[d] + stream->Normal(0.0, 0.1),
                                   0.0, 1.0)
                      : stream->Uniform();
      }
    }
  };
  while (!evaluator->Exhausted()) {
    mapped = mapper.Best();
    const auto& session = repository_.sessions[mapped];

    // Training set: mapped session (background) + target observations
    // (authoritative — appended last so duplicates favor the target).
    std::vector<Vec> xs;
    Vec ys;
    for (size_t i = 0; i < session.configs.size(); ++i) {
      xs.push_back(session.configs[i]);
      ys.push_back(std::log(std::max(session.objectives[i], 1e-6)));
    }
    // Offset mapped data so its mean matches the target's (scale transfer).
    double mapped_mean = Mean(std::vector<double>(ys.begin(), ys.end()));
    double target_mean = Mean(std::vector<double>(target_objectives.begin(),
                                                  target_objectives.end()));
    for (double& y : ys) y += target_mean - mapped_mean;
    for (size_t i = 0; i < target_configs.size(); ++i) {
      xs.push_back(target_configs[i]);
      ys.push_back(target_objectives[i]);
    }

    incumbent = target_configs[static_cast<size_t>(
        std::min_element(target_objectives.begin(), target_objectives.end()) -
        target_objectives.begin())];
    GaussianProcess gp;
    Status fit = gp.FitWithHyperSearch(xs, ys, 16, rng,
                                       evaluator->thread_pool(helpers), draw);
    std::optional<AcquisitionArgmax> pick;
    if (fit.ok()) {
      ScopedSpan acq_span(CurrentTracer(), "acquisition");
      if (acq_span.active()) acq_span.AddArg("candidates", "1500");
      double best_log = *std::min_element(target_objectives.begin(),
                                          target_objectives.end());
      pick = gp.ArgmaxAcquisition(acq_cands,
                                  AcquisitionKind::kExpectedImprovement,
                                  best_log, evaluator->thread_pool(helpers));
      if (!pick) {
        fit = Status::Internal(
            "ottertune: no acquisition candidate scored above -inf");
      }
    }
    Vec next;
    if (pick) {
      model_failures = 0;
      next = acq_cands.Row(pick->index);
    } else {
      // One-off GP failures, or scans without a winner, fall back to
      // perturbing the incumbent; three in a row mean the training set
      // itself is numerically poisoned — escalate so a supervision layer
      // can fail over.
      if (++model_failures >= 3) return fit;
      next = incumbent;
      for (size_t j = 0; j < k; ++j) {
        next[knob_order[j]] = rng->Uniform();
      }
    }
    Status st = observe(next);
    if (!st.ok()) {
      if (st.code() == StatusCode::kResourceExhausted) break;
      return st;
    }
    ++recommendations;
  }

  report_ = StrFormat(
      "repository %zu sessions/%zu obs; %zu/%zu metrics kept; top knobs "
      "[%s]; mapped to '%s'; %zu GP recommendations",
      repository_.sessions.size(), repository_.TotalObservations(),
      metric_idx.size(), repository_.metric_names.size(),
      Join(std::vector<std::string>(
               knob_ranking_.begin(),
               knob_ranking_.begin() + std::min<size_t>(k, knob_ranking_.size())),
           ", ")
          .c_str(),
      repository_.sessions[mapped].workload_name.c_str(), recommendations);
  return Status::OK();
}

}  // namespace atune
