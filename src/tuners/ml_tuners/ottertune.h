#ifndef ATUNE_TUNERS_ML_TUNERS_OTTERTUNE_H_
#define ATUNE_TUNERS_ML_TUNERS_OTTERTUNE_H_

#include <string>
#include <vector>

#include "core/tuner.h"
#include "math/matrix.h"

namespace atune {

/// Historical tuning data OtterTune learns from: past sessions on *other*
/// workloads of the same system, each a set of (config, runtime metrics,
/// objective) observations. Real OtterTune mines this from a repository of
/// prior tuning logs; here it is produced by BuildOtterTuneRepository.
struct OtterTuneRepository {
  struct Session {
    std::string workload_name;
    std::vector<Vec> configs;   ///< unit-encoded configurations
    std::vector<Vec> metrics;   ///< metric vector per observation
    Vec objectives;             ///< measured objective per observation
  };
  std::vector<Session> sessions;
  std::vector<std::string> metric_names;

  size_t TotalObservations() const {
    size_t n = 0;
    for (const Session& s : sessions) n += s.configs.size();
    return n;
  }
};

/// Runs `samples_per_workload` random configurations of `system` under each
/// historical workload and records (config, metrics, objective). This is
/// the *offline, reusable* data collection the ML category amortizes across
/// tuning sessions — and the "large training sets, expensive to collect"
/// weakness Table 1 charges the category with (the cost is real, it is just
/// not charged to the current session's budget).
OtterTuneRepository BuildOtterTuneRepository(
    TunableSystem* system, const std::vector<Workload>& history_workloads,
    size_t samples_per_workload, uint64_t seed);

/// OtterTune [Van Aken et al., SIGMOD'17] pipeline:
///  1. metric pruning — drop near-duplicate metrics (correlation filter
///     standing in for factor analysis + k-means);
///  2. knob ranking — Lasso path over the repository picks the important
///     knobs;
///  3. workload mapping — match the target's metric signature to the most
///     similar historical session;
///  4. GP recommendation — fit a GP on mapped + target observations over
///     the top knobs, suggest the EI-optimal config, observe, repeat.
class OtterTuneTuner : public Tuner {
 public:
  /// `repository` may be empty: Tune() then builds a default one from the
  /// system's standard workload families (excluding the target's kind).
  explicit OtterTuneTuner(OtterTuneRepository repository = {},
                          size_t target_observations = 5, size_t top_knobs = 6)
      : repository_(std::move(repository)),
        target_observations_(target_observations),
        top_knobs_(top_knobs) {}

  std::string name() const override { return "ottertune"; }
  TunerCategory category() const override {
    return TunerCategory::kMachineLearning;
  }
  Status Tune(Evaluator* evaluator, Rng* rng) override;
  std::string Report() const override { return report_; }

  const std::vector<std::string>& knob_ranking() const { return knob_ranking_; }

 private:
  OtterTuneRepository repository_;
  size_t target_observations_;
  size_t top_knobs_;
  std::vector<std::string> knob_ranking_;
  std::string report_;
};

/// Default historical workload set for a system name (used when the
/// repository is empty), excluding workloads of `exclude_kind`.
std::vector<Workload> DefaultHistoryWorkloads(const std::string& system_name,
                                              const std::string& exclude_kind);

}  // namespace atune

#endif  // ATUNE_TUNERS_ML_TUNERS_OTTERTUNE_H_
