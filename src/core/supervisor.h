#ifndef ATUNE_CORE_SUPERVISOR_H_
#define ATUNE_CORE_SUPERVISOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/tuner.h"

namespace atune {

/// Knobs for the tuner supervision layer (DESIGN.md §10). Defaults are
/// deliberately conservative: on a well-behaved tuner/system pair the
/// supervised session is bit-identical to the unsupervised one — every
/// mechanism only engages on a pathology (non-finite proposal, repeated
/// config, persistent crash region, numerical model failure).
struct SupervisionPolicy {
  /// Consecutive identical full-cost proposals tolerated before the guard
  /// starts substituting deterministic LHS draws (duplicate livelock:
  /// a stuck acquisition loop re-proposing one config forever).
  size_t duplicate_limit = 3;
  /// K: budget units leased to the fallback tuner per failover episode
  /// before the primary is probed again.
  size_t failover_cooldown_trials = 5;
  /// Failover episodes before the supervisor stops probing the primary and
  /// lets the fallback run to budget exhaustion.
  size_t max_failover_episodes = 8;
  /// M: committed failed trials within one region that open its breaker.
  size_t breaker_failure_threshold = 3;
  /// Exclusion radius in normalized unit-cube distance
  /// (||a-b||_2 / sqrt(dims), so the knob is dimension-independent).
  double breaker_radius = 0.12;
  /// Committed trials after opening before a breaker half-opens and lets
  /// one probe back into the region.
  size_t breaker_cooldown_trials = 10;
  /// LHS redraw attempts when substituting a vetoed proposal with a point
  /// outside every open region (best draw so far is used if none qualifies).
  size_t veto_max_draws = 64;
  /// Seed for the guard's private substitution stream. Fixed by default so
  /// supervision decisions are a pure function of the observation sequence
  /// (the replay-determinism contract; DESIGN.md §10).
  uint64_t guard_seed = 0xA7C35AFEULL;
};

/// Counters describing what the supervision layer did in one session.
/// Mirrored into the `supervisor.*` metrics when a registry is installed.
struct SupervisionStats {
  size_t sanitized_values = 0;   ///< individual knob values repaired
  size_t sanitized_configs = 0;  ///< proposals with >= 1 repaired value
  size_t duplicates_broken = 0;  ///< proposals replaced by LHS substitution
  size_t vetoes = 0;             ///< proposals vetoed by an open breaker
  size_t breaker_opened = 0;     ///< regions whose breaker opened
  size_t breaker_reopened = 0;   ///< half-open probes that failed
  size_t breaker_closed = 0;     ///< half-open probes that succeeded
  size_t failovers = 0;          ///< fallback episodes entered
};

/// ProposalGuard implementation behind SupervisedTuner: sanitization,
/// duplicate-livelock substitution, and the crash-region circuit breaker.
/// Exposed for direct unit testing; sessions normally get one implicitly
/// by wrapping their tuner in a SupervisedTuner.
///
/// Determinism contract: Admit/Sanitize/Observe are pure functions of the
/// call sequence and the policy (the substitution stream is seeded by
/// policy.guard_seed, never by session randomness), so a journal-replayed
/// session reconstructs byte-identical admission decisions.
class SupervisorGuard : public ProposalGuard {
 public:
  SupervisorGuard(const SupervisionPolicy& policy, const ParameterSpace* space);

  Configuration Admit(const Configuration& proposed) override;
  Configuration Sanitize(const Configuration& proposed) override;
  void Observe(const Trial& trial) override;

  const SupervisionStats& stats() const { return stats_; }
  /// Regions whose breaker is currently open (vetoing proposals).
  size_t open_regions() const;

 private:
  /// One crash region: failures accumulate while tracking; at
  /// breaker_failure_threshold the breaker opens and vetoes proposals in
  /// the region; after breaker_cooldown_trials it half-opens and admits
  /// probes; a successful probe closes it, a failed one reopens it.
  struct Region {
    enum class State { kTracking, kOpen, kHalfOpen };
    Vec center;
    size_t failures = 0;
    State state = State::kTracking;
    size_t opened_at = 0;  ///< trials_seen_ when the breaker last opened
  };

  /// Next point from the deterministic substitution stream (a private LHS
  /// sequence refilled in waves of 16).
  Vec NextSubstitute();
  /// Normalized unit-cube distance (see SupervisionPolicy::breaker_radius).
  double NormalizedDistance(const Vec& a, const Vec& b) const;
  /// Lazily half-opens any open region whose cooldown has elapsed.
  void AdvanceBreakerClock();
  /// True if `u` falls inside a currently-open region.
  bool Vetoed(const Vec& u) const;

  const SupervisionPolicy policy_;
  const ParameterSpace* space_;  // not owned
  Rng substitute_rng_;
  std::vector<Vec> substitute_pool_;
  size_t substitute_pos_ = 0;

  Configuration last_sanitized_;   ///< duplicate detection (pre-substitution)
  bool has_last_ = false;
  size_t consecutive_duplicates_ = 0;

  std::vector<Region> regions_;
  size_t trials_seen_ = 0;

  SupervisionStats stats_;
  /// Cached `supervisor.*` metric pointers (null when metrics are off).
  Counter* m_sanitized_ = nullptr;
  Counter* m_duplicates_ = nullptr;
  Counter* m_vetoes_ = nullptr;
  Counter* m_breaker_opened_ = nullptr;
  Counter* m_breaker_reopened_ = nullptr;
  Counter* m_breaker_closed_ = nullptr;
  Gauge* m_open_regions_ = nullptr;
};

/// Decorator giving any Tuner algorithm-layer graceful degradation
/// (complementing the Evaluator's measurement-layer RobustnessPolicy):
/// installs a SupervisorGuard on the evaluator for proposal sanitization
/// and the circuit breaker, and catches numerical failures (kInternal) from
/// the primary by leasing `failover_cooldown_trials` budget units to a
/// fallback tuner, then probing the primary again. Works unchanged for
/// serial and batch tuners; failover decisions are a pure function of the
/// journaled observations, so PR3 journal replay reconstructs them and a
/// resumed supervised session stays bit-identical.
class SupervisedTuner : public Tuner {
 public:
  /// `fallback` may be null: the default Latin-hypercube random fallback
  /// (MakeLhsFallbackTuner) is used.
  SupervisedTuner(std::unique_ptr<Tuner> primary,
                  std::unique_ptr<Tuner> fallback = nullptr,
                  SupervisionPolicy policy = SupervisionPolicy());

  std::string name() const override { return name_; }
  TunerCategory category() const override { return primary_->category(); }
  Status Tune(Evaluator* evaluator, Rng* rng) override;
  void set_parallelism(size_t parallelism) override;
  std::string Report() const override;

  /// Guard + failover counters from the last Tune() call.
  const SupervisionStats& stats() const { return stats_; }

 private:
  std::unique_ptr<Tuner> primary_;
  std::unique_ptr<Tuner> fallback_;
  SupervisionPolicy policy_;
  std::string name_;
  SupervisionStats stats_;
  std::string last_failover_cause_;
};

/// The default failover tuner: maximin-free LHS waves until the budget (or
/// an active lease) is exhausted. Model-free, so it cannot suffer the
/// numerical failures it is covering for. Batch-aware.
std::unique_ptr<Tuner> MakeLhsFallbackTuner();

/// Convenience wrapper constructor (null fallback = LHS default).
std::unique_ptr<Tuner> MakeSupervisedTuner(
    std::unique_ptr<Tuner> primary, std::unique_ptr<Tuner> fallback = nullptr,
    SupervisionPolicy policy = SupervisionPolicy());

}  // namespace atune

#endif  // ATUNE_CORE_SUPERVISOR_H_
