#ifndef ATUNE_CORE_TUNER_H_
#define ATUNE_CORE_TUNER_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/configuration.h"
#include "core/journal.h"
#include "core/objective.h"
#include "core/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace atune {

/// The paper's six-way taxonomy of parameter tuning approaches (Section 2.1).
enum class TunerCategory {
  kRuleBased,
  kCostModeling,
  kSimulationBased,
  kExperimentDriven,
  kMachineLearning,
  kAdaptive,
};

const char* TunerCategoryToString(TunerCategory category);

/// Resource limits for one tuning session. The dominant cost in practice is
/// real system runs ("experiments"); the budget is expressed in those.
struct TuningBudget {
  /// Maximum number of full workload executions the tuner may spend.
  /// Unit-level executions by adaptive tuners cost 1/NumUnits each.
  size_t max_evaluations = 30;
};

/// Tolerance for all budget comparisons (accumulated fractional costs carry
/// floating-point dust; a run that fits "up to epsilon" is admitted, a
/// budget spent "up to epsilon" is exhausted). One constant everywhere so
/// Exhausted() and the per-call admission gates can never disagree.
inline constexpr double kBudgetEpsilon = 1e-9;

/// How the Evaluator defends tuners against the measurement pathologies of
/// real clusters: transient run failures, hung runs, and straggler noise
/// (the practical barrier the cloud-tuning literature highlights). All
/// mechanisms are deterministic — they depend only on the measurements and
/// the policy, never on wall-clock — and every repair charges real budget.
/// The default policy retries transient failures but leaves the timeout
/// watchdog and outlier re-measurement off, so it is behavior-preserving on
/// systems that never report transient faults.
struct RobustnessPolicy {
  /// Max re-executions of a run whose failure is marked transient
  /// (ExecutionResult::transient). Tuners then see the final attempt —
  /// usually a clean measurement — instead of a spurious failure.
  size_t max_retries = 2;
  /// Budget charged per superseded transient attempt, in full-run units
  /// (transient faults typically kill a run partway through, so a retry
  /// costs less than a full experiment but is never free).
  double retry_cost_fraction = 0.3;
  /// Wall-clock watchdog: a run measuring longer than this is killed and
  /// recorded as censored at the threshold, with early-abort cost
  /// accounting (the budget fraction actually observed). This is the only
  /// defense against hung runs, which would otherwise eat the whole
  /// session. 0 disables the watchdog.
  double timeout_seconds = 0.0;
  /// Outlier re-measurement: a successful run whose runtime's modified
  /// z-score against the history of completed runs — 0.6745 * |x - median|
  /// / MAD — exceeds this threshold is suspicious (straggler or corrupted
  /// measurement) and is re-measured; the median measurement is committed.
  /// 0 disables; 3.5 is the classical cutoff.
  double outlier_mad_threshold = 0.0;
  /// Completed-run history required before MAD is trustworthy.
  size_t outlier_min_history = 6;
  /// Extra measurements (full budget units each) for a suspicious trial.
  size_t remeasure_runs = 2;
};

/// One recorded system run.
struct Trial {
  Configuration config;
  ExecutionResult result;
  double objective = 0.0;  ///< penalized runtime (lower is better)
  double cost = 1.0;       ///< evaluation budget consumed (1 = full run)
  /// True for runs on a scaled-down workload sample (Ernest-style training
  /// runs); their objectives are not comparable to full runs, so they are
  /// excluded from best() tracking.
  bool scaled = false;
  /// Wall-clock round the trial ran in. Every Evaluate* call is one round;
  /// an EvaluateBatch of k configs is also ONE round (its experiments run
  /// concurrently), so a batch of k costs k budget units but one round —
  /// iTuned §2.4's parallel-experiment saving. Convergence-vs-rounds curves
  /// are derived from this (TuningOutcome::convergence_round).
  size_t round = 0;
};

/// Admission hook between a tuner's proposals and the Evaluator (the
/// supervision layer's seam; see core/supervisor.h). The guard may rewrite
/// a proposal before it is validated, executed, and journaled — the
/// *admitted* config is what enters the history and the journal, so replay
/// compares against it. Both hooks must be deterministic functions of the
/// call sequence so a resumed session reconstructs identical decisions.
class ProposalGuard {
 public:
  virtual ~ProposalGuard() = default;

  /// Full admission pipeline for a full-cost proposal (sanitization,
  /// duplicate-livelock substitution, crash-region veto). Returns the
  /// config to actually evaluate.
  virtual Configuration Admit(const Configuration& proposed) = 0;

  /// Sanitization only (finiteness + projection into the space). Used for
  /// unit-level and scaled-sample executions, where re-proposing the same
  /// config consecutively is legitimate (iterating units, Ernest-style
  /// scale sweeps) and substitution would corrupt the composite run.
  virtual Configuration Sanitize(const Configuration& proposed) = 0;

  /// Observes every committed trial — live and replayed — so guard state
  /// (crash regions, trial clock) is a pure function of the journaled
  /// observation sequence.
  virtual void Observe(const Trial& trial) = 0;
};

/// Budget-enforcing gateway between a tuner and the system under tuning.
///
/// All tuners must obtain measurements through an Evaluator: it counts
/// evaluations against the budget, applies the failure penalty to produce a
/// scalar objective, and records the trial history (from which convergence
/// curves and the best configuration are derived).
class Evaluator {
 public:
  /// Does not take ownership of `system`. `failure_penalty` multiplies the
  /// runtime of failed runs when forming the objective.
  Evaluator(TunableSystem* system, Workload workload, TuningBudget budget,
            double failure_penalty = 10.0);

  /// Replaces the default penalized-runtime objective (e.g. with a cloud
  /// dollar-cost or latency-SLA objective from core/objective.h). Set
  /// before the first Evaluate call.
  void set_objective(ObjectiveFunction objective) {
    objective_ = std::move(objective);
  }

  /// Installs a measurement-robustness policy (see RobustnessPolicy). Set
  /// before the first Evaluate call.
  void set_robustness_policy(const RobustnessPolicy& policy) {
    policy_ = policy;
  }

  /// Attaches a write-ahead trial journal (not owned): every committed
  /// observation — trial or unit run — is appended and checksummed, and its
  /// wave is fsynced before the call returns its measurement to the tuner,
  /// so a crashed session can be reconstructed by ResumeTuningSession. A
  /// wave is one EvaluateBatch call (one fsync for all its lanes) or one
  /// serial call (one fsync per record). A journal append failure is sticky
  /// and fails the session (measurements must never outrun the journal).
  /// Set before the first Evaluate call.
  void set_journal(TrialJournal* journal) { journal_ = journal; }
  const Status& journal_error() const { return journal_error_; }

  /// Journal-failure policy (DESIGN.md §12). kStrict (the default) keeps
  /// the sticky-failure behavior above: the session aborts with a clean
  /// kIoError. kDegrade trades resumability for availability: on an append
  /// failure the Evaluator detaches the journal, leaves a durable
  /// `<path>.degraded` sidecar so a later resume refuses the incomplete
  /// record, and tuning continues un-journaled. Set before the first
  /// Evaluate call.
  void set_journal_policy(JournalPolicy policy) { journal_policy_ = policy; }
  /// True once a journal I/O failure degraded this session (kDegrade only).
  bool journal_degraded() const { return journal_degraded_; }

  /// Installs the recovered journal records for deterministic replay.
  /// While records remain, every Evaluate* call is served from the journal
  /// — configs are checked against the journaled ones, the recorded
  /// measurements/costs/rounds/robustness counters are re-applied, and the
  /// system is never executed. When the queue drains, evaluation continues
  /// live; the caller must have fast-forwarded the system with
  /// SkipRuns(last record's system_runs) so live runs draw exactly the
  /// noise an uninterrupted session would have drawn. Set before Tune().
  void SetReplay(std::vector<JournalRecord> records) {
    replay_ = std::move(records);
    replay_pos_ = 0;
  }
  /// True while Evaluate* calls are still being served from the journal.
  bool replay_active() const { return replay_pos_ < replay_.size(); }
  /// Journal records consumed by replay so far.
  size_t replayed_records() const { return replay_pos_; }
  /// Journal records still waiting to be served.
  size_t replay_pending() const { return replay_.size() - replay_pos_; }

  /// Cooperative interruption (SIGINT/SIGTERM in the CLI): `check` is
  /// polled at the top of every Evaluate* call; once it returns true the
  /// evaluator refuses all further measurements with kAborted, marks the
  /// budget refused so `while (!Exhausted())` tuners wind down, and the
  /// session reports kAborted. A call commits its journal records before it
  /// returns, so an interrupted session is already checkpointed.
  void set_interrupt_check(std::function<bool()> check) {
    interrupt_check_ = std::move(check);
  }
  /// Deterministic kill switch: interrupt as soon as the attached journal
  /// holds `limit` records (0 = off). The durability harness uses this to
  /// simulate operator kills at exact trial boundaries.
  void set_interrupt_after_records(uint64_t limit) { record_limit_ = limit; }
  bool interrupted() const { return interrupted_; }

  /// Installs a proposal guard (not owned; null = off, the default). Every
  /// Evaluate* proposal passes through the guard before validation, and
  /// every committed trial (live or replayed) is fed back via Observe().
  /// Null keeps the evaluator bit-identical to the pre-supervision
  /// behavior. Set before the first Evaluate call.
  void set_proposal_guard(ProposalGuard* guard) { guard_ = guard; }

  /// Caps further spending at `units` budget units from the current used()
  /// mark (the supervision layer's failover cooldown). While a lease is
  /// active, Remaining()/Exhausted() and the admission gates see the lease
  /// bound; a lease-bounded refusal returns kResourceExhausted WITHOUT
  /// latching the sticky budget refusal, so clearing the lease restores
  /// normal accounting and the session continues. A lease never extends
  /// the real budget.
  void SetLease(double units) {
    lease_active_ = true;
    lease_limit_ = used_ + units;
  }
  void ClearLease() {
    lease_active_ = false;
    lease_refused_ = false;
  }

  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  const ParameterSpace& space() const { return system_->space(); }
  const Workload& workload() const { return workload_; }
  TunableSystem* system() { return system_; }
  const TuningBudget& budget() const { return budget_; }

  /// Budget remaining, in full-run units (lease-bounded while a lease is
  /// active, so leased tuners plan against what they may actually spend).
  double Remaining() const { return EffectiveMax() - used_; }
  /// True once the budget is spent — or once any evaluation has been
  /// refused for budget reasons. The refusal clause is what makes
  /// fractional leftovers safe: censored/scaled trials can leave
  /// 0 < Remaining() < 1, where a full run no longer fits; without it a
  /// tuner looping `while (!Exhausted())` around an Evaluate() that keeps
  /// refusing would spin forever. A refusal proves the caller's next
  /// request cannot be funded, so it is terminal. With whole-unit costs a
  /// refusal only ever happens at Remaining() == 0, where Exhausted() was
  /// already true — the clause changes nothing there. An active lease
  /// additionally reports exhaustion once the leased units are spent,
  /// through a lease-scoped (non-terminal) refusal latch that ClearLease()
  /// resets — fractional leftovers under a lease would otherwise leave
  /// Exhausted() false while every request is refused (see SetLease).
  bool Exhausted() const {
    return budget_refused_ || lease_refused_ ||
           used_ >= EffectiveMax() - kBudgetEpsilon;
  }

  /// Runs the workload under `config`; returns the scalar objective
  /// (penalized runtime, lower is better). Fails with kResourceExhausted
  /// when the budget is spent and with the system's error for invalid
  /// configs. Each call costs 1 budget unit.
  Result<double> Evaluate(const Configuration& config);

  /// Evaluates a batch of configurations as ONE wall-clock round of
  /// parallel experiments (iTuned §2.4): configs fan out across
  /// TunableSystem::Clone()s on an internal thread pool of `parallelism`
  /// workers, and the trials are committed to the history in submission
  /// order, so the history/best/budget are bit-identical to calling
  /// Evaluate() serially on each config (only Trial::round differs).
  ///
  /// Budget: a batch of k configs costs k units. If fewer than k units
  /// remain, the batch is deterministically truncated to the first
  /// floor(remaining) configs; with no full unit left, returns
  /// kResourceExhausted. All configs are validated before anything runs.
  /// Returns the objectives of the evaluated (possibly truncated) prefix.
  ///
  /// Falls back to serial in-order execution — same results — when
  /// `parallelism` <= 1 or the system does not support Clone().
  Result<std::vector<double>> EvaluateBatch(
      const std::vector<Configuration>& configs, size_t parallelism);

  /// Shared worker pool for batch evaluation and tuner-internal parallel
  /// work (e.g. the GP hyperparameter search and acquisition scan).
  /// Created lazily; grows if a larger `min_threads` is requested later.
  /// Growing replaces the pool: the old one drains, joins and is destroyed,
  /// so every pointer returned earlier dangles. Fetch the pool where it is
  /// used instead of caching it across calls that may grow it —
  /// EvaluateBatch asks for `parallelism` threads.
  ThreadPool* thread_pool(size_t min_threads);

  /// Like Evaluate, but kills the run once it exceeds `abort_at_seconds`
  /// (iTuned's early abort of low-utility experiments: an experiment already
  /// slower than the incumbent teaches little, so stop paying for it). An
  /// aborted run costs only the fraction of a budget unit it actually
  /// consumed (abort_at / measured runtime) and records a censored trial
  /// whose objective is the penalized abort time — a lower bound, never a
  /// new best. Returns the objective and sets *aborted accordingly.
  Result<double> EvaluateWithEarlyAbort(const Configuration& config,
                                        double abort_at_seconds,
                                        bool* aborted);

  /// Runs a scaled-down sample of the workload (workload.scale multiplied
  /// by `fraction` in (0, 1]); costs `fraction` budget units. Used by
  /// Ernest-style tuners that train on cheap small-sample experiments. The
  /// trial is recorded but excluded from best() (its objective is not
  /// comparable to full runs). Returns the measured objective of the sample.
  Result<double> EvaluateScaled(const Configuration& config, double fraction);

  /// Unit-level execution for adaptive tuners on IterativeSystems; costs
  /// 1/NumUnits budget units. Fails with kFailedPrecondition if the system
  /// is not iterative.
  Result<ExecutionResult> EvaluateUnit(const Configuration& config,
                                       size_t unit_index);

  /// Records an externally-executed unit sequence as one logical trial so
  /// that adaptive tuners' composite runs appear in the history.
  void RecordCompositeTrial(const Configuration& config,
                            const ExecutionResult& aggregate, double cost);

  const std::vector<Trial>& history() const { return history_; }
  /// Trial with the lowest objective so far, or nullptr if none.
  const Trial* best() const;
  double used() const { return used_; }

  /// Robustness-policy activity this session (see RobustnessPolicy).
  size_t retried_runs() const { return retried_runs_; }
  size_t timed_out_runs() const { return timed_out_runs_; }
  size_t remeasured_runs() const { return remeasured_runs_; }

  /// Zeroes the per-session robustness counters (retried/timed-out/
  /// re-measured). RunTuningSession calls this at session start so an
  /// Evaluator reused across Tune() invocations never carries one
  /// session's repair activity into the next session's outcome.
  void ResetSessionCounters() {
    retried_runs_ = 0;
    timed_out_runs_ = 0;
    remeasured_runs_ = 0;
  }

  /// Attaches a span tracer (not owned; null = tracing off, the default).
  /// The Evaluator emits the measurement half of the span taxonomy
  /// (DESIGN.md §9): round → [batch] → trial → {measure, retry, remeasure,
  /// commit}, with the same commit-boundary identifiers as the journal, so
  /// a replayed session reconstructs a structurally identical tree. Set
  /// before the first Evaluate call.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Attaches a metrics registry (not owned; null = metrics off). Hot-path
  /// recording is atomic through cached pointers; see DESIGN.md §9 for the
  /// metric inventory. Set before the first Evaluate call.
  void set_metrics(MetricsRegistry* metrics);

  /// Objective value for a run under this evaluator's objective (custom if
  /// set, penalized runtime otherwise).
  double ObjectiveOf(const Configuration& config,
                     const ExecutionResult& result) const;

  /// Heap allocations performed by the most recent commit (from building
  /// the trial after its repairs through its journal append), as counted
  /// by the alloc hook (common/alloc_hook.h). Always 0 unless the counting
  /// override TU is linked in (tests and bench_hotpath only). The
  /// zero-alloc contract of DESIGN.md §11 is: steady state (past history
  /// reserve and buffer high-water marks), journal on, tracing/metrics
  /// off, default policy.
  uint64_t last_commit_allocs() const { return last_commit_allocs_; }

 private:
  /// What one measurement is, whichever public method asked for it. Every
  /// request runs the same pipeline (Measure for the serial methods, the
  /// lanes of EvaluateBatch); only these fields differ.
  struct MeasureRequest {
    /// Workload scale multiplier and base budget cost. Below 1 only for a
    /// sample: every other request is a full run.
    double fraction = 1.0;
    /// An Ernest-style sample: sanitize-only admission, excluded from
    /// best(), and transient retries are its only repair.
    bool scaled = false;
    /// Early-abort censor threshold in seconds (0 = none).
    double abort_at = 0.0;
  };

  /// The serial measurement core behind Evaluate, EvaluateWithEarlyAbort
  /// and EvaluateScaled: entry gate, budget gate for the base cost,
  /// admission (sanitize-only for samples), validation, round span, then
  /// either replay or measure + CommitTail. Returns the trial's objective.
  Result<double> Measure(const Configuration& config,
                         const MeasureRequest& request);

  /// The one commit tail of every trial — serial measurements, batch lanes
  /// and composite records: repair, commit, metrics, span annotation and
  /// journal append, as lane `lane` of a `batch_size` wave (1/0 serially).
  /// `cost` is the trial's cost before repairs: a measurement's base cost
  /// (its request's fraction), which ApplyRobustnessPolicy adds to and the
  /// budget is charged; or, with a null `request`, a composite record's
  /// nominal cost, which gets no repairs and charges nothing (its units
  /// were charged as they ran). `span` is the trial span to annotate (null
  /// for untraced batch lanes).
  Status CommitTail(Configuration config, ExecutionResult result,
                    const MeasureRequest* request, double cost,
                    ScopedSpan* span, uint64_t batch_size, uint64_t lane);

  /// Appends a committed trial — live or replayed — to the history, updates
  /// best-tracking (a trial marked scaled never becomes best) and feeds it
  /// to the proposal guard, so guard state is a pure function of the
  /// journaled observation sequence.
  void CommitTrial(Trial trial);

  /// Re-executes `config` on the parent system while `result` is a
  /// transient failure, up to policy_.max_retries times, charging
  /// retry_cost_fraction * base_cost per superseded attempt into *cost.
  /// The retry runs the workload at `base_cost` of its scale (the run it
  /// re-executes). `reserved` is budget already spoken for by
  /// not-yet-committed runs (including this one's base cost); a retry only
  /// happens if it still fits. Returns the final attempt's measurement.
  /// `parent_span` parents the per-retry "retry" spans (0 = root; pass the
  /// enclosing trial span's id so repairs nest under their trial).
  ExecutionResult RetryTransient(const Configuration& config,
                                 ExecutionResult result, double base_cost,
                                 double reserved, double* cost,
                                 uint64_t parent_span);

  /// The one place that decides which repairs a measurement gets. Every
  /// request gets transient retries. A full run is then censored at the
  /// tighter of the timeout watchdog and its early-abort threshold; the
  /// watchdog alone also censors failed runs, an early abort never does.
  /// A full run without an abort threshold last gets MAD outlier
  /// re-measurement. Samples get retries only. Repairs execute serially on
  /// the parent system (in a batch, after SkipRuns has realigned it). Adds
  /// their cost to *cost (in: the base cost) and sets *exclude_from_best
  /// for samples and censored results.
  ExecutionResult ApplyRobustnessPolicy(const Configuration& config,
                                        ExecutionResult result,
                                        const MeasureRequest& request,
                                        double reserved, double* cost,
                                        bool* exclude_from_best,
                                        uint64_t parent_span);

  /// Modified z-score of `runtime` against completed unscaled trials, or
  /// 0 when the history is too short or degenerate.
  double OutlierScore(double runtime) const;

  /// Marks the budget terminally refused (see Exhausted()) and returns the
  /// kResourceExhausted status every admission gate hands back.
  Status RefuseBudget();

  /// Spending cap currently in force: the real budget, tightened by an
  /// active lease (a lease never extends the budget).
  double EffectiveMax() const {
    return lease_active_ ? std::min(budget_max_, lease_limit_) : budget_max_;
  }

  /// Admission-gate refusal that distinguishes lease exhaustion (the next
  /// `needed` units would still fit the real budget — non-sticky, the
  /// session continues once the lease clears) from true budget exhaustion
  /// (terminal; latches via RefuseBudget).
  Status Refuse(double needed);

  /// Runs the proposal guard's full admission pipeline (no-op when no
  /// guard is installed).
  Configuration AdmitProposal(const Configuration& config) {
    return guard_ != nullptr ? guard_->Admit(config) : config;
  }
  /// Sanitization-only guard pass for unit/scaled/composite paths.
  Configuration SanitizeProposal(const Configuration& config) {
    return guard_ != nullptr ? guard_->Sanitize(config) : config;
  }

  /// Polls the interrupt sources (callback + record limit); once any fires,
  /// latches interrupted_ and budget_refused_ so Exhausted()-looping tuners
  /// wind down. Sticky.
  bool InterruptRequested();

  /// Common prologue of every Evaluate* call: fails with the sticky journal
  /// error if one occurred, and with kAborted once an interrupt fired.
  Status EntryGate();

  /// system_->Execute of the workload at `fraction` of its scale, with the
  /// measurement-noise cursor advanced; replaces every direct parent
  /// execution so system_runs_ stays in lockstep with the system's internal
  /// run index.
  Result<ExecutionResult> CountedExecute(const Configuration& config,
                                         double fraction);

  /// The one journal append routine, for trial and unit records alike:
  /// stamps `rec` with its seq and the Evaluator's cumulative state (noise
  /// cursor, budget, repair counters) and appends it. The wave's last lane
  /// (a serial trial's or unit's only one) commits it with one fsync;
  /// earlier lanes stay pending. A failure goes through
  /// HandleJournalFailure. Closes the commit's alloc-count window.
  Status JournalAppend(JournalRecordRef rec, uint64_t parent_span);

  /// Commits the journal's pending records (the lanes of a wave cut short by
  /// a lane error or an interrupt) with one fsync; a failure goes through
  /// HandleJournalFailure. No-op without a journal or pending records.
  Status CommitJournal(uint64_t parent_span);

  /// Converts a journal append failure into the policy's outcome: strict
  /// latches it into journal_error_ and returns it; degrade detaches the
  /// journal, writes the `.degraded` sidecar (best effort), emits the
  /// "journal_degrade" span and io.journal.degraded metric, and returns OK
  /// so the measurement still reaches the tuner.
  Status HandleJournalFailure(Status status, uint64_t parent_span);

  /// Feeds the journal's cumulative WriteFully telemetry (transient-error
  /// retries, short-write continuations) into the io.* counters as deltas.
  /// No-op when metrics are off or no journal is attached.
  void RecordIoTelemetry();

  /// The one replay record check: takes the next journal record if it is
  /// a `kind` record at these coordinates for `config` (else divergence,
  /// latched as kInternal), advances the replay cursor, fast-forwards the
  /// system's run cursor to the record's so post-replay (and off-journal)
  /// runs draw the noise an uninterrupted session would have, and restores
  /// the record's round, budget and repair counters.
  Result<const JournalRecord*> ReplayRecord(JournalRecordKind kind,
                                            const Configuration& config,
                                            uint64_t batch_size,
                                            uint64_t lane,
                                            uint64_t unit_index);

  /// Serves the next replay record as this trial: re-applies the recorded
  /// measurement to the history and best. Emits a "trial" span under
  /// `parent_span` with measure/retry/remeasure children synthesized from
  /// the record's counter deltas and a "replay" span sharing the live
  /// journal_append's structural name, so a resumed session's span tree is
  /// structurally identical to the uninterrupted one. `synth_measure` is
  /// false for composite trials, whose live path performs no base
  /// measurement.
  Status ReplayTrial(const Configuration& config, uint64_t batch_size,
                     uint64_t lane, uint64_t parent_span, bool synth_measure);
  /// Serves the next replay record as a unit execution (emits the "unit"
  /// span and its synthesized children, mirroring the live EvaluateUnit).
  Result<ExecutionResult> ReplayUnit(const Configuration& config,
                                     size_t unit_index);

  /// Latches a replay-consistency error into journal_error_ (first one
  /// wins) and returns it, so divergence is terminal for the whole session
  /// even if a tuner — or the supervision layer — would otherwise swallow
  /// the kInternal it surfaces as.
  Status StickyReplayError(Status status) {
    if (!status.ok() && journal_error_.ok()) journal_error_ = status;
    return status;
  }

  /// Records the committed trial into the metrics registry (no-op when
  /// metrics are off). Call after the trial is fully finalized; replay
  /// calls it too, so deterministic trial metrics survive a resume.
  void RecordTrialMetrics(const Trial& trial);

  /// Emits the zero-duration measure/retry/remeasure children of a replayed
  /// trial span from the journal record's counter deltas.
  void SynthesizeRepairSpans(uint64_t trial_span, bool synth_measure,
                             uint64_t retries, uint64_t remeasures);

  TunableSystem* system_;
  Workload workload_;
  TuningBudget budget_;
  double budget_max_;
  double failure_penalty_;
  ObjectiveFunction objective_;  // empty = penalized runtime
  RobustnessPolicy policy_;
  double used_ = 0.0;
  bool budget_refused_ = false;
  bool lease_active_ = false;
  double lease_limit_ = 0.0;
  bool lease_refused_ = false;
  ProposalGuard* guard_ = nullptr;  // not owned; null = supervision off
  size_t retried_runs_ = 0;
  size_t timed_out_runs_ = 0;
  size_t remeasured_runs_ = 0;
  std::vector<Trial> history_;
  size_t best_index_ = 0;
  bool has_best_ = false;
  /// Wall-clock round counter: +1 per Evaluate* call, +1 per whole batch.
  size_t round_ = 0;
  std::unique_ptr<ThreadPool> pool_;

  TrialJournal* journal_ = nullptr;  // not owned
  JournalPolicy journal_policy_ = JournalPolicy::kStrict;
  bool journal_degraded_ = false;
  /// High-water marks of the journal's cumulative WriteFully telemetry, so
  /// RecordIoTelemetry feeds the io.* counters exact per-append deltas.
  uint64_t io_retries_seen_ = 0;
  uint64_t io_shorts_seen_ = 0;
  Status journal_error_;
  std::vector<JournalRecord> replay_;
  size_t replay_pos_ = 0;
  /// Parent-system executions so far (== the system's run index, which
  /// SkipRuns fast-forwards on resume). Every Execute, ExecuteUnit, retry,
  /// re-measurement, and batch clone run advances it.
  uint64_t system_runs_ = 0;
  std::function<bool()> interrupt_check_;
  uint64_t record_limit_ = 0;
  bool interrupted_ = false;

  /// Alloc-hook sample taken when a commit starts and closed out when its
  /// journal record lands (see last_commit_allocs()).
  uint64_t commit_allocs_sample_ = 0;
  uint64_t last_commit_allocs_ = 0;

  Tracer* tracer_ = nullptr;            // not owned; null = tracing off
  MetricsRegistry* metrics_ = nullptr;  // not owned; null = metrics off
  /// Metric pointers cached once in set_metrics so hot paths never take the
  /// registry lock. All null when metrics are off.
  struct MetricSet {
    Histogram* trial_latency = nullptr;  // trial.latency_seconds
    Histogram* trial_cost = nullptr;     // trial.cost_units
    Histogram* queue_wait = nullptr;     // pool.queue_wait_host_seconds
    Counter* trials = nullptr;           // trial.total
    Counter* failed = nullptr;           // trial.failed
    Counter* censored = nullptr;         // trial.censored
    Counter* retried = nullptr;          // trial.retried
    Counter* timed_out = nullptr;        // trial.timed_out
    Counter* remeasured = nullptr;       // trial.remeasured
    Counter* replayed = nullptr;         // trial.replayed
    Gauge* budget_used = nullptr;        // budget.used_units
    Gauge* budget_retry = nullptr;       // budget.retry_units
    Gauge* budget_remeasure = nullptr;   // budget.remeasure_units
    Counter* io_appends = nullptr;       // io.append.total
    Counter* io_retries = nullptr;       // io.append.retries
    Counter* io_shorts = nullptr;        // io.append.short_writes
    Counter* io_errors = nullptr;        // io.error.total
    Gauge* io_degraded = nullptr;        // io.journal.degraded
  } m_;
};

/// Interface implemented by every tuning approach. Tune() explores via the
/// evaluator and returns; the evaluator's history/best() carry the outcome.
class Tuner {
 public:
  virtual ~Tuner() = default;

  virtual std::string name() const = 0;
  virtual TunerCategory category() const = 0;

  /// Runs the tuning procedure. `rng` seeds all of the tuner's randomness.
  /// Returning OK with an empty history is valid for tuners that can
  /// recommend without experiments (e.g. rule-based) — they should still
  /// evaluate their recommendation once if budget allows so the outcome is
  /// recorded.
  virtual Status Tune(Evaluator* evaluator, Rng* rng) = 0;

  /// Requests that the tuner evaluate up to `parallelism` experiments per
  /// round via Evaluator::EvaluateBatch. Tuners without a batch strategy
  /// ignore this (the default); batch-aware tuners must behave identically
  /// to their serial path when parallelism <= 1.
  virtual void set_parallelism(size_t parallelism) { (void)parallelism; }

  /// Human-readable summary of what the tuner did/learned (rankings,
  /// model quality, rules fired). Valid after Tune().
  virtual std::string Report() const { return ""; }
};

}  // namespace atune

#endif  // ATUNE_CORE_TUNER_H_
