#include "core/tuner.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/alloc_hook.h"
#include "common/io_env.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/string_util.h"

namespace atune {

namespace {

/// Deterministic annotations shared by live and replayed trial spans: every
/// value either comes from (live) the committed trial / upcoming journal seq
/// or (replay) the journal record — bit-identical by construction, so the
/// structural tree comparison can include them.
void AnnotateTrialSpan(ScopedSpan* span, bool has_seq, uint64_t seq,
                       const Trial& trial, uint64_t batch_size,
                       uint64_t lane) {
  if (!span->active()) return;
  if (has_seq) span->AddArg("seq", std::to_string(seq));
  span->AddArg("round", std::to_string(trial.round));
  if (batch_size > 1) {
    span->AddArg("batch_size", std::to_string(batch_size));
    span->AddArg("lane", std::to_string(lane));
  }
  span->AddArg("cost", TraceDouble(trial.cost));
  span->AddArg("objective", TraceDouble(trial.objective));
  span->AddArg("runtime", TraceDouble(trial.result.runtime_seconds));
  if (trial.scaled) span->AddArg("scaled", "1");
  if (trial.result.censored) {
    span->AddArg("censored", "1");
  } else if (trial.result.failed) {
    span->AddArg("failed", "1");
  }
}

}  // namespace

const char* TunerCategoryToString(TunerCategory category) {
  switch (category) {
    case TunerCategory::kRuleBased:
      return "rule-based";
    case TunerCategory::kCostModeling:
      return "cost-modeling";
    case TunerCategory::kSimulationBased:
      return "simulation-based";
    case TunerCategory::kExperimentDriven:
      return "experiment-driven";
    case TunerCategory::kMachineLearning:
      return "machine-learning";
    case TunerCategory::kAdaptive:
      return "adaptive";
  }
  return "?";
}

Evaluator::Evaluator(TunableSystem* system, Workload workload,
                     TuningBudget budget, double failure_penalty)
    : system_(system),
      workload_(std::move(workload)),
      budget_(budget),
      budget_max_(static_cast<double>(budget.max_evaluations)),
      failure_penalty_(failure_penalty) {
  // Reserve the history up front (bounded for absurd budgets) so steady-state
  // commits never reallocate the trial vector. Repairs can commit more
  // trials than the budget counts; the slack covers typical overage and a
  // rare regrowth is correct, just not free.
  history_.reserve(std::min<size_t>(budget.max_evaluations + 16, 4096));
}

void Evaluator::set_metrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  m_ = MetricSet{};
  if (metrics_ == nullptr) return;
  m_.trial_latency = metrics_->GetHistogram("trial.latency_seconds");
  m_.trial_cost = metrics_->GetHistogram("trial.cost_units");
  m_.queue_wait = metrics_->GetHistogram("pool.queue_wait_host_seconds");
  m_.trials = metrics_->GetCounter("trial.total");
  m_.failed = metrics_->GetCounter("trial.failed");
  m_.censored = metrics_->GetCounter("trial.censored");
  m_.retried = metrics_->GetCounter("trial.retried");
  m_.timed_out = metrics_->GetCounter("trial.timed_out");
  m_.remeasured = metrics_->GetCounter("trial.remeasured");
  m_.replayed = metrics_->GetCounter("trial.replayed");
  m_.budget_used = metrics_->GetGauge("budget.used_units");
  m_.budget_retry = metrics_->GetGauge("budget.retry_units");
  m_.budget_remeasure = metrics_->GetGauge("budget.remeasure_units");
  m_.io_appends = metrics_->GetCounter("io.append.total");
  m_.io_retries = metrics_->GetCounter("io.append.retries");
  m_.io_shorts = metrics_->GetCounter("io.append.short_writes");
  m_.io_errors = metrics_->GetCounter("io.error.total");
  m_.io_degraded = metrics_->GetGauge("io.journal.degraded");
}

void Evaluator::RecordTrialMetrics(const Trial& trial) {
  if (metrics_ == nullptr) return;
  m_.trials->Increment();
  if (trial.result.censored) {
    m_.censored->Increment();
  } else if (trial.result.failed) {
    m_.failed->Increment();
  }
  m_.trial_latency->Record(trial.result.runtime_seconds);
  m_.trial_cost->Record(trial.cost);
  m_.budget_used->Set(used_);
}

void Evaluator::SynthesizeRepairSpans(uint64_t trial_span, bool synth_measure,
                                      uint64_t retries, uint64_t remeasures) {
  if (tracer_ == nullptr) return;
  if (synth_measure) {
    tracer_->RecordSynthetic(trial_span, "measure", nullptr, {});
  }
  for (uint64_t i = 0; i < retries; ++i) {
    tracer_->RecordSynthetic(trial_span, "retry", nullptr, {});
  }
  for (uint64_t i = 0; i < remeasures; ++i) {
    tracer_->RecordSynthetic(trial_span, "remeasure", nullptr, {});
  }
}

double Evaluator::ObjectiveOf(const Configuration& config,
                              const ExecutionResult& result) const {
  if (objective_) return objective_(config, result);
  double obj = result.runtime_seconds;
  if (result.failed) obj *= failure_penalty_;
  return obj;
}

void Evaluator::CommitTrial(Trial trial) {
  history_.push_back(std::move(trial));
  if (!history_.back().scaled &&
      (!has_best_ ||
       history_.back().objective < history_[best_index_].objective)) {
    best_index_ = history_.size() - 1;
    has_best_ = true;
  }
  if (guard_ != nullptr) guard_->Observe(history_.back());
}

Status Evaluator::CommitTail(Configuration config, ExecutionResult result,
                             const MeasureRequest* request, double cost,
                             ScopedSpan* span, uint64_t batch_size,
                             uint64_t lane) {
  const uint64_t span_id = span != nullptr ? span->id() : 0;
  bool exclude_from_best = false;
  double charge = 0.0;
  if (request != nullptr) {
    // Budget spoken for: this run's base cost and the wave's uncommitted
    // lanes after it.
    const double reserved =
        request->fraction * static_cast<double>(batch_size - lane);
    result = ApplyRobustnessPolicy(config, std::move(result), *request,
                                   reserved, &cost, &exclude_from_best,
                                   span_id);
    charge = cost;
  }
  commit_allocs_sample_ = SampleAllocCount();
  used_ += charge;
  // config/result arrive by value and move in: the commit transfers
  // ownership instead of deep-copying (the zero-alloc contract).
  Trial trial;
  trial.objective = ObjectiveOf(config, result);
  trial.config = std::move(config);
  trial.result = std::move(result);
  trial.cost = cost;
  trial.scaled = exclude_from_best;
  trial.round = round_;
  CommitTrial(std::move(trial));
  const Trial& committed = history_.back();
  RecordTrialMetrics(committed);
  if (span != nullptr) {
    AnnotateTrialSpan(span, /*has_seq=*/journal_ != nullptr,
                      journal_ != nullptr ? journal_->next_seq() : 0,
                      committed, batch_size, lane);
  }
  // Borrow the committed trial's config/result instead of copying them into
  // an owning record — with AppendRef's reused frame buffer, the journal
  // half of the commit path allocates nothing in steady state.
  JournalRecordRef rec;
  rec.config = &committed.config;
  rec.result = &committed.result;
  rec.objective = committed.objective;
  rec.cost = committed.cost;
  rec.scaled = committed.scaled;
  rec.round = committed.round;
  rec.batch_size = batch_size;
  rec.lane = lane;
  return JournalAppend(rec, span_id);
}

ExecutionResult Evaluator::RetryTransient(const Configuration& config,
                                          ExecutionResult result,
                                          double base_cost, double reserved,
                                          double* cost,
                                          uint64_t parent_span) {
  size_t attempts = 0;
  while (result.failed && result.transient &&
         attempts < policy_.max_retries) {
    double retry_cost = policy_.retry_cost_fraction * base_cost;
    // `reserved` already includes this run's base cost; only the extras
    // accrued so far (*cost - base_cost) and the new retry come on top.
    if (used_ + reserved + (*cost - base_cost) + retry_cost >
        budget_max_ + kBudgetEpsilon) {
      break;  // no budget left to retry; degrade to the failed measurement
    }
    // Manual span rather than ScopedSpan: a retry that fails to execute is
    // never recorded, matching replay synthesis (which only sees the
    // counted retries).
    uint64_t span_id = 0;
    uint64_t begin_ns = 0;
    if (tracer_ != nullptr) {
      span_id = tracer_->BeginSpan();
      begin_ns = tracer_->NowNs();
    }
    auto again = CountedExecute(config, base_cost);
    if (!again.ok()) break;  // repair impossible; keep what we measured
    if (tracer_ != nullptr) {
      tracer_->EndSpan(span_id, parent_span, "retry", nullptr, begin_ns, {});
    }
    *cost += retry_cost;
    ++attempts;
    ++retried_runs_;
    if (m_.retried != nullptr) {
      m_.retried->Increment();
      m_.budget_retry->Add(retry_cost);
    }
    result = *std::move(again);
  }
  return result;
}

double Evaluator::OutlierScore(double runtime) const {
  std::vector<double> runtimes;
  runtimes.reserve(history_.size());
  for (const Trial& t : history_) {
    if (t.scaled || t.result.failed || t.result.censored) continue;
    runtimes.push_back(t.result.runtime_seconds);
  }
  if (runtimes.size() < policy_.outlier_min_history) return 0.0;
  MadResult stats = Mad(std::move(runtimes));
  // Floor the MAD so a near-degenerate history (repeated identical
  // measurements) doesn't make every new config look suspicious.
  double mad =
      std::max({stats.mad, 0.01 * std::abs(stats.median), 1e-12});
  return 0.6745 * std::abs(runtime - stats.median) / mad;
}

ExecutionResult Evaluator::ApplyRobustnessPolicy(
    const Configuration& config, ExecutionResult result,
    const MeasureRequest& request, double reserved, double* cost,
    bool* exclude_from_best, uint64_t parent_span) {
  *exclude_from_best = request.scaled;
  // Transient faults hit cheap sample runs too; a retry costs the same
  // fraction of the (scaled-down) run it re-executes.
  result = RetryTransient(config, std::move(result), request.fraction,
                          reserved, cost, parent_span);
  if (request.scaled) return result;

  // Censor at the tighter of the timeout watchdog and the early-abort
  // threshold (a hung run never gets to burn the abort threshold). The
  // watchdog reclaims hung — or merely interminable — runs, failed or not.
  // An early abort never censors a failed run: it did not stop early, and
  // its failure's wall-clock charge stands in full, so crashing never
  // masquerades as a cheap censored measurement. Either way we only watched
  // the run for censor_at of its wall clock, so charge that fraction (with
  // a 0.05 setup floor); the censored lower bound never becomes a best.
  const bool watchdog =
      policy_.timeout_seconds > 0.0 &&
      (request.abort_at <= 0.0 || policy_.timeout_seconds < request.abort_at);
  const double censor_at =
      watchdog ? policy_.timeout_seconds : request.abort_at;
  if (censor_at > 0.0 && result.runtime_seconds > censor_at &&
      (request.abort_at <= 0.0 || !result.failed)) {
    double fraction = censor_at / result.runtime_seconds;
    // Written as (cost - 1) + floor so the 0.05 floor is exact when no
    // retry surcharges preceded it (cost == 1.0).
    *cost = (*cost - 1.0) + std::max(0.05, std::min(1.0, fraction));
    result.runtime_seconds = censor_at;
    result.censored = true;
    if (watchdog) {
      result.failure_reason =
          StrFormat("killed by timeout watchdog after %.0f s", censor_at);
      ++timed_out_runs_;
      if (m_.timed_out != nullptr) m_.timed_out->Increment();
    } else {
      result.failure_reason = "aborted by early-abort threshold";
    }
    *exclude_from_best = true;
    return result;
  }
  // Early abort has its own answer to a slow run, the censor above, so it
  // skips outlier re-measurement (DESIGN.md §7).
  if (request.abort_at > 0.0) return result;

  // MAD outlier re-measurement: a completed run far outside the history's
  // runtime distribution is either a straggler, a corrupted measurement, or
  // a genuinely extreme configuration — re-running distinguishes them, and
  // committing the median measurement is right in every case.
  if (policy_.outlier_mad_threshold > 0.0 && !result.failed &&
      OutlierScore(result.runtime_seconds) > policy_.outlier_mad_threshold) {
    std::vector<ExecutionResult> measurements;
    measurements.push_back(result);
    for (size_t i = 0; i < policy_.remeasure_runs; ++i) {
      if (used_ + reserved + (*cost - 1.0) + 1.0 >
          budget_max_ + kBudgetEpsilon) {
        break;  // keep what we can afford
      }
      uint64_t span_id = 0;
      uint64_t begin_ns = 0;
      if (tracer_ != nullptr) {
        span_id = tracer_->BeginSpan();
        begin_ns = tracer_->NowNs();
      }
      auto again = CountedExecute(config, 1.0);
      if (!again.ok()) break;
      if (tracer_ != nullptr) {
        tracer_->EndSpan(span_id, parent_span, "remeasure", nullptr, begin_ns,
                         {});
      }
      *cost += 1.0;
      ++remeasured_runs_;
      if (m_.remeasured != nullptr) {
        m_.remeasured->Increment();
        m_.budget_remeasure->Add(1.0);
      }
      measurements.push_back(RetryTransient(config, *std::move(again), 1.0,
                                            reserved, cost, parent_span));
    }
    if (measurements.size() > 1) {
      std::sort(measurements.begin(), measurements.end(),
                [](const ExecutionResult& a, const ExecutionResult& b) {
                  return a.runtime_seconds < b.runtime_seconds;
                });
      result = measurements[measurements.size() / 2];
    }
  }
  return result;
}

Status Evaluator::RefuseBudget() {
  budget_refused_ = true;
  return Status::ResourceExhausted(
      StrFormat("tuning budget exhausted (%.1f/%.1f runs)", used_,
                budget_max_));
}

Status Evaluator::Refuse(double needed) {
  if (lease_active_ && used_ + needed <= budget_max_ + kBudgetEpsilon) {
    // The lease is spent but the real budget would still fund this call:
    // refuse without the terminal latch so the session resumes normal
    // accounting once the lease clears. The lease-scoped latch makes
    // fractional leftovers safe for `while (!Exhausted())` tuners (see
    // Exhausted()); ClearLease() resets it.
    lease_refused_ = true;
    return Status::ResourceExhausted(
        StrFormat("evaluation lease exhausted (%.1f/%.1f leased units)",
                  used_, lease_limit_));
  }
  return RefuseBudget();
}

namespace {
Status InterruptedStatus() {
  return Status::Aborted(
      "tuning session interrupted; progress is checkpointed in the trial "
      "journal");
}
}  // namespace

bool Evaluator::InterruptRequested() {
  if (interrupted_) return true;
  bool fire = interrupt_check_ && interrupt_check_();
  if (record_limit_ > 0 && journal_ != nullptr &&
      journal_->next_seq() >= record_limit_) {
    fire = true;
  }
  if (fire) {
    interrupted_ = true;
    // Also refuse the budget so `while (!Exhausted())` tuners wind down
    // even if they swallow the kAborted status.
    budget_refused_ = true;
  }
  return fire;
}

Status Evaluator::EntryGate() {
  if (!journal_error_.ok()) return journal_error_;
  if (InterruptRequested()) return InterruptedStatus();
  return Status::OK();
}

Result<ExecutionResult> Evaluator::CountedExecute(const Configuration& config,
                                                  double fraction) {
  ++system_runs_;
  if (fraction == 1.0) return system_->Execute(config, workload_);
  Workload sample = workload_;
  sample.scale *= fraction;
  return system_->Execute(config, sample);
}

Status Evaluator::JournalAppend(JournalRecordRef rec, uint64_t parent_span) {
  if (journal_ == nullptr) {
    last_commit_allocs_ = SampleAllocCount() - commit_allocs_sample_;
    return Status::OK();
  }
  rec.seq = journal_->next_seq();
  rec.system_runs = system_runs_;
  rec.used = used_;
  rec.retried_runs = retried_runs_;
  rec.timed_out_runs = timed_out_runs_;
  rec.remeasured_runs = remeasured_runs_;
  uint64_t span_id = 0;
  uint64_t begin_ns = 0;
  if (tracer_ != nullptr) {
    span_id = tracer_->BeginSpan();
    begin_ns = tracer_->NowNs();
  }
  Status status = journal_->AppendRef(rec);
  // Group commit: a wave's lanes are written unsynced and its last lane
  // makes them all durable with one fsync.
  if (status.ok() && rec.lane + 1 == rec.batch_size) {
    status = journal_->Commit();
  }
  last_commit_allocs_ = SampleAllocCount() - commit_allocs_sample_;
  RecordIoTelemetry();
  if (!status.ok()) {
    ATUNE_RETURN_IF_ERROR(
        HandleJournalFailure(std::move(status), parent_span));
  } else {
    if (m_.io_appends != nullptr) m_.io_appends->Increment();
    // The span marks the commit boundary; structurally it is "commit", the
    // same structural name the replay path emits, so resumed and
    // uninterrupted traces agree.
    if (tracer_ != nullptr) {
      tracer_->EndSpan(span_id, parent_span, "journal_append", "commit",
                       begin_ns, {});
    }
  }
  // The append is the commit boundary: firing the interrupt here (rather
  // than at the next call's entry gate) means a kill lands with the record
  // written but the measurement never reaching the tuner — exactly the
  // crash the journal defends against — and stops a long batch mid-commit
  // (EvaluateBatch then commits the lanes written so far).
  if (InterruptRequested()) return InterruptedStatus();
  return Status::OK();
}

Status Evaluator::CommitJournal(uint64_t parent_span) {
  if (journal_ == nullptr) return Status::OK();
  Status status = journal_->Commit();
  if (status.ok()) return status;
  return HandleJournalFailure(std::move(status), parent_span);
}

Status Evaluator::HandleJournalFailure(Status status, uint64_t parent_span) {
  if (m_.io_errors != nullptr) m_.io_errors->Increment();
  if (journal_policy_ == JournalPolicy::kStrict) {
    journal_error_ = status;
    return status;
  }
  // Degrade: availability over resumability. Detach the journal so no
  // further appends are attempted, and leave a durable sidecar so a later
  // resume refuses the now-incomplete record instead of silently replaying
  // a truncated history.
  journal_degraded_ = true;
  const std::string sidecar = journal_->path() + kDegradedSidecarSuffix;
  journal_ = nullptr;
  IoEnv* env = IoEnv::Current();
  auto marker = env->OpenWritable(sidecar, IoEnv::OpenMode::kTruncate);
  if (marker.ok()) {
    std::string message = "journal degraded: " + status.message() + "\n";
    (void)WriteFully(env, marker->get(), message.data(), message.size());
    (void)(*marker)->Sync();
    (void)(*marker)->Close();
    (void)env->SyncDir(sidecar);
  }
  if (m_.io_degraded != nullptr) m_.io_degraded->Set(1.0);
  if (tracer_ != nullptr) {
    tracer_->RecordSynthetic(parent_span, "journal_degrade", nullptr, {});
  }
  ATUNE_LOG(Warning) << "journal degraded (" << status.ToString()
                     << "); tuning continues un-journaled and this session "
                        "can no longer be resumed";
  return Status::OK();
}

void Evaluator::RecordIoTelemetry() {
  if (journal_ == nullptr || metrics_ == nullptr) return;
  uint64_t retries = journal_->write_retries();
  uint64_t shorts = journal_->short_writes();
  if (retries > io_retries_seen_) {
    m_.io_retries->Increment(retries - io_retries_seen_);
    io_retries_seen_ = retries;
  }
  if (shorts > io_shorts_seen_) {
    m_.io_shorts->Increment(shorts - io_shorts_seen_);
    io_shorts_seen_ = shorts;
  }
}

Result<const JournalRecord*> Evaluator::ReplayRecord(
    JournalRecordKind kind, const Configuration& config, uint64_t batch_size,
    uint64_t lane, uint64_t unit_index) {
  // Replay-consistency errors latch into journal_error_: they are
  // durability failures, and the latch keeps supervision layers from
  // mistaking them for a tuner's numerical failure and failing over past a
  // corrupted resume.
  if (replay_pos_ >= replay_.size()) {
    return StickyReplayError(Status::Internal(
        "journal replay ended mid-call; the journal does not match the "
        "tuner's request sequence"));
  }
  const JournalRecord& rec = replay_[replay_pos_];
  if (rec.kind != kind || rec.batch_size != batch_size || rec.lane != lane ||
      rec.unit_index != unit_index || !(rec.config == config)) {
    return StickyReplayError(Status::Internal(StrFormat(
        "journal replay diverged at record %llu: the tuner requested a "
        "different %s than the one journaled (check that the resumed "
        "session uses identical parameters, including any custom objective)",
        static_cast<unsigned long long>(rec.seq),
        kind == JournalRecordKind::kUnit ? "unit execution" : "evaluation")));
  }
  ++replay_pos_;
  // Skip exactly the runs this record consumed, leaving any runs the tuner
  // performed directly on the system (off-journal, e.g. OtterTune's offline
  // repository build) to re-execute live. Because measurement noise depends
  // only on (seed, run index), re-running those interleaved at the same
  // indices reproduces them bit-identically — no tuner-side state to save.
  if (rec.system_runs < system_runs_) {
    return StickyReplayError(Status::Internal(StrFormat(
        "journal replay diverged at record %llu: system-run cursor moved "
        "backwards (%llu -> %llu)",
        static_cast<unsigned long long>(rec.seq),
        static_cast<unsigned long long>(system_runs_),
        static_cast<unsigned long long>(rec.system_runs))));
  }
  if (rec.system_runs > system_runs_) {
    system_->SkipRuns(rec.system_runs - system_runs_);
    system_runs_ = rec.system_runs;
  }
  // Re-apply the committed state exactly: same round, same cumulative
  // budget/counters/noise cursor as the uninterrupted session.
  round_ = rec.round;
  used_ = rec.used;
  retried_runs_ = rec.retried_runs;
  timed_out_runs_ = rec.timed_out_runs;
  remeasured_runs_ = rec.remeasured_runs;
  return &rec;
}

Status Evaluator::ReplayTrial(const Configuration& config,
                              uint64_t batch_size, uint64_t lane,
                              uint64_t parent_span, bool synth_measure) {
  // Counter deltas relative to the previous record reconstruct the repair
  // activity this trial performed live (the journal stores the counters
  // cumulatively) — capture them before ReplayRecord overwrites them.
  const uint64_t retried_before = retried_runs_;
  const uint64_t timed_out_before = timed_out_runs_;
  const uint64_t remeasured_before = remeasured_runs_;
  ATUNE_ASSIGN_OR_RETURN(
      const JournalRecord* rec,
      ReplayRecord(JournalRecordKind::kTrial, config, batch_size, lane, 0));
  const uint64_t delta_retried = rec->retried_runs - retried_before;
  const uint64_t delta_remeasured = rec->remeasured_runs - remeasured_before;
  Trial trial;
  trial.config = rec->config;
  trial.result = rec->result;
  trial.objective = rec->objective;
  trial.cost = rec->cost;
  trial.scaled = rec->scaled;
  trial.round = rec->round;
  CommitTrial(std::move(trial));
  // Emit the same span structure the live trial emitted: the trial span
  // with synthesized measure/retry/remeasure children and a commit-boundary
  // span (structural name "commit", like the live journal_append).
  {
    ScopedSpan trial_span(tracer_, "trial", parent_span);
    AnnotateTrialSpan(&trial_span, /*has_seq=*/true, rec->seq,
                      history_.back(), batch_size, lane);
    SynthesizeRepairSpans(trial_span.id(), synth_measure, delta_retried,
                          delta_remeasured);
    if (tracer_ != nullptr) {
      tracer_->RecordSynthetic(trial_span.id(), "replay", "commit", {});
    }
  }
  if (metrics_ != nullptr) {
    // Deterministic metrics are re-recorded from the journal, mirroring the
    // live recording sequence so a resumed registry matches bit-for-bit
    // (budget.retry_units reconstructs each live Add(retry_cost); the
    // full-run retry cost is exact, scaled-trial retries are approximated
    // with base cost 1.0 — see DESIGN.md §9).
    for (uint64_t i = 0; i < delta_retried; ++i) {
      m_.retried->Increment();
      m_.budget_retry->Add(policy_.retry_cost_fraction);
    }
    m_.timed_out->Increment(rec->timed_out_runs - timed_out_before);
    for (uint64_t i = 0; i < delta_remeasured; ++i) {
      m_.remeasured->Increment();
      m_.budget_remeasure->Add(1.0);
    }
    m_.replayed->Increment();
    // The journaled record was one successful append in the live session;
    // re-count it so a resumed registry matches the uninterrupted one.
    m_.io_appends->Increment();
    RecordTrialMetrics(history_.back());
  }
  return Status::OK();
}

Result<ExecutionResult> Evaluator::ReplayUnit(const Configuration& config,
                                              size_t unit_index) {
  ATUNE_ASSIGN_OR_RETURN(
      const JournalRecord* rec,
      ReplayRecord(JournalRecordKind::kUnit, config, 1, 0, unit_index));
  {
    ScopedSpan unit_span(tracer_, "unit");
    if (unit_span.active()) {
      unit_span.AddArg("seq", std::to_string(rec->seq));
      unit_span.AddArg("unit", std::to_string(unit_index));
      unit_span.AddArg("cost", TraceDouble(rec->cost));
      unit_span.AddArg("objective", TraceDouble(rec->objective));
      unit_span.AddArg("runtime", TraceDouble(rec->result.runtime_seconds));
    }
    if (tracer_ != nullptr) {
      tracer_->RecordSynthetic(unit_span.id(), "measure", nullptr, {});
      tracer_->RecordSynthetic(unit_span.id(), "replay", "commit", {});
    }
  }
  if (metrics_ != nullptr) {
    m_.budget_used->Set(used_);
    m_.replayed->Increment();
    m_.io_appends->Increment();
  }
  return rec->result;
}

Result<double> Evaluator::Measure(const Configuration& config,
                                  const MeasureRequest& request) {
  ATUNE_RETURN_IF_ERROR(EntryGate());
  // Conservative gate: an uncensored run — an early-abort run that finishes
  // under its threshold included — costs its full base cost, so every
  // request needs that up front (never overspends).
  if (used_ + request.fraction > EffectiveMax() + kBudgetEpsilon) {
    return Refuse(request.fraction);
  }
  // Sanitize-only for samples: Ernest-style tuners legitimately re-propose
  // the same config at several scales, so the duplicate/veto pipeline stays
  // out.
  Configuration admitted = request.scaled ? SanitizeProposal(config)
                                          : AdmitProposal(config);
  ATUNE_RETURN_IF_ERROR(space().ValidateConfiguration(admitted));
  ScopedSpan round_span(tracer_, "round");
  if (replay_active()) {
    ATUNE_RETURN_IF_ERROR(ReplayTrial(admitted, /*batch_size=*/1, /*lane=*/0,
                                      round_span.id(),
                                      /*synth_measure=*/true));
    return history_.back().objective;
  }
  ScopedSpan trial_span(tracer_, "trial", round_span.id());
  ExecutionResult result;
  {
    ScopedSpan measure_span(tracer_, "measure", trial_span.id());
    ATUNE_ASSIGN_OR_RETURN(result,
                           CountedExecute(admitted, request.fraction));
  }
  ++round_;
  ATUNE_RETURN_IF_ERROR(CommitTail(std::move(admitted), std::move(result),
                                   &request, request.fraction, &trial_span,
                                   /*batch_size=*/1, /*lane=*/0));
  return history_.back().objective;
}

Result<double> Evaluator::Evaluate(const Configuration& config) {
  return Measure(config, MeasureRequest{});
}

ThreadPool* Evaluator::thread_pool(size_t min_threads) {
  min_threads = std::max<size_t>(min_threads, 1);
  if (pool_ == nullptr || pool_->num_threads() < min_threads) {
    pool_ = std::make_unique<ThreadPool>(min_threads);
  }
  return pool_.get();
}

Result<std::vector<double>> Evaluator::EvaluateBatch(
    const std::vector<Configuration>& configs, size_t parallelism) {
  if (configs.empty()) return std::vector<double>();
  ATUNE_RETURN_IF_ERROR(EntryGate());
  // Admit the whole submission before validation/truncation so the guard's
  // call sequence is identical live and on replay (truncation depends on
  // budget state, admission must not).
  std::vector<Configuration> admitted;
  admitted.reserve(configs.size());
  for (const Configuration& config : configs) {
    admitted.push_back(AdmitProposal(config));
  }
  for (const Configuration& config : admitted) {
    ATUNE_RETURN_IF_ERROR(space().ValidateConfiguration(config));
  }
  // Deterministic mid-batch truncation: only whole runs that still fit.
  size_t affordable =
      static_cast<size_t>(std::max(0.0, Remaining() + kBudgetEpsilon));
  if (affordable == 0) {
    return Refuse(1.0);
  }
  size_t k = std::min(admitted.size(), affordable);
  ScopedSpan round_span(tracer_, "round");
  ScopedSpan batch_span(tracer_, "batch", round_span.id());
  if (batch_span.active()) batch_span.AddArg("size", std::to_string(k));
  if (replay_active()) {
    // Recovery only ever keeps whole batches, so replay serves the full
    // wave or none of it; running dry mid-wave means the journal belongs to
    // a different request sequence.
    std::vector<double> objectives;
    objectives.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      ATUNE_RETURN_IF_ERROR(ReplayTrial(admitted[i], k, i, batch_span.id(),
                                        /*synth_measure=*/true));
      objectives.push_back(history_.back().objective);
    }
    return objectives;
  }
  ++round_;  // the whole batch is one wall-clock round

  // Lane trial spans open before the fan-out so each worker's "measure"
  // span can parent to its lane; they close lane-by-lane at commit.
  std::vector<std::unique_ptr<ScopedSpan>> lane_spans;
  if (tracer_ != nullptr) {
    lane_spans.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      lane_spans.push_back(
          std::make_unique<ScopedSpan>(tracer_, "trial", batch_span.id()));
    }
  }
  auto lane_span_id = [&](size_t i) -> uint64_t {
    return tracer_ != nullptr ? lane_spans[i]->id() : 0;
  };

  std::vector<Result<ExecutionResult>> results;
  results.reserve(k);
  std::unique_ptr<TunableSystem> probe =
      parallelism > 1 ? system_->Clone(0) : nullptr;
  if (probe == nullptr) {
    // Serial fallback (parallelism 1 or non-clonable system): identical
    // semantics, executed in submission order on the parent.
    for (size_t i = 0; i < k; ++i) {
      ScopedSpan measure_span(tracer_, "measure", lane_span_id(i));
      results.push_back(CountedExecute(admitted[i], 1.0));
    }
  } else {
    // Fan out over clones. Clone i replays exactly the noise the parent
    // would draw on its i-th execution from now, so the committed history
    // is bit-identical to the serial loop above.
    std::vector<std::unique_ptr<TunableSystem>> clones;
    clones.reserve(k);
    clones.push_back(std::move(probe));  // probe == Clone(0); reuse it
    for (size_t i = 1; i < k; ++i) clones.push_back(system_->Clone(i));
    ThreadPool* pool = thread_pool(parallelism);
    std::vector<std::future<Result<ExecutionResult>>> futures;
    futures.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      TunableSystem* clone = clones[i].get();
      const Configuration* config = &admitted[i];
      uint64_t lane_span = lane_span_id(i);
      Histogram* queue_wait = m_.queue_wait;  // host-clock; see naming note
      auto submitted = std::chrono::steady_clock::now();
      futures.push_back(
          pool->Submit([clone, config, this, lane_span, queue_wait,
                        submitted]() {
            if (queue_wait != nullptr) {
              queue_wait->Record(std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() -
                                     submitted)
                                     .count());
            }
            ScopedSpan measure_span(tracer_, "measure", lane_span);
            return clone->Execute(*config, workload_);
          }));
    }
    for (size_t i = 0; i < k; ++i) results.push_back(futures[i].get());
    system_->SkipRuns(k);
    system_runs_ += k;  // the cursor tracks SkipRuns as well as executions
  }

  // Commit in submission order; an execution error (impossible for
  // validated configs on the built-in simulators, but systems may fail)
  // aborts the batch after committing the preceding trials. Robustness
  // repairs (transient retries, outlier re-measurement) re-execute on the
  // parent — realigned by SkipRuns above — so a faulty wave behaves like a
  // parallel wave followed by a serial repair phase; with nothing to repair
  // this is bit-identical to committing the wave directly. The journal
  // group-commits the wave: the last lane's append fsyncs every lane, and
  // a return before it commits the lanes written so far, so the wave's
  // records are durable however the call ends.
  std::vector<double> objectives;
  objectives.reserve(k);
  const MeasureRequest full_run;
  for (size_t i = 0; i < k; ++i) {
    if (!results[i].ok()) {
      ATUNE_RETURN_IF_ERROR(CommitJournal(batch_span.id()));
      return results[i].status();
    }
    Status status = CommitTail(
        std::move(admitted[i]), *std::move(results[i]), &full_run, 1.0,
        tracer_ != nullptr ? lane_spans[i].get() : nullptr, k, i);
    if (tracer_ != nullptr) lane_spans[i].reset();  // lane committed
    if (!status.ok()) {
      ATUNE_RETURN_IF_ERROR(CommitJournal(batch_span.id()));
      return status;
    }
    objectives.push_back(history_.back().objective);
  }
  return objectives;
}

Result<double> Evaluator::EvaluateWithEarlyAbort(const Configuration& config,
                                                 double abort_at_seconds,
                                                 bool* aborted) {
  if (aborted != nullptr) *aborted = false;
  if (abort_at_seconds <= 0.0) {
    return Status::InvalidArgument(
        "EvaluateWithEarlyAbort: abort threshold must be positive");
  }
  MeasureRequest request;
  request.abort_at = abort_at_seconds;
  const size_t trials_before = history_.size();
  Result<double> objective = Measure(config, request);
  // A trial that committed reports its censoring even when its journal
  // append then failed or fired an interrupt.
  if (aborted != nullptr && history_.size() > trials_before) {
    *aborted = history_.back().result.censored;
  }
  return objective;
}

Result<double> Evaluator::EvaluateScaled(const Configuration& config,
                                         double fraction) {
  if (fraction <= 0.0 || fraction > 1.0) {
    return Status::InvalidArgument("EvaluateScaled: fraction must be in (0,1]");
  }
  MeasureRequest request;
  request.fraction = fraction;
  request.scaled = true;
  return Measure(config, request);
}

Result<ExecutionResult> Evaluator::EvaluateUnit(const Configuration& config,
                                                size_t unit_index) {
  ATUNE_RETURN_IF_ERROR(EntryGate());
  IterativeSystem* iterative = system_->AsIterative();
  if (iterative == nullptr) {
    return Status::FailedPrecondition(
        StrFormat("system '%s' does not support unit-level execution",
                  system_->name().c_str()));
  }
  size_t units = std::max<size_t>(iterative->NumUnits(workload_), 1);
  double cost = 1.0 / static_cast<double>(units);
  if (used_ + cost > EffectiveMax() + kBudgetEpsilon) {
    return Refuse(cost);
  }
  // Sanitize-only: unit sequences legitimately repeat a config per unit,
  // so the duplicate/veto pipeline would corrupt composite runs.
  const Configuration admitted = SanitizeProposal(config);
  ATUNE_RETURN_IF_ERROR(space().ValidateConfiguration(admitted));
  if (replay_active()) {
    return ReplayUnit(admitted, unit_index);
  }
  ScopedSpan unit_span(tracer_, "unit");
  ++system_runs_;  // ExecuteUnit advances the system's run index like Execute
  ExecutionResult result;
  {
    ScopedSpan measure_span(tracer_, "measure", unit_span.id());
    ATUNE_ASSIGN_OR_RETURN(
        result, iterative->ExecuteUnit(admitted, workload_, unit_index));
  }
  used_ += cost;
  if (m_.budget_used != nullptr) m_.budget_used->Set(used_);
  const double objective = ObjectiveOf(admitted, result);
  if (unit_span.active()) {
    if (journal_ != nullptr) {
      unit_span.AddArg("seq", std::to_string(journal_->next_seq()));
    }
    unit_span.AddArg("unit", std::to_string(unit_index));
    unit_span.AddArg("cost", TraceDouble(cost));
    unit_span.AddArg("objective", TraceDouble(objective));
    unit_span.AddArg("runtime", TraceDouble(result.runtime_seconds));
  }
  commit_allocs_sample_ = SampleAllocCount();
  JournalRecordRef rec;
  rec.kind = JournalRecordKind::kUnit;
  rec.config = &admitted;
  rec.result = &result;
  rec.objective = objective;
  rec.cost = cost;
  rec.round = round_;
  rec.unit_index = unit_index;
  ATUNE_RETURN_IF_ERROR(JournalAppend(rec, unit_span.id()));
  return result;
}

void Evaluator::RecordCompositeTrial(const Configuration& config,
                                     const ExecutionResult& aggregate,
                                     double cost) {
  // Sanitize so composite history entries match the configs the unit-level
  // path actually executed (EvaluateUnit sanitizes the same way).
  Configuration admitted = SanitizeProposal(config);
  ScopedSpan round_span(tracer_, "round");
  if (replay_active()) {
    // The composite trial was journaled like a serial trial; any divergence
    // surfaces through the sticky journal_error_ (this API is void). No
    // measure span is synthesized — the live path performs no base run.
    (void)ReplayTrial(admitted, /*batch_size=*/1, /*lane=*/0,
                      round_span.id(), /*synth_measure=*/false);
    return;
  }
  ++round_;
  ScopedSpan trial_span(tracer_, "trial", round_span.id());
  // No request: the unit-level evaluations already charged the budget, so
  // the trial only records its nominal cost.
  (void)CommitTail(std::move(admitted), aggregate, /*request=*/nullptr, cost,
                   &trial_span, /*batch_size=*/1, /*lane=*/0);
}

const Trial* Evaluator::best() const {
  if (!has_best_) return nullptr;
  return &history_[best_index_];
}

}  // namespace atune
