// Journal behavior on a hostile filesystem: every fault FaultInjectingIoEnv
// can produce — short writes mid-record, ENOSPC mid-header, fsync failure on
// the final record or a wave's group commit (fsyncgate: the cached bytes are
// GONE), mmap/stat races — must surface as a clean Status and leave the
// on-disk journal the longest valid record prefix, which never holds part
// of a wave. Session level (serial and batched): --journal-policy strict
// aborts with kIoError, degrade finishes un-journaled and refuses later
// resumes.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io_env.h"
#include "core/journal.h"
#include "core/registry.h"
#include "core/session.h"
#include "tests/testing_util.h"
#include "tuners/builtin.h"

namespace atune {
namespace {

JournalHeader TestHeader() {
  JournalHeader h;
  h.tuner_name = "test-tuner";
  h.system_name = "test-system";
  h.workload_name = "wl";
  h.workload_kind = "mock";
  h.seed = 42;
  h.max_evaluations = 20;
  h.failure_penalty = 10.0;
  return h;
}

JournalRecord TestRecord(uint64_t seq) {
  JournalRecord r;
  r.seq = seq;
  r.config.SetDouble("x", 0.25 * static_cast<double>(seq));
  r.config.SetInt("workers", static_cast<int64_t>(seq) + 1);
  r.result.runtime_seconds = 10.0 + static_cast<double>(seq);
  r.result.metrics = {{"throughput", 100.0 - seq}};
  r.objective = r.result.runtime_seconds;
  r.cost = 1.0;
  r.round = seq;
  r.system_runs = seq + 1;
  r.used = static_cast<double>(seq + 1);
  return r;
}

/// Two waves of four records (lane = seq % 4).
std::vector<JournalRecord> TwoWaves() {
  std::vector<JournalRecord> records;
  for (uint64_t i = 0; i < 8; ++i) {
    records.push_back(TestRecord(i));
    records.back().batch_size = 4;
    records.back().lane = i % 4;
  }
  return records;
}

/// The borrowing view of `r` that the Evaluator hands to AppendRef.
JournalRecordRef RefOf(const JournalRecord& r) {
  JournalRecordRef ref;
  ref.seq = r.seq;
  ref.config = &r.config;
  ref.result = &r.result;
  ref.objective = r.objective;
  ref.cost = r.cost;
  ref.round = r.round;
  ref.batch_size = r.batch_size;
  ref.lane = r.lane;
  ref.system_runs = r.system_runs;
  ref.used = r.used;
  return ref;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Slurp(const std::string& path) {
  std::string contents;
  EXPECT_TRUE(IoEnv::Default()->ReadFileToString(path, &contents).ok());
  return contents;
}

uint64_t RecoveredCount(const std::string& path) {
  auto recovered = TrialJournal::OpenForResume(path);
  EXPECT_TRUE(recovered.ok()) << recovered.status().message();
  return recovered.ok() ? recovered->records.size() : 0;
}

// RAII restore for the process-wide replay-mode override.
class ScopedReplayMode {
 public:
  explicit ScopedReplayMode(JournalReplayMode mode)
      : previous_(JournalReplayModeForTesting()) {
    SetJournalReplayModeForTesting(mode);
  }
  ~ScopedReplayMode() { SetJournalReplayModeForTesting(previous_); }

 private:
  JournalReplayMode previous_;
};

// Op-index map for a journal lifetime under FaultInjectingIoEnv (per-kind
// indices): Create = write#0 (preamble) + sync#0; the i-th Append (0-based)
// = write#(i+1) + sync#(i+1). Targeted rules below are derived from this.

TEST(JournalFaultTest, ShortWriteMidRecordIsReassembled) {
  std::string path = TempPath("journal_fault_short.wal");
  std::remove(path.c_str());
  IoFaultSchedule schedule;
  schedule.rules.push_back(
      {IoOpKind::kWrite, 3, IoFaultKind::kShortWrite, 1});  // 3rd append
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  {
    ScopedIoEnv install(&env);
    auto journal = TrialJournal::Create(path, TestHeader());
    ASSERT_TRUE(journal.ok()) << journal.status().message();
    for (uint64_t i = 0; i < 5; ++i) {
      Status s = (*journal)->Append(TestRecord(i));
      EXPECT_TRUE(s.ok()) << "append " << i << ": " << s.message();
    }
    EXPECT_EQ(env.injected(IoFaultKind::kShortWrite), 1u);
    EXPECT_EQ((*journal)->short_writes(), 1u);
    EXPECT_EQ((*journal)->write_retries(), 0u);  // short != retry
  }
  // The stitched-together frame is indistinguishable from a clean one.
  EXPECT_EQ(RecoveredCount(path), 5u);
}

TEST(JournalFaultTest, EnospcMidHeaderFailsCreateCleanly) {
  std::string path = TempPath("journal_fault_enospc.wal");
  std::remove(path.c_str());
  IoFaultSchedule schedule;
  schedule.rules.push_back(
      {IoOpKind::kWrite, 0, IoFaultKind::kEnospc, 1});  // preamble write
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  ScopedIoEnv install(&env);
  auto journal = TrialJournal::Create(path, TestHeader());
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), StatusCode::kIoError);
}

TEST(JournalFaultTest, TransientEioDuringAppendIsRetried) {
  std::string path = TempPath("journal_fault_transient.wal");
  std::remove(path.c_str());
  IoFaultSchedule schedule;
  schedule.rules.push_back(
      {IoOpKind::kWrite, 2, IoFaultKind::kTransientEio, 2});  // 2nd append
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  {
    ScopedIoEnv install(&env);
    auto journal = TrialJournal::Create(path, TestHeader());
    ASSERT_TRUE(journal.ok());
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*journal)->Append(TestRecord(i)).ok());
    }
    EXPECT_EQ((*journal)->write_retries(), 2u);
  }
  EXPECT_EQ(RecoveredCount(path), 3u);
}

// fsyncgate: the fsync of the final record fails and the page cache drops
// the unsynced frame. The append must report kIoError, the journal must
// re-verify its durable tail, and a later append must land cleanly after it.
TEST(JournalFaultTest, SyncFailureOnFinalRecordKeepsDurablePrefix) {
  std::string path = TempPath("journal_fault_syncgate.wal");
  std::remove(path.c_str());
  IoFaultSchedule schedule;
  schedule.rules.push_back(
      {IoOpKind::kSync, 5, IoFaultKind::kSyncFail, 1});  // 5th append's fsync
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  {
    ScopedIoEnv install(&env);
    auto journal = TrialJournal::Create(path, TestHeader());
    ASSERT_TRUE(journal.ok());
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE((*journal)->Append(TestRecord(i)).ok());
    }
    Status failed = (*journal)->Append(TestRecord(4));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    EXPECT_EQ(env.injected(IoFaultKind::kSyncFail), 1u);
    // next_seq must not advance past a record that never became durable.
    EXPECT_EQ((*journal)->next_seq(), 4u);
    // ReverifyTail re-opened the journal on the durable prefix: the retried
    // append goes through and stays sequence-dense.
    ASSERT_TRUE((*journal)->Append(TestRecord(4)).ok());
    EXPECT_EQ((*journal)->next_seq(), 5u);
  }
  EXPECT_EQ(RecoveredCount(path), 5u);
}

TEST(JournalFaultTest, PersistentEioMidRecordKeepsJournalAppendable) {
  std::string path = TempPath("journal_fault_eio.wal");
  std::remove(path.c_str());
  IoFaultSchedule schedule;
  schedule.rules.push_back(
      {IoOpKind::kWrite, 2, IoFaultKind::kPersistentEio, 1});  // 2nd append
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  {
    ScopedIoEnv install(&env);
    auto journal = TrialJournal::Create(path, TestHeader());
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE((*journal)->Append(TestRecord(0)).ok());
    Status failed = (*journal)->Append(TestRecord(1));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    ASSERT_TRUE((*journal)->Append(TestRecord(1)).ok());
  }
  EXPECT_EQ(RecoveredCount(path), 2u);
}

// Group commit: the lanes of a wave are written unsynced and one fsync
// commits them. When that fsync fails (and drops the unsynced bytes), the
// journal must go back to the start of the wave — none of its frames may
// survive, the previous wave's tail frame must re-verify, and next_seq()
// must roll back so the retried wave stays sequence-dense.
TEST(JournalFaultTest, SyncFailureAtWaveCommitDropsTheWholeWave) {
  std::string path = TempPath("journal_fault_wave_sync.wal");
  std::remove(path.c_str());
  // sync#0 is Create's, sync#1 commits wave 0, sync#2 commits wave 1.
  FaultInjectingIoEnv env(
      IoEnv::Default(),
      IoFaultSchedule::Single(IoOpKind::kSync, 2, IoFaultKind::kSyncFail));
  const std::vector<JournalRecord> waves = TwoWaves();
  std::string after_wave0;
  {
    ScopedIoEnv install(&env);
    auto journal = TrialJournal::Create(path, TestHeader());
    ASSERT_TRUE(journal.ok());
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE((*journal)->AppendRef(RefOf(waves[i])).ok());
    }
    ASSERT_TRUE((*journal)->Commit().ok());
    after_wave0 = Slurp(path);
    for (uint64_t i = 4; i < 8; ++i) {
      ASSERT_TRUE((*journal)->AppendRef(RefOf(waves[i])).ok());
    }
    EXPECT_EQ((*journal)->next_seq(), 8u);
    Status failed = (*journal)->Commit();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    // Only the fsync failed: the re-verify of wave 0's tail frame passed.
    EXPECT_EQ(failed.message().find("re-verify"), std::string::npos)
        << failed.message();
    EXPECT_EQ(env.injected(IoFaultKind::kSyncFail), 1u);
    EXPECT_EQ(Slurp(path), after_wave0);
    EXPECT_EQ((*journal)->next_seq(), 4u);
    // The retried wave lands right after wave 0.
    for (uint64_t i = 4; i < 8; ++i) {
      ASSERT_TRUE((*journal)->AppendRef(RefOf(waves[i])).ok());
    }
    ASSERT_TRUE((*journal)->Commit().ok());
    EXPECT_EQ((*journal)->next_seq(), 8u);
  }
  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->warnings.empty());
  ASSERT_EQ(recovered->records.size(), 8u);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(recovered->records[i].seq, i);
    EXPECT_EQ(recovered->records[i].lane, i % 4);
  }
}

// A failed write anywhere in the pending tail discards the whole tail: a
// persistent EIO on lane 2 of 4 also takes lanes 0 and 1 of the same wave.
TEST(JournalFaultTest, PersistentEioMidWaveDiscardsEarlierLanes) {
  std::string path = TempPath("journal_fault_wave_eio.wal");
  std::remove(path.c_str());
  // write#0 is the preamble, writes #1-#4 are wave 0, #5-#8 are wave 1.
  FaultInjectingIoEnv env(
      IoEnv::Default(), IoFaultSchedule::Single(IoOpKind::kWrite, 7,
                                                IoFaultKind::kPersistentEio));
  const std::vector<JournalRecord> waves = TwoWaves();
  std::string after_wave0;
  {
    ScopedIoEnv install(&env);
    auto journal = TrialJournal::Create(path, TestHeader());
    ASSERT_TRUE(journal.ok());
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE((*journal)->AppendRef(RefOf(waves[i])).ok());
    }
    ASSERT_TRUE((*journal)->Commit().ok());
    after_wave0 = Slurp(path);
    ASSERT_TRUE((*journal)->AppendRef(RefOf(waves[4])).ok());
    ASSERT_TRUE((*journal)->AppendRef(RefOf(waves[5])).ok());
    Status failed = (*journal)->AppendRef(RefOf(waves[6]));
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kIoError);
    EXPECT_EQ(Slurp(path), after_wave0);
    EXPECT_EQ((*journal)->next_seq(), 4u);
    // Nothing is pending any more, so a commit has nothing to sync.
    uint64_t syncs = env.ops(IoOpKind::kSync);
    ASSERT_TRUE((*journal)->Commit().ok());
    EXPECT_EQ(env.ops(IoOpKind::kSync), syncs);
    for (uint64_t i = 4; i < 8; ++i) {
      ASSERT_TRUE((*journal)->AppendRef(RefOf(waves[i])).ok());
    }
    ASSERT_TRUE((*journal)->Commit().ok());
  }
  EXPECT_EQ(RecoveredCount(path), 8u);
}

TEST(JournalFaultTest, MapFailureFallsBackToStreamingRecovery) {
  std::string path = TempPath("journal_fault_mapfail.wal");
  std::remove(path.c_str());
  {
    auto journal = TrialJournal::Create(path, TestHeader());
    ASSERT_TRUE(journal.ok());
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE((*journal)->Append(TestRecord(i)).ok());
    }
  }
  IoFaultSchedule schedule;
  schedule.rules.push_back({IoOpKind::kRead, 0, IoFaultKind::kMapFail, 1});
  FaultInjectingIoEnv env(IoEnv::Default(), schedule);
  ScopedIoEnv install(&env);
  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_FALSE(recovered->used_mmap);
  EXPECT_EQ(recovered->records.size(), 4u);
  EXPECT_EQ(env.injected(IoFaultKind::kMapFail), 1u);
}

// A concurrent truncation between mmap() and the post-map size check must
// divert recovery to the streaming reader instead of risking a SIGBUS on
// the mapped pages.
TEST(JournalFaultTest, StatSizeMismatchTripsTruncationGuard) {
  std::string path = TempPath("journal_fault_statrace.wal");
  std::remove(path.c_str());
  {
    auto journal = TrialJournal::Create(path, TestHeader());
    ASSERT_TRUE(journal.ok());
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*journal)->Append(TestRecord(i)).ok());
    }
  }
  {
    IoFaultSchedule schedule;
    schedule.rules.push_back(
        {IoOpKind::kStat, 0, IoFaultKind::kStatShrink, 1});
    FaultInjectingIoEnv env(IoEnv::Default(), schedule);
    ScopedIoEnv install(&env);
    auto recovered = TrialJournal::OpenForResume(path);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    EXPECT_FALSE(recovered->used_mmap);
    EXPECT_EQ(recovered->records.size(), 3u);
  }
  {
    // Under kMmap the guard cannot fall back, so it must surface the race.
    ScopedReplayMode force_mmap(JournalReplayMode::kMmap);
    IoFaultSchedule schedule;
    schedule.rules.push_back(
        {IoOpKind::kStat, 0, IoFaultKind::kStatShrink, 1});
    FaultInjectingIoEnv env(IoEnv::Default(), schedule);
    ScopedIoEnv install(&env);
    auto recovered = TrialJournal::OpenForResume(path);
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), StatusCode::kIoError);
  }
  // Untouched file, honest stat: the mmap path works and agrees.
  auto recovered = TrialJournal::OpenForResume(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->records.size(), 3u);
}

TEST(JournalFaultTest, CreateRemovesStaleDegradedSidecar) {
  std::string path = TempPath("journal_fault_sidecar.wal");
  std::string sidecar = path + kDegradedSidecarSuffix;
  std::remove(path.c_str());
  {
    std::ofstream out(sidecar);
    out << "journal degraded: stale marker from a previous session\n";
  }
  auto journal = TrialJournal::Create(path, TestHeader());
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(IoEnv::Default()->FileSize(sidecar).status().code(),
            StatusCode::kNotFound);
}

// ----- Session-level policy tests -------------------------------------------

struct SessionRun {
  Status status = Status::OK();
  TuningOutcome outcome;
  bool ok() const { return status.ok(); }
};

/// A random-search session whose journal breaks mid-session: serial, or
/// batched at p4 so that each wave is group-committed.
struct SessionFault {
  const char* name;
  size_t parallelism;
  size_t budget;
  IoFaultSchedule schedule;
  uint64_t durable_records;  ///< what recovery finds after a strict abort
};

std::vector<SessionFault> SessionFaults() {
  return {
      // The 3rd trial's append (write#3; write#0 is the preamble) hits a
      // persistent EIO.
      {"serial_eio", 1, 6,
       IoFaultSchedule::Single(IoOpKind::kWrite, 3,
                               IoFaultKind::kPersistentEio),
       2},
      // Budget 13 at p4: the defaults serially, then three waves of four.
      // Wave 1 breaks in its commit fsync (sync#0 is Create's, sync#1 the
      // defaults', sync#2 wave 0's) or on its lane 2 (write#1 is the
      // defaults, writes #2-#5 are wave 0). Either way the defaults and
      // wave 0 stay durable and nothing of wave 1 survives.
      {"wave_commit_fsync", 4, 13,
       IoFaultSchedule::Single(IoOpKind::kSync, 3, IoFaultKind::kSyncFail),
       5},
      {"wave_lane_eio", 4, 13,
       IoFaultSchedule::Single(IoOpKind::kWrite, 8,
                               IoFaultKind::kPersistentEio),
       5},
  };
}

SessionRun RunFaultedSession(const std::string& journal, JournalPolicy policy,
                             const SessionFault& fault) {
  SessionRun run;
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  auto tuner = registry.Create("random-search");
  if (!tuner.ok()) {
    run.status = tuner.status();
    return run;
  }
  (*tuner)->set_parallelism(fault.parallelism);
  auto dbms = testing_util::MakeTestDbms(/*seed=*/11, /*noise=*/true);
  SessionOptions options;
  options.budget = TuningBudget{fault.budget};
  options.seed = 11;
  options.measure_default = false;
  options.journal_path = journal;
  options.journal_policy = policy;
  const Workload workload = MakeDbmsOlapWorkload(1.0);
  auto outcome =
      RunTuningSession(tuner->get(), dbms.get(), workload, options);
  if (!outcome.ok()) {
    run.status = outcome.status();
    return run;
  }
  run.outcome = std::move(*outcome);
  return run;
}

TEST(JournalFaultTest, StrictPolicySessionAbortsWithIoError) {
  for (const SessionFault& fault : SessionFaults()) {
    SCOPED_TRACE(fault.name);
    std::string path =
        TempPath(std::string("journal_fault_strict_") + fault.name + ".wal");
    std::remove(path.c_str());
    FaultInjectingIoEnv env(IoEnv::Default(), fault.schedule);
    SessionRun run;
    {
      ScopedIoEnv install(&env);
      run = RunFaultedSession(path, JournalPolicy::kStrict, fault);
    }
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status.code(), StatusCode::kIoError);
    EXPECT_EQ(env.injected_total(), 1u);
    // Committed trials before the failure are durable and recoverable.
    EXPECT_EQ(RecoveredCount(path), fault.durable_records);
  }
}

TEST(JournalFaultTest, DegradePolicySessionFinishesAndBlocksResume) {
  for (const SessionFault& fault : SessionFaults()) {
    SCOPED_TRACE(fault.name);
    std::string path =
        TempPath(std::string("journal_fault_degrade_") + fault.name + ".wal");
    std::string sidecar = path + kDegradedSidecarSuffix;
    std::remove(path.c_str());
    std::remove(sidecar.c_str());

    // Baseline: the same session with no journal at all.
    SessionRun baseline = RunFaultedSession("", JournalPolicy::kStrict, fault);
    ASSERT_TRUE(baseline.ok()) << baseline.status.message();
    ASSERT_EQ(baseline.outcome.history.size(), fault.budget);

    FaultInjectingIoEnv env(IoEnv::Default(), fault.schedule);
    SessionRun degraded;
    {
      ScopedIoEnv install(&env);
      degraded = RunFaultedSession(path, JournalPolicy::kDegrade, fault);
    }
    ASSERT_TRUE(degraded.ok()) << degraded.status.message();
    EXPECT_EQ(env.injected_total(), 1u);
    EXPECT_TRUE(degraded.outcome.journal_degraded);
    EXPECT_TRUE(IoEnv::Default()->FileSize(sidecar).ok());

    // Degrading must not change what the tuner computed: the outcome
    // matches the un-journaled session bit for bit.
    const TuningOutcome& got = degraded.outcome;
    const TuningOutcome& want = baseline.outcome;
    ASSERT_EQ(got.history.size(), want.history.size());
    for (size_t i = 0; i < want.history.size(); ++i) {
      EXPECT_TRUE(got.history[i].config == want.history[i].config);
      EXPECT_EQ(got.history[i].objective, want.history[i].objective);
    }
    EXPECT_TRUE(got.best_config == want.best_config);
    EXPECT_EQ(got.best_objective, want.best_objective);
    EXPECT_EQ(got.evaluations_used, want.evaluations_used);

    // The sidecar blocks resume: the journal is an incomplete record.
    TunerRegistry registry;
    RegisterBuiltinTuners(&registry);
    auto tuner = registry.Create("random-search");
    ASSERT_TRUE(tuner.ok());
    (*tuner)->set_parallelism(fault.parallelism);
    auto dbms = testing_util::MakeTestDbms(/*seed=*/11, /*noise=*/true);
    SessionOptions options;
    options.budget = TuningBudget{fault.budget};
    options.seed = 11;
    options.measure_default = false;
    options.journal_path = path;
    auto resumed = ResumeTuningSession(tuner->get(), dbms.get(),
                                       MakeDbmsOlapWorkload(1.0), options);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
    std::remove(sidecar.c_str());
  }
}

}  // namespace
}  // namespace atune
