#include "net/reactor.h"

#include <gtest/gtest.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "core/knowledge_repo.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/transport.h"
#include "net/wire.h"

namespace atune {
namespace {

const bool kSigPipeIgnored = [] {
  IgnoreSigPipe();
  return true;
}();

// ---- reactor unit tests ------------------------------------------------------

TEST(ReactorUnitTest, PostRunsOnLoopAndTimersFireInOrder) {
  Reactor r;
  ASSERT_TRUE(r.ok());
  std::thread loop([&] { r.Run(); });

  std::atomic<int> posted{0};
  std::vector<int> order;  // only touched on the loop thread
  r.Post([&] {
    posted = 1;
    uint64_t now = Reactor::NowMs();
    r.AddTimer(now + 30, [&] { order.push_back(2); });
    r.AddTimer(now + 10, [&] { order.push_back(1); });
    uint64_t cancelled = r.AddTimer(now + 20, [&] { order.push_back(99); });
    r.CancelTimer(cancelled);
    r.AddTimer(now + 60, [&] { r.Stop(); });
  });
  loop.join();

  EXPECT_EQ(posted, 1);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ReactorUnitTest, StopIsIdempotentAndPostAfterRunStillDrains) {
  Reactor r;
  ASSERT_TRUE(r.ok());
  r.Stop();
  r.Stop();
  r.Run();  // must return immediately
  EXPECT_TRUE(r.stopped());
}

// ---- daemon loopback tests ---------------------------------------------------

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/atuneXXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    StopDaemon();
    std::string cmd = "rm -rf " + dir_;
    (void)::system(cmd.c_str());
  }

  /// Starts a daemon on a fresh unix socket under the test dir. `state`
  /// names the journal dir (reused across daemons for recovery tests).
  void StartDaemon(DaemonOptions opts = DaemonOptions(),
                   const std::string& state = "state") {
    static int counter = 0;
    address_ = "unix:" + dir_ + "/s" + std::to_string(++counter) + ".sock";
    opts.listen = address_;
    opts.journal_dir = dir_ + "/" + state;
    daemon_ = std::make_unique<TuningDaemon>(opts);
    ASSERT_TRUE(daemon_->Start().ok()) << address_;
    serve_ = std::thread([this] { (void)daemon_->Serve(); });
  }

  void StopDaemon() {
    if (daemon_ != nullptr) daemon_->RequestDrain();
    if (serve_.joinable()) serve_.join();
    daemon_.reset();
  }

  TuningClient MakeClient() {
    TuningClient::Options copts;
    copts.address = address_;
    copts.io_timeout_ms = 10000;
    return TuningClient(std::move(copts));
  }

  /// Options admitting sessions whose budget exceeds the default tenant
  /// quota (the deadline/cancel/drain tests run deliberately huge budgets).
  static DaemonOptions BigBudgetOptions() {
    DaemonOptions opts;
    opts.tenant_budget_quota = 1e12;
    return opts;
  }

  static StartRequest QuickSession(const std::string& id, uint64_t budget = 8,
                                   uint64_t seed = 3) {
    StartRequest req;
    req.session_id = id;
    req.tenant = "test";
    req.tuner = "random-search";
    req.system = "dbms";
    req.budget = budget;
    req.seed = seed;
    return req;
  }

  std::string dir_;
  std::string address_;
  std::unique_ptr<TuningDaemon> daemon_;
  std::thread serve_;
};

TEST_F(DaemonTest, PingAndStats) {
  StartDaemon();
  TuningClient client = MakeClient();
  ASSERT_TRUE(client.Ping().ok());
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->admitted, 0u);
  EXPECT_EQ(stats->active, 0u);
}

TEST_F(DaemonTest, SessionRoundTripAndIdempotentResubmit) {
  StartDaemon();
  TuningClient client = MakeClient();

  StartRequest req = QuickSession("rt1");
  auto start = client.StartSession(req);
  ASSERT_TRUE(start.ok()) << start.status().ToString();
  EXPECT_EQ(start->code, AdmitCode::kAccepted);

  auto done = client.AwaitResult("rt1", /*overall_timeout_ms=*/30000,
                                 /*poll_ms=*/500);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_EQ(done->state, SessionState::kDone);
  EXPECT_EQ(done->result.trials, req.budget);
  EXPECT_NE(done->result.checksum, 0u);
  EXPECT_GT(done->result.best_objective, 0.0);

  // Re-submitting the same id must reattach, never double-start.
  auto again = client.StartSession(req);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->code, AdmitCode::kAlreadyExists);
  EXPECT_EQ(again->state, SessionState::kDone);

  // A second client sees the identical durable result.
  TuningClient other = MakeClient();
  auto attach = other.Attach("rt1", /*wait_ms=*/0);
  ASSERT_TRUE(attach.ok());
  EXPECT_EQ(attach->state, SessionState::kDone);
  EXPECT_EQ(attach->result.checksum, done->result.checksum);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->admitted, 1u);
  EXPECT_EQ(stats->completed, 1u);
  EXPECT_EQ(stats->reattached, 1u);
}

TEST_F(DaemonTest, ContentionSessionsUseTheMultiTenantSubstrate) {
  StartDaemon();
  TuningClient client = MakeClient();
  StartRequest req = QuickSession("mt1", /*budget=*/6);
  req.contention = 2;
  auto start = client.StartSession(req);
  ASSERT_TRUE(start.ok()) << start.status().ToString();
  ASSERT_EQ(start->code, AdmitCode::kAccepted);
  auto done = client.AwaitResult("mt1", 30000, 500);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, SessionState::kDone);
  EXPECT_EQ(done->result.trials, req.budget);
}

TEST_F(DaemonTest, MalformedRequestsGetErrorsNotSessions) {
  StartDaemon();
  TuningClient client = MakeClient();

  StartRequest bad = QuickSession("has/slash");
  auto start = client.StartSession(bad);
  EXPECT_FALSE(start.ok());  // ErrorResp surfaces as a Status

  StartRequest bad_tuner = QuickSession("bt1");
  bad_tuner.tuner = "no-such-tuner";
  // Admission validates the tuner up front: an ErrorResp, not a session
  // that is doomed to fail after consuming a worker.
  EXPECT_FALSE(client.StartSession(bad_tuner).ok());

  auto unknown = client.Attach("never-started", 0);
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->state, SessionState::kUnknown);

  auto cancel = client.Cancel("never-started");
  ASSERT_TRUE(cancel.ok());
  EXPECT_FALSE(cancel->found);
}

TEST_F(DaemonTest, NonFiniteOrNonPositiveScaleIsRefusedAtAdmission) {
  StartDaemon();
  TuningClient client = MakeClient();
  const double scales[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 0.0,
                           -1.0};
  for (size_t i = 0; i < std::size(scales); ++i) {
    StartRequest req = QuickSession("scale" + std::to_string(i));
    req.scale = scales[i];
    auto start = client.StartSession(req);
    ASSERT_FALSE(start.ok()) << "scale " << scales[i];
    EXPECT_EQ(start.status().code(), StatusCode::kInvalidArgument)
        << "scale " << scales[i];
  }
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->admitted, 0u);
}

TEST_F(DaemonTest, ContentionOverTheCapIsRefusedAndNothingIsAdmitted) {
  StartDaemon();
  TuningClient client = MakeClient();
  // One over the cap: a broken check builds 65 tenants, not billions.
  StartRequest req = QuickSession("crowd1", /*budget=*/2);
  req.contention = kMaxContention + 1;
  auto start = client.StartSession(req);
  ASSERT_FALSE(start.ok());
  EXPECT_EQ(start.status().code(), StatusCode::kInvalidArgument);
  auto attach = client.Attach("crowd1", 0);
  ASSERT_TRUE(attach.ok());
  EXPECT_EQ(attach->state, SessionState::kUnknown);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->admitted, 0u);
}

TEST_F(DaemonTest, DeadlineExceededCancelsCleanly) {
  StartDaemon(BigBudgetOptions());
  TuningClient client = MakeClient();
  StartRequest req = QuickSession("dl1", /*budget=*/2000000);
  req.deadline_ms = 60;
  auto start = client.StartSession(req);
  ASSERT_TRUE(start.ok());
  ASSERT_EQ(start->code, AdmitCode::kAccepted);
  auto done = client.AwaitResult("dl1", 30000, 200);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, SessionState::kDeadlineExceeded);
  // The cancel landed at an evaluation boundary with the checkpoint
  // journaled: every committed trial is on disk, available for resume.
  struct stat st;
  std::string wal = dir_ + "/state/dl1.wal";
  ASSERT_EQ(::stat(wal.c_str(), &st), 0) << wal;
  EXPECT_GT(st.st_size, 0);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->deadline_exceeded, 1u);
}

TEST_F(DaemonTest, ClientCancelStopsARunningSession) {
  StartDaemon(BigBudgetOptions());
  TuningClient client = MakeClient();
  auto start = client.StartSession(QuickSession("cx1", 2000000));
  ASSERT_TRUE(start.ok());
  ASSERT_EQ(start->code, AdmitCode::kAccepted);
  auto cancel = client.Cancel("cx1");
  ASSERT_TRUE(cancel.ok());
  EXPECT_TRUE(cancel->found);
  auto done = client.AwaitResult("cx1", 30000, 200);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, SessionState::kCancelled);
}

TEST_F(DaemonTest, QueueFullShedsWithRetryAfter) {
  DaemonOptions opts;
  opts.workers = 1;
  opts.max_queue = 1;
  opts.tenant_budget_quota = 1e12;  // quota out of the picture
  StartDaemon(opts);
  TuningClient client = MakeClient();

  ASSERT_TRUE(client.StartSession(QuickSession("q1", 2000000)).ok());
  ASSERT_TRUE(client.StartSession(QuickSession("q2", 2000000)).ok());
  auto shed = client.StartSession(QuickSession("q3", 2000000));
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->code, AdmitCode::kShedQueueFull);
  EXPECT_GT(shed->retry_after_ms, 0u);

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->shed_queue_full, 1u);
  EXPECT_EQ(stats->active + stats->queued, 2u);
}

TEST_F(DaemonTest, TenantQuotaShedsTheNoisyTenantOnly) {
  DaemonOptions opts;
  opts.workers = 1;
  opts.max_queue = 8;
  opts.tenant_budget_quota = 50.0;
  StartDaemon(opts);
  TuningClient client = MakeClient();

  StartRequest a = QuickSession("t1", /*budget=*/40);
  a.tenant = "noisy";
  ASSERT_TRUE(client.StartSession(a).ok());

  StartRequest b = QuickSession("t2", /*budget=*/40);
  b.tenant = "noisy";
  auto shed = client.StartSession(b);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->code, AdmitCode::kShedTenantQuota);
  EXPECT_GT(shed->retry_after_ms, 0u);

  StartRequest c = QuickSession("t3", /*budget=*/40);
  c.tenant = "polite";
  auto admitted = client.StartSession(c);
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted->code, AdmitCode::kAccepted);

  // Once the noisy tenant's session finishes, its quota frees up and the
  // shed submit succeeds via the client's RetryStart loop.
  auto retried = client.RetryStart(b, /*max_attempts=*/64);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried->code, AdmitCode::kAccepted);
}

TEST_F(DaemonTest, DrainShedsNewWorkAndInterruptsRunningSessions) {
  StartDaemon(BigBudgetOptions());
  TuningClient client = MakeClient();
  auto start = client.StartSession(QuickSession("dr1", 2000000));
  ASSERT_TRUE(start.ok());
  ASSERT_EQ(start->code, AdmitCode::kAccepted);
  daemon_->RequestDrain();
  serve_.join();
  daemon_.reset();
  // The daemon exited: the long session must have checkpointed, not run to
  // completion (budget 2M would take minutes).
  SUCCEED();
}

TEST_F(DaemonTest, RestartRecoveryResumesBitIdentically) {
  // Reference: the same spec run to completion with no interruption.
  StartRequest spec = QuickSession("rec1", /*budget=*/300, /*seed=*/9);
  uint64_t ref_checksum = 0;
  double ref_best = 0.0;
  {
    StartDaemon(BigBudgetOptions(), "ref-state");
    TuningClient client = MakeClient();
    auto start = client.StartSession(spec);
    ASSERT_TRUE(start.ok());
    ASSERT_EQ(start->code, AdmitCode::kAccepted);
    auto done = client.AwaitResult("rec1", 60000, 200);
    ASSERT_TRUE(done.ok());
    ASSERT_EQ(done->state, SessionState::kDone);
    ref_checksum = done->result.checksum;
    ref_best = done->result.best_objective;
    StopDaemon();
  }
  ASSERT_NE(ref_checksum, 0u);

  // Interrupted run: drain lands mid-session (300 fsynced trials take far
  // longer than the immediate drain), so the daemon exits with the session
  // kInterrupted and a partial journal on disk.
  {
    StartDaemon(BigBudgetOptions(), "live-state");
    TuningClient client = MakeClient();
    auto start = client.StartSession(spec);
    ASSERT_TRUE(start.ok());
    ASSERT_EQ(start->code, AdmitCode::kAccepted);
    StopDaemon();
  }

  // Restart over the same journal dir: recovery re-queues the interrupted
  // session, replays its journal, and finishes with the identical outcome.
  {
    StartDaemon(BigBudgetOptions(), "live-state");
    TuningClient client = MakeClient();
    auto done = client.AwaitResult("rec1", 60000, 200);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    ASSERT_EQ(done->state, SessionState::kDone);
    EXPECT_EQ(done->result.checksum, ref_checksum);
    EXPECT_EQ(done->result.best_objective, ref_best);  // bit-exact
    EXPECT_EQ(done->result.trials, spec.budget);

    auto stats = client.Stats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->recovered, 1u);
    StopDaemon();
  }
}

TEST_F(DaemonTest, CrashLoopingSessionIsQuarantinedAfterMaxResumeAttempts) {
  // Each cycle runs one daemon lifetime over the shared journal dir inside
  // a forked child and ends it with _exit — a hard crash: no drain, no
  // destructors, no durable result. The first cycle admits a session whose
  // budget (2M trials) guarantees it can never finish before the crash;
  // every later cycle just restarts, which makes Recover() re-queue the
  // session and durably bump its resume-attempt counter before dying again.
  const std::string state = "crash-state";
  auto crash_cycle = [&](int cycle, bool submit) {
    pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      DaemonOptions opts;
      opts.listen =
          "unix:" + dir_ + "/crash" + std::to_string(cycle) + ".sock";
      opts.journal_dir = dir_ + "/" + state;
      opts.tenant_budget_quota = 1e12;
      TuningDaemon daemon(opts);
      if (!daemon.Start().ok()) ::_exit(2);  // Recover() has run by now
      if (submit) {
        std::thread serve([&daemon] { (void)daemon.Serve(); });
        serve.detach();
        TuningClient::Options copts;
        copts.address = opts.listen;
        copts.io_timeout_ms = 10000;
        TuningClient client(std::move(copts));
        // Meta is durable before the client hears "accepted", so the
        // crash below cannot lose the admission.
        auto start = client.StartSession(QuickSession("loop1", 2000000));
        if (!start.ok() || start->code != AdmitCode::kAccepted) ::_exit(3);
      }
      ::_exit(0);  // the crash
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus)) << wstatus;
    ASSERT_EQ(WEXITSTATUS(wstatus), 0);
  };

  crash_cycle(0, /*submit=*/true);   // admitted, resume_attempts=0
  crash_cycle(1, /*submit=*/false);  // recovery bumps to 1, crashes
  crash_cycle(2, /*submit=*/false);  // -> 2
  crash_cycle(3, /*submit=*/false);  // -> 3 == max_resume_attempts

  // The surviving daemon quarantines the crash-looper at startup instead of
  // re-queueing it a fourth time: terminal kFailed/kInternal with a durable
  // result, and the daemon itself stays up for everyone else.
  StartDaemon(BigBudgetOptions(), state);
  TuningClient client = MakeClient();
  auto attach = client.Attach("loop1", /*wait_ms=*/0);
  ASSERT_TRUE(attach.ok());
  EXPECT_EQ(attach->state, SessionState::kFailed);
  EXPECT_EQ(attach->result.status_code,
            static_cast<uint8_t>(StatusCode::kInternal));
  EXPECT_NE(attach->result.message.find("quarantined"), std::string::npos)
      << attach->result.message;
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->quarantined, 1u);
  EXPECT_EQ(stats->recovered, 0u);

  // Still serving: a fresh session on the same daemon runs to completion.
  ASSERT_TRUE(client.StartSession(QuickSession("after-q", 8)).ok());
  auto done = client.AwaitResult("after-q", 30000, 200);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, SessionState::kDone);
  StopDaemon();

  // The quarantine verdict is durable: another restart loads it as a
  // terminal result (no re-run, no second quarantine count).
  StartDaemon(BigBudgetOptions(), state);
  TuningClient again = MakeClient();
  auto reattach = again.Attach("loop1", 0);
  ASSERT_TRUE(reattach.ok());
  EXPECT_EQ(reattach->state, SessionState::kFailed);
  auto stats2 = again.Stats();
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats2->quarantined, 0u);
}

TEST_F(DaemonTest, RecoveryRefusesSidecarsThatAdmissionWouldRefuse) {
  // Two hand-edited .meta sidecars: one over the contention cap, one whose
  // budget does not parse (it reads as 0). Recovery must hold them to the
  // admission checks: terminal kFailed/kInvalidArgument with a durable
  // .result, never queued, run, journaled or ingested.
  const std::string state = dir_ + "/state";
  ASSERT_EQ(::mkdir(state.c_str(), 0777), 0);
  auto meta = [](const std::string& budget, const std::string& contention) {
    return "tenant=test\ntuner=random-search\nsystem=dbms\nworkload=\n"
           "scale_bits=0x3ff0000000000000\nbudget=" + budget +
           "\nseed=3\ndeadline_ms=0\ncontention=" + contention +
           "\nwarm_start=0\nresume_attempts=0\n";
  };
  ASSERT_TRUE(AtomicWriteFile(state + "/over-cap.meta", meta("4", "65")).ok());
  ASSERT_TRUE(
      AtomicWriteFile(state + "/zero-budget.meta", meta("abc", "0")).ok());

  StartDaemon();
  TuningClient client = MakeClient();
  for (const char* id : {"over-cap", "zero-budget"}) {
    auto attach = client.Attach(id, /*wait_ms=*/0);
    ASSERT_TRUE(attach.ok()) << id;
    EXPECT_EQ(attach->state, SessionState::kFailed) << id;
    EXPECT_EQ(attach->result.status_code,
              static_cast<uint8_t>(StatusCode::kInvalidArgument))
        << id;
    struct stat st;
    EXPECT_EQ(::stat((state + "/" + id + ".result").c_str(), &st), 0) << id;
  }

  // Still serving: a valid session submitted next runs to completion.
  ASSERT_TRUE(client.StartSession(QuickSession("valid", 8)).ok());
  auto done = client.AwaitResult("valid", 30000, 200);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, SessionState::kDone);
  for (const char* id : {"over-cap", "zero-budget"}) {
    struct stat st;
    EXPECT_NE(::stat((state + "/" + id + ".wal").c_str(), &st), 0) << id;
  }
  KnowledgeRepository repo(state + "/knowledge");
  EXPECT_EQ(repo.ListShards(),
            std::vector<std::string>{repo.ShardName("valid")});
}

TEST_F(DaemonTest, FaultyTransportClientStillCompletesSessions) {
  StartDaemon();
  TuningClient::Options copts;
  copts.address = address_;
  copts.io_timeout_ms = 10000;
  copts.inject_faults = true;
  copts.faults = NetFaultSchedule::FromRate(0.15, /*seed=*/77);
  TuningClient client(std::move(copts));

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Ping().ok()) << "ping " << i;
  }
  auto start = client.RetryStart(QuickSession("f1", 10));
  ASSERT_TRUE(start.ok()) << start.status().ToString();
  auto done = client.AwaitResult("f1", 30000, 200);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done->state, SessionState::kDone);
  // The schedule injected faults and the client healed over them.
  EXPECT_GE(client.connects(), 1u);
}

TEST_F(DaemonTest, LongPollAttachReturnsWhenTheSessionFinishes) {
  StartDaemon();
  TuningClient client = MakeClient();
  ASSERT_TRUE(client.StartSession(QuickSession("lp1", /*budget=*/60)).ok());
  // One long-poll attach should ride out the whole session (no re-poll):
  // the daemon parks the waiter and answers on completion.
  auto done = client.Attach("lp1", /*wait_ms=*/30000);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, SessionState::kDone);
}

}  // namespace
}  // namespace atune
