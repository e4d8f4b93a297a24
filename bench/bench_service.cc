// E19 — the atuned tuning service under hostile conditions (DESIGN.md §13):
// the robustness contract of the daemon proven three ways, 1k+ simulated
// tenants in a full run.
//
//   * transport-fault matrix: every tenant's client runs over a
//     FaultInjectingTransport with a 15% mixed fault schedule (EINTR storms,
//     short reads/writes, stalled peers, mid-frame disconnects). Zero
//     session fatals tolerated: every session must end kDone with the full
//     trial count — the framing detects every torn frame, idempotent
//     session ids make every retry safe, and the client heals over
//     reconnects.
//   * kill → restart → resume identity: a forked daemon process is
//     SIGKILLed at several points mid-fleet, restarted over the same
//     journal directory, and every session must finish with the checksum
//     AND journal bytes of an uninterrupted reference run — restart
//     recovery is replay, not approximation.
//   * saturation shedding: a deliberately tiny daemon (2 workers, queue of
//     8) is offered hundreds of tenants at once. The admission verdict
//     (accept or shed) must stay fast — bounded p99 — and every shed client
//     must eventually land via the server's retry_after_ms backoff hints.
//     Load shedding keeps latency bounded; it never loses work.
//
// Results go to console + BENCH_service.json + BENCH_service.csv. Like
// bench_crashsafety, the exit code gates even under ATUNE_SMOKE (with a
// scaled-down fleet): service robustness is a correctness property.

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/csv.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/transport.h"
#include "net/wire.h"

namespace atune {
namespace bench {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepMs(uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::string SlurpOrEmpty(const std::string& path) {
  std::string contents;
  if (!ReadFileToString(path, &contents).ok()) contents.clear();
  return contents;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * (values.size() - 1) + 0.5);
  return values[idx];
}

/// Removes one of the bench's daemon state dirs and everything in it: the
/// sessions' .meta/.wal/.result and the knowledge/*.krs shards the daemon
/// ingests as sessions complete. Each gate clears its dir before it starts
/// as well as after, so no run starts on an earlier run's shards.
void RemoveStateDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// An in-process daemon on its own serve thread (fault + saturation gates).
struct LocalDaemon {
  explicit LocalDaemon(DaemonOptions opts) : daemon(std::move(opts)) {}

  bool Start() {
    if (!daemon.Start().ok()) return false;
    serve = std::thread([this] { (void)daemon.Serve(); });
    return true;
  }

  void Stop() {
    daemon.RequestDrain();
    if (serve.joinable()) serve.join();
  }

  TuningDaemon daemon;
  std::thread serve;
};

/// Pings until the daemon at `address` answers (a forked child needs a
/// moment to bind). Returns false after ~5s of silence.
bool WaitForDaemon(const std::string& address) {
  for (int i = 0; i < 250; ++i) {
    TuningClient::Options opts;
    opts.address = address;
    opts.io_timeout_ms = 2000;
    TuningClient client(std::move(opts));
    if (client.Ping().ok()) return true;
    SleepMs(20);
  }
  return false;
}

// ---- gate 1: transport-fault matrix -----------------------------------------

struct FaultGate {
  size_t tenants = 0;
  size_t fatals = 0;       ///< sessions that did not end kDone
  size_t wrong_trials = 0; ///< kDone but with a truncated history
  uint64_t reconnects = 0; ///< connections the clients had to reopen
  bool pass = false;
};

FaultGate RunFaultGate() {
  FaultGate gate;
  gate.tenants = SmokeSize(1200, 48);
  const size_t kThreads = 16;
  const uint64_t kBudget = 3;

  DaemonOptions opts;
  opts.listen = "unix:bench_service_faults.sock";
  opts.journal_dir = "bench_service_faults.state";
  opts.workers = 4;
  opts.max_queue = 64;
  RemoveStateDir(opts.journal_dir);
  LocalDaemon daemon(opts);
  if (!daemon.Start()) return gate;

  std::vector<size_t> fatals(kThreads, 0), wrong(kThreads, 0);
  std::vector<uint64_t> reconnects(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      TuningClient::Options copts;
      copts.address = opts.listen;
      copts.io_timeout_ms = 10000;
      copts.inject_faults = true;
      copts.faults = NetFaultSchedule::FromRate(0.15, /*seed=*/1000 + t);
      TuningClient client(std::move(copts));
      for (size_t i = t; i < gate.tenants; i += kThreads) {
        StartRequest req;
        req.session_id = StrFormat("fault-%zu", i);
        req.tenant = StrFormat("tenant-%zu", i);
        req.budget = kBudget;
        req.seed = 100 + i;
        auto start = client.RetryStart(req, /*max_attempts=*/64);
        if (!start.ok()) {
          ++fatals[t];
          continue;
        }
        auto done = client.AwaitResult(req.session_id,
                                       /*overall_timeout_ms=*/120000,
                                       /*poll_ms=*/2000);
        if (!done.ok() || done->state != SessionState::kDone) {
          ++fatals[t];
        } else if (done->result.trials != kBudget) {
          ++wrong[t];
        }
      }
      reconnects[t] = client.connects();
    });
  }
  for (auto& th : threads) th.join();
  daemon.Stop();

  for (size_t t = 0; t < kThreads; ++t) {
    gate.fatals += fatals[t];
    gate.wrong_trials += wrong[t];
    gate.reconnects += reconnects[t];
  }
  gate.pass = gate.fatals == 0 && gate.wrong_trials == 0;

  RemoveStateDir(opts.journal_dir);
  return gate;
}

// ---- gate 2: kill -> restart -> resume identity ------------------------------

struct SessionRef {
  StartRequest spec;
  uint64_t checksum = 0;
  std::string journal;  ///< final journal bytes of the uninterrupted run
};

struct KillPoint {
  uint64_t kill_after_ms = 0;
  bool recovered = false;        ///< restart loaded/resumed every session
  bool checksum_match = false;   ///< all checksums == reference
  bool journal_identical = false;
  uint64_t replayed = 0;  ///< trials replayed from interrupted journals
  bool pass = false;
};

std::vector<StartRequest> ResumeSpecs() {
  const uint64_t budget = SmokeSize(1500, 400);
  std::vector<StartRequest> specs;
  for (int i = 0; i < 3; ++i) {
    StartRequest req;
    req.session_id = StrFormat("res-%d", i);
    req.tenant = StrFormat("tenant-%d", i);
    req.budget = budget;
    req.seed = 40 + i;
    // One session tunes under multi-tenant contention so resume identity
    // covers the MultiTenantSystem substrate too.
    if (i == 2) req.contention = 2;
    specs.push_back(req);
  }
  return specs;
}

DaemonOptions ResumeDaemonOptions(const std::string& sock,
                                  const std::string& state) {
  DaemonOptions opts;
  opts.listen = "unix:" + sock;
  opts.journal_dir = state;
  opts.workers = 2;
  opts.max_queue = 16;
  opts.tenant_budget_quota = 1e12;
  return opts;
}

TuningDaemon* g_child_daemon = nullptr;
void ChildTerm(int) {
  if (g_child_daemon != nullptr) g_child_daemon->RequestDrain();
}

/// Forks a daemon process. The child serves until SIGKILL (the crash under
/// test) or SIGTERM (graceful drain).
pid_t ForkDaemon(const DaemonOptions& opts) {
  pid_t pid = ::fork();
  if (pid != 0) return pid;
  TuningDaemon daemon(opts);
  g_child_daemon = &daemon;
  ::signal(SIGTERM, ChildTerm);
  if (!daemon.Start().ok()) ::_exit(1);
  (void)daemon.Serve();
  ::_exit(0);
}

/// Uninterrupted reference: the same specs run to completion in-process.
std::vector<SessionRef> RunResumeReference(
    const std::vector<StartRequest>& specs) {
  std::vector<SessionRef> refs;
  const std::string state = "bench_service_ref.state";
  DaemonOptions opts = ResumeDaemonOptions("bench_service_ref.sock", state);
  RemoveStateDir(state);
  LocalDaemon daemon(opts);
  if (!daemon.Start()) return refs;
  TuningClient::Options copts;
  copts.address = opts.listen;
  TuningClient client(std::move(copts));
  for (const StartRequest& spec : specs) {
    auto start = client.StartSession(spec);
    if (!start.ok() || start->code != AdmitCode::kAccepted) return refs;
  }
  for (const StartRequest& spec : specs) {
    auto done = client.AwaitResult(spec.session_id, 300000, 2000);
    if (!done.ok() || done->state != SessionState::kDone) return refs;
    SessionRef ref;
    ref.spec = spec;
    ref.checksum = done->result.checksum;
    ref.journal = SlurpOrEmpty(state + "/" + spec.session_id + ".wal");
    refs.push_back(ref);
  }
  daemon.Stop();
  RemoveStateDir(state);
  return refs;
}

KillPoint RunKillPoint(uint64_t kill_after_ms,
                       const std::vector<SessionRef>& refs) {
  KillPoint kp;
  kp.kill_after_ms = kill_after_ms;
  const std::string sock = "bench_service_kill.sock";
  const std::string state = "bench_service_kill.state";
  DaemonOptions opts = ResumeDaemonOptions(sock, state);
  RemoveStateDir(state);

  // Phase 1: submit the fleet, then SIGKILL the daemon mid-run.
  pid_t pid = ForkDaemon(opts);
  if (pid < 0) return kp;
  if (!WaitForDaemon(opts.listen)) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return kp;
  }
  {
    TuningClient::Options copts;
    copts.address = opts.listen;
    TuningClient client(std::move(copts));
    for (const SessionRef& ref : refs) {
      auto start = client.StartSession(ref.spec);
      if (!start.ok() || start->code != AdmitCode::kAccepted) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        return kp;
      }
    }
    SleepMs(kill_after_ms);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);

  // Phase 2: restart over the same journal dir; every session must finish
  // bit-identically to the uninterrupted reference.
  pid = ForkDaemon(opts);
  if (pid < 0) return kp;
  if (!WaitForDaemon(opts.listen)) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return kp;
  }
  kp.recovered = true;
  kp.checksum_match = true;
  {
    TuningClient::Options copts;
    copts.address = opts.listen;
    TuningClient client(std::move(copts));
    for (const SessionRef& ref : refs) {
      auto done = client.AwaitResult(ref.spec.session_id, 300000, 2000);
      if (!done.ok() || done->state != SessionState::kDone) {
        kp.recovered = false;
        continue;
      }
      kp.checksum_match =
          kp.checksum_match && done->result.checksum == ref.checksum;
      kp.replayed += done->result.replayed;
    }
  }
  // Graceful SIGTERM drain so journals are quiesced before the byte compare.
  ::kill(pid, SIGTERM);
  ::waitpid(pid, nullptr, 0);

  kp.journal_identical = true;
  for (const SessionRef& ref : refs) {
    std::string resumed = SlurpOrEmpty(state + "/" + ref.spec.session_id +
                                       ".wal");
    kp.journal_identical = kp.journal_identical && resumed == ref.journal;
  }
  kp.pass = kp.recovered && kp.checksum_match && kp.journal_identical;

  RemoveStateDir(state);
  std::remove(sock.c_str());
  return kp;
}

// ---- gate 3: saturation shedding ---------------------------------------------

struct AdmissionGate {
  size_t tenants = 0;
  size_t lost = 0;       ///< sessions never admitted or never finished
  uint64_t sheds = 0;    ///< shed verdicts absorbed by backoff retries
  double p50_ms = 0.0;   ///< per-request admission verdict latency
  double p99_ms = 0.0;
  double max_ms = 0.0;
  bool pass = false;
};

AdmissionGate RunAdmissionGate() {
  AdmissionGate gate;
  gate.tenants = SmokeSize(400, 40);
  const size_t kThreads = 16;
  const double kP99BoundMs = 250.0;

  DaemonOptions opts;
  opts.listen = "unix:bench_service_sat.sock";
  opts.journal_dir = "bench_service_sat.state";
  opts.workers = 2;  // deliberately scarce: shedding is the point
  opts.max_queue = 8;
  opts.retry_after_ms = 25;
  RemoveStateDir(opts.journal_dir);
  LocalDaemon daemon(opts);
  if (!daemon.Start()) return gate;

  std::vector<std::vector<double>> latencies(kThreads);
  std::vector<size_t> lost(kThreads, 0);
  std::vector<uint64_t> sheds(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      TuningClient::Options copts;
      copts.address = opts.listen;
      TuningClient client(std::move(copts));
      for (size_t i = t; i < gate.tenants; i += kThreads) {
        StartRequest req;
        req.session_id = StrFormat("sat-%zu", i);
        req.tenant = StrFormat("tenant-%zu", i);
        req.budget = 2;
        req.seed = 7000 + i;
        // RetryStart's loop, unrolled so each verdict can be timed: every
        // response (accept or shed) must come back fast even at
        // saturation; shed clients sleep the server's hint and retry.
        bool admitted = false;
        uint64_t backoff_ms = 0;
        for (int attempt = 0; attempt < 512 && !admitted; ++attempt) {
          double begin = NowSeconds();
          auto start = client.StartSession(req);
          if (!start.ok()) break;
          latencies[t].push_back((NowSeconds() - begin) * 1e3);
          if (start->code == AdmitCode::kAccepted ||
              start->code == AdmitCode::kAlreadyExists) {
            admitted = true;
            break;
          }
          ++sheds[t];
          uint64_t hint = start->retry_after_ms > 0 ? start->retry_after_ms
                                                    : opts.retry_after_ms;
          backoff_ms = backoff_ms == 0
                           ? hint
                           : std::min<uint64_t>(backoff_ms * 2, 2000);
          SleepMs(backoff_ms);
        }
        if (!admitted) ++lost[t];
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every admitted session must also finish: shedding loses no work.
  {
    TuningClient::Options copts;
    copts.address = opts.listen;
    TuningClient client(std::move(copts));
    for (size_t i = 0; i < gate.tenants; ++i) {
      auto done = client.AwaitResult(StrFormat("sat-%zu", i), 300000, 2000);
      if (!done.ok() || done->state != SessionState::kDone) ++gate.lost;
    }
  }
  daemon.Stop();

  std::vector<double> all;
  for (size_t t = 0; t < kThreads; ++t) {
    gate.lost += lost[t];
    gate.sheds += sheds[t];
    all.insert(all.end(), latencies[t].begin(), latencies[t].end());
  }
  gate.p50_ms = Percentile(all, 0.50);
  gate.p99_ms = Percentile(all, 0.99);
  gate.max_ms = all.empty() ? 0.0 : *std::max_element(all.begin(), all.end());
  gate.pass = gate.lost == 0 && gate.p99_ms <= kP99BoundMs && gate.sheds > 0;

  RemoveStateDir(opts.journal_dir);
  return gate;
}

}  // namespace
}  // namespace bench
}  // namespace atune

int main() {
  using namespace atune;
  using namespace atune::bench;

  PrintHeader("E19: bench_service",
              "atuned robustness gates (DESIGN.md §13)",
              "zero session fatals over a 15% transport-fault schedule; "
              "SIGKILL -> restart -> bit-identical resume; bounded p99 "
              "admission verdicts under saturation with no lost work.");
  IgnoreSigPipe();
  SetLogLevel(LogLevel::kError);

  // Gate 1: transport-fault matrix.
  FaultGate faults = RunFaultGate();
  std::printf("\ntransport-fault matrix (%zu tenants, 15%% fault rate):\n",
              faults.tenants);
  std::printf("  fatals %zu, truncated %zu, client reconnects %llu  %s\n",
              faults.fatals, faults.wrong_trials,
              static_cast<unsigned long long>(faults.reconnects),
              faults.pass ? "PASS" : "FAIL");

  // Gate 2: kill -> restart -> resume identity.
  std::vector<StartRequest> specs = ResumeSpecs();
  std::vector<SessionRef> refs = RunResumeReference(specs);
  std::vector<KillPoint> kills;
  bool resume_pass = refs.size() == specs.size();
  if (!resume_pass) {
    std::printf("\nFAIL: could not establish uninterrupted reference\n");
  } else {
    std::vector<uint64_t> delays =
        SmokeMode() ? std::vector<uint64_t>{80}
                    : std::vector<uint64_t>{60, 180, 350};
    std::printf("\nkill -> restart -> resume (%zu sessions x %zu kill "
                "points, budget %llu):\n",
                specs.size(), delays.size(),
                static_cast<unsigned long long>(specs[0].budget));
    for (uint64_t delay : delays) {
      KillPoint kp = RunKillPoint(delay, refs);
      std::printf("  kill@%3llums: recovered=%d checksum=%d journal=%d "
                  "replayed=%llu  %s\n",
                  static_cast<unsigned long long>(kp.kill_after_ms),
                  kp.recovered, kp.checksum_match, kp.journal_identical,
                  static_cast<unsigned long long>(kp.replayed),
                  kp.pass ? "PASS" : "FAIL");
      resume_pass = resume_pass && kp.pass;
      kills.push_back(kp);
    }
  }

  // Gate 3: saturation shedding.
  AdmissionGate admission = RunAdmissionGate();
  std::printf("\nsaturation shedding (%zu tenants onto 2 workers/queue 8):\n",
              admission.tenants);
  std::printf("  verdict latency p50 %.2fms p99 %.2fms max %.2fms, "
              "sheds %llu, lost %zu  %s\n",
              admission.p50_ms, admission.p99_ms, admission.max_ms,
              static_cast<unsigned long long>(admission.sheds),
              admission.lost, admission.pass ? "PASS" : "FAIL");

  bool pass = faults.pass && resume_pass && admission.pass;
  std::printf("\nacceptance: faults %s, resume %s, admission %s\n",
              faults.pass ? "PASS" : "FAIL", resume_pass ? "PASS" : "FAIL",
              admission.pass ? "PASS" : "FAIL");

  std::ostringstream json;
  json << "{\n  \"experiment\": \"bench_service\",\n";
  json << StrFormat(
      "  \"faults\": {\"tenants\": %zu, \"fatals\": %zu, \"truncated\": %zu, "
      "\"reconnects\": %llu, \"pass\": %s},\n",
      faults.tenants, faults.fatals, faults.wrong_trials,
      static_cast<unsigned long long>(faults.reconnects),
      faults.pass ? "true" : "false");
  json << "  \"resume\": [\n";
  for (size_t i = 0; i < kills.size(); ++i) {
    const KillPoint& kp = kills[i];
    json << StrFormat(
        "    {\"kill_after_ms\": %llu, \"recovered\": %s, "
        "\"checksum_match\": %s, \"journal_identical\": %s, "
        "\"replayed\": %llu, \"pass\": %s}%s\n",
        static_cast<unsigned long long>(kp.kill_after_ms),
        kp.recovered ? "true" : "false", kp.checksum_match ? "true" : "false",
        kp.journal_identical ? "true" : "false",
        static_cast<unsigned long long>(kp.replayed),
        kp.pass ? "true" : "false", i + 1 < kills.size() ? "," : "");
  }
  json << "  ],\n";
  json << StrFormat(
      "  \"admission\": {\"tenants\": %zu, \"lost\": %zu, \"sheds\": %llu, "
      "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"max_ms\": %.3f, \"pass\": %s},\n",
      admission.tenants, admission.lost,
      static_cast<unsigned long long>(admission.sheds), admission.p50_ms,
      admission.p99_ms, admission.max_ms, admission.pass ? "true" : "false");
  json << StrFormat(
      "  \"pass\": {\"faults\": %s, \"resume\": %s, \"admission\": %s}\n}\n",
      faults.pass ? "true" : "false", resume_pass ? "true" : "false",
      admission.pass ? "true" : "false");
  if (AtomicWriteFile("BENCH_service.json", json.str()).ok()) {
    std::printf("wrote BENCH_service.json\n");
  }

  TableWriter csv({"gate", "metric", "value"});
  csv.AddRow({"faults", "tenants", StrFormat("%zu", faults.tenants)});
  csv.AddRow({"faults", "fatals", StrFormat("%zu", faults.fatals)});
  csv.AddRow({"faults", "reconnects",
              StrFormat("%llu",
                        static_cast<unsigned long long>(faults.reconnects))});
  for (const KillPoint& kp : kills) {
    csv.AddRow(
        {"resume",
         StrFormat("kill_%llums_pass",
                   static_cast<unsigned long long>(kp.kill_after_ms)),
         kp.pass ? "1" : "0"});
  }
  csv.AddRow({"admission", "p50_ms", StrFormat("%.3f", admission.p50_ms)});
  csv.AddRow({"admission", "p99_ms", StrFormat("%.3f", admission.p99_ms)});
  csv.AddRow({"admission", "sheds",
              StrFormat("%llu",
                        static_cast<unsigned long long>(admission.sheds))});
  if (csv.WriteCsvFile("BENCH_service.csv").ok()) {
    std::printf("wrote BENCH_service.csv\n");
  }

  // Service robustness gates smoke runs too (crashsafety precedent).
  return pass ? 0 : 1;
}
