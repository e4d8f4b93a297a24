// The served probe: an in-process TuningDaemon (2 workers, one reactor) fed
// open loop by one generator thread over one unix-socket connection.
// Sessions are random-search at budget 10 over 16 tenants; one in four sets
// warm_start, so admissions list the knowledge repository while completions
// write shards. Each phase gets a fresh daemon: the `light` and `heavy` fixed
// rates, then a rate ladder. It runs inside batch-durable's traced run and
// reports the `net` layer: its latencies swing too much between runs on a
// shared machine to gate as a workload of their own. See README.md for how
// the rates were fixed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/io_env.h"
#include "common/string_util.h"
#include "core/knowledge_repo.h"
#include "core/outcome_checksum.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/wire.h"
#include "probes.h"
#include "sessions.h"

namespace perfbench {
namespace {

using atune::StrFormat;

constexpr size_t kTenants = 16;
constexpr size_t kSpecPool = 48;
constexpr uint64_t kBudget = 10;
constexpr size_t kWorkers = 2;
constexpr size_t kCollectors = 4;
/// Verdict p99 limit of a passing ladder step.
constexpr double kVerdictLimitMs = 10.0;
/// Queue-depth growth (sessions) that marks a step as over capacity.
constexpr double kBacklogGrowth = 10.0;
/// Latency charged to a shed or lost request: the client gives up.
constexpr double kMissMs = 60000.0;
/// FoldChecksum over the twins' checksums, in spec order, at kDefaultSeed.
constexpr uint64_t kServedGolden = 0x0b7e144faf97aee5;

/// Offered loads in sessions per second, fixed at about 25% and 75% of the
/// sustainable rate measured at calibration (README.md).
constexpr double kLightRate = 70.0;
constexpr double kHeavyRate = 210.0;
/// Ladder: up to kLadderSteps geometric steps from kLadderStart by
/// kLadderRatio.
constexpr double kLadderStart = 180.0;
constexpr double kLadderRatio = 1.06;
constexpr int kLadderSteps = 40;
/// Phase lengths as fractions of --seconds.
constexpr double kLightShare = 0.1;
constexpr double kHeavyShare = 0.15;
constexpr double kStepShare = 0.1;

/// The served specs and their in-process twins (reference checksums and
/// default objectives). Candidates whose twin ends without a usable
/// recommendation (every trial of the budget failed) are skipped, so that
/// no served session is expected to fail.
std::vector<LocalSpec> MakeServedSpecs(uint64_t seed,
                                       std::vector<SessionRun>* twins) {
  struct Template {
    const char* system;
    const char* workload;
  };
  // A fixed mix, so the work per session does not depend on the seed.
  const Template mix[] = {
      {"dbms", "olap"},          {"mapreduce", "terasort"},
      {"spark", "sql_aggregate"}, {"dbms", "oltp"},
      {"mapreduce", "wordcount"}, {"spark", "sql_join"},
      {"dbms", "mixed"},         {"mapreduce", "grep"},
  };
  std::vector<LocalSpec> specs;
  for (size_t i = 0; specs.size() < kSpecPool && i < 10 * kSpecPool; ++i) {
    LocalSpec spec;
    spec.tuner = "random-search";
    spec.system = mix[specs.size() % std::size(mix)].system;
    spec.workload = mix[specs.size() % std::size(mix)].workload;
    // The daemon seeds both the system and the session with the request's
    // seed; the in-process twin must do the same.
    spec.system_seed = spec.session_seed = DeriveSeed(seed, 5000 + i);
    spec.budget = kBudget;
    SessionRun twin = RunSession(spec, "", false, true, Instruments{});
    if (!twin.ok) continue;
    specs.push_back(spec);
    twins->push_back(twin);
  }
  return specs;
}

atune::StartRequest MakeRequest(const std::string& id, size_t tenant,
                                const LocalSpec& spec, bool warm) {
  atune::StartRequest req;
  req.session_id = id;
  req.tenant = StrFormat("tenant-%02zu", tenant);
  req.tuner = spec.tuner;
  req.system = spec.system;
  req.workload = spec.workload;
  req.budget = spec.budget;
  req.seed = spec.session_seed;
  req.warm_start = warm;
  return req;
}

std::chrono::steady_clock::time_point AtS(double s) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(s)));
}

struct Request {
  size_t spec = 0;
  bool warm = false;
  std::string id;
  double due = 0.0;
  double sent = 0.0;
  double verdict = 0.0;
  bool answered = false;  ///< the start exchange completed
  atune::AdmitCode code = atune::AdmitCode::kAccepted;
  bool resolved = false;  ///< a collector saw a terminal state
  double terminal = 0.0;
  atune::AttachResponse final;

  bool admitted() const {
    return answered && code == atune::AdmitCode::kAccepted;
  }
  double VerdictMs() const {
    return admitted() ? (verdict - due) * 1e3 : kMissMs;
  }
  double SessionS() const {
    return admitted() && resolved ? terminal - due : kMissMs * 1e-3;
  }
};

struct Phase {
  std::string name;
  double rate = 0.0;
  double setup_s = 0.0;
  std::vector<Request> requests;
  std::vector<double> attach_ms;
  std::vector<std::pair<double, uint64_t>> queued;  ///< (time, depth)
  atune::StatsResponse stats;
  size_t shards = 0;
  double first_due = 0.0;
  double last_due = 0.0;

  std::vector<double> VerdictMs() const {
    std::vector<double> v;
    for (const Request& r : requests) v.push_back(r.VerdictMs());
    return v;
  }
  size_t Sheds() const {
    size_t n = 0;
    for (const Request& r : requests) n += r.answered && !r.admitted();
    return n;
  }
  /// The backlog grows when the mean queue depth over the last quarter of
  /// the send window exceeds that of the first quarter by more than
  /// kBacklogGrowth sessions. A disk stall queues a few sessions for a few
  /// tens of milliseconds and does not qualify; a rate a few percent over
  /// capacity does.
  bool BacklogGrows() const {
    double span = last_due - first_due;
    double first = 0, last = 0;
    size_t n_first = 0, n_last = 0;
    for (const auto& [t, depth] : queued) {
      if (t >= first_due && t < first_due + span / 4) {
        first += depth;
        ++n_first;
      } else if (t > last_due - span / 4 && t <= last_due) {
        last += depth;
        ++n_last;
      }
    }
    if (n_first == 0 || n_last == 0) return false;
    return last / n_last - first / n_first > kBacklogGrowth;
  }
  uint64_t QueuedMax() const {
    uint64_t max = 0;
    for (const auto& sample : queued) max = std::max(max, sample.second);
    return max;
  }
  bool Sustained() const {
    return Sheds() == 0 && Quantile(VerdictMs(), 0.99) <= kVerdictLimitMs &&
           !BacklogGrows();
  }
};

/// Ids handed from the generator to the collector threads.
class WorkQueue {
 public:
  void Push(size_t i) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(i);
    }
    cv_.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  /// False once closed and drained.
  bool Pop(size_t* i) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    *i = items_.front();
    items_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::deque<size_t> items_;  // guarded by mu_
  bool closed_ = false;       // guarded by mu_
  std::condition_variable cv_;
};

atune::TuningClient::Options ClientOptions(const std::string& address) {
  atune::TuningClient::Options opts;
  opts.address = address;
  return opts;
}

/// One phase: a fresh daemon, warmed up with one session per tenant, then
/// `seconds` of open-loop load at `rate`, then every admitted session
/// awaited.
Phase RunPhase(const std::string& name, double rate, double seconds,
               const std::vector<LocalSpec>& specs, const Args& args,
               Result* result) {
  Phase phase;
  phase.name = name;
  phase.rate = rate;
  const std::string dir = args.scratch + "/" + name;
  atune::DaemonOptions opts;
  opts.listen = "unix:" + dir + ".sock";
  opts.journal_dir = dir;
  opts.workers = kWorkers;

  double t0 = NowS();
  atune::TuningDaemon daemon(opts);
  atune::Status started = daemon.Start();
  if (!started.ok()) {
    result->Fail(name + ": daemon start: " + started.ToString());
    return phase;
  }
  std::thread serve([&daemon] { (void)daemon.Serve(); });
  atune::TuningClient client(ClientOptions(opts.listen));
  for (size_t t = 0; t < kTenants; ++t) {
    std::string id = StrFormat("%s-warmup-%02zu", name.c_str(), t);
    auto start = client.RetryStart(MakeRequest(id, t, specs[t], false));
    auto done = client.AwaitResult(id, 60000, 1000);
    if (!start.ok() || !done.ok() ||
        done->state != atune::SessionState::kDone) {
      result->Fail(name + ": warm-up session " + id + " did not finish");
    }
  }
  phase.setup_s = NowS() - t0;

  size_t n = static_cast<size_t>(rate * seconds + 0.5);
  phase.requests.resize(n);
  WorkQueue work;
  std::vector<std::thread> collectors;
  for (size_t c = 0; c < kCollectors; ++c) {
    collectors.emplace_back([&] {
      atune::TuningClient collector(ClientOptions(opts.listen));
      size_t i = 0;
      while (work.Pop(&i)) {
        Request& r = phase.requests[i];
        auto done = collector.AwaitResult(
            r.id, static_cast<uint64_t>(kMissMs), 1000);
        if (done.ok() && atune::SessionStateTerminal(done->state)) {
          r.terminal = NowS();
          r.resolved = true;
          r.final = *done;
        }
      }
    });
  }
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    atune::TuningClient stats(ClientOptions(opts.listen));
    while (sampling.load()) {
      auto s = stats.Stats();
      if (s.ok()) phase.queued.push_back({NowS(), s->queued});
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  // The generator: request k is due at start + k / rate, whenever the
  // previous exchange finished.
  double start = NowS() + 0.02;
  phase.first_due = start;
  phase.last_due = start + (n > 0 ? (n - 1) / rate : 0.0);
  for (size_t k = 0; k < n; ++k) {
    Request& r = phase.requests[k];
    r.spec = k % specs.size();
    r.warm = k % 4 == 3;
    r.id = StrFormat("%s-%05zu", name.c_str(), k);
    r.due = start + k / rate;
    std::this_thread::sleep_until(AtS(r.due));
    r.sent = NowS();
    auto resp =
        client.StartSession(MakeRequest(r.id, k % kTenants, specs[r.spec],
                                        r.warm));
    r.verdict = NowS();
    if (resp.ok()) {
      r.answered = true;
      r.code = resp->code;
    }
    if (r.admitted()) work.Push(k);
  }
  work.Close();
  for (std::thread& c : collectors) c.join();
  sampling.store(false);
  sampler.join();

  for (Request& r : phase.requests) {
    if (!r.admitted()) continue;
    double a = NowS();
    auto again = client.Attach(r.id, 0);
    phase.attach_ms.push_back((NowS() - a) * 1e3);
    if (!again.ok() || again->state != r.final.state ||
        again->result.checksum != r.final.result.checksum) {
      result->Fail(name + ": " + r.id + " reads back differently");
    }
  }
  auto stats = client.Stats();
  if (stats.ok()) phase.stats = *stats;
  phase.shards =
      atune::KnowledgeRepository(dir + "/knowledge").ListShards().size();
  daemon.RequestDrain();
  serve.join();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::remove(dir + ".sock", ec);
  return phase;
}

/// Every request must get a verdict. Every admitted session must finish
/// kDone with the full budget, and a non-warm one with its in-process twin's
/// checksum. A shed is a latency miss, not a failure.
void CheckPhase(const Phase& phase, const std::vector<SessionRun>& twins,
                Result* result) {
  for (const Request& r : phase.requests) {
    if (!r.answered) {
      result->Fail(r.id + ": start exchange failed");
      result->Attempt(false);
      continue;
    }
    if (!r.admitted()) {
      result->Attempt(true);
      continue;
    }
    bool ok = r.resolved && r.final.state == atune::SessionState::kDone &&
              r.final.result.trials == kBudget &&
              (r.warm || r.final.result.checksum == twins[r.spec].checksum);
    if (!ok) {
      result->Fail(StrFormat(
          "%s: state %s, %llu trials, checksum %016llx (twin %016llx)",
          r.id.c_str(), atune::SessionStateToString(r.final.state),
          static_cast<unsigned long long>(r.final.result.trials),
          static_cast<unsigned long long>(r.final.result.checksum),
          static_cast<unsigned long long>(twins[r.spec].checksum)));
    }
    result->Attempt(ok);
  }
}

void Report(const Phase& p) {
  std::vector<double> v = p.VerdictMs();
  std::fprintf(stderr,
               "  %-8s %7.1f/s %5zu sent %4zu shed  verdict p50 %7.3f ms "
               "p99 %8.3f ms  queued max %3llu%s  %s\n",
               p.name.c_str(), p.rate, p.requests.size(), p.Sheds(),
               Quantile(v, 0.5), Quantile(v, 0.99),
               static_cast<unsigned long long>(p.QueuedMax()),
               p.BacklogGrows() ? " (growing)" : "",
               p.Sustained() ? "sustained" : "NOT sustained");
}

}  // namespace

void RunServedProbe(const Args& args, Result* result) {
  std::vector<SessionRun> twins;
  std::vector<LocalSpec> specs = MakeServedSpecs(args.seed, &twins);
  if (specs.size() < kSpecPool) result->Fail("too few servable specs");
  uint64_t folded = atune::kFnvOffsetBasis;
  for (const SessionRun& twin : twins) {
    folded = FoldChecksum(folded, twin.checksum);
  }
  CheckGolden("served", kServedGolden, folded, args, result);

  CountingIoEnv io(atune::IoEnv::Default());
  atune::ScopedIoEnv io_install(&io);
  std::vector<Phase> phases;
  phases.push_back(RunPhase("light", kLightRate, kLightShare * args.seconds,
                            specs, args, result));
  phases.push_back(RunPhase("heavy", kHeavyRate, kHeavyShare * args.seconds,
                            specs, args, result));
  // The highest step that passes. A disk stall can fail a step below
  // capacity, so the ladder climbs until the backlog grows (or sheds) on two
  // steps in a row.
  double max_rate = 0.0;
  int overloaded_in_row = 0;
  for (int step = 0; step < kLadderSteps && overloaded_in_row < 2; ++step) {
    double rate = kLadderStart * std::pow(kLadderRatio, step);
    phases.push_back(RunPhase(StrFormat("step%.0f", rate), rate,
                              kStepShare * args.seconds, specs, args, result));
    const Phase& p = phases.back();
    if (p.Sustained()) max_rate = rate;
    bool overloaded = p.Sheds() > 0 || p.BacklogGrows();
    overloaded_in_row = overloaded ? overloaded_in_row + 1 : 0;
  }
  IoCounts daemon_io = io.Snapshot();
  std::fprintf(stderr, "served phases (verdict timed from the due time):\n");
  for (const Phase& p : phases) {
    Report(p);
    CheckPhase(p, twins, result);
  }
  const Phase& light = phases[0];
  const Phase& heavy = phases[1];

  std::vector<double> setups, start_call_ms, lag_ms, attach_ms;
  for (const Phase& p : phases) setups.push_back(p.setup_s);
  for (const Phase* p : {&light, &heavy}) {
    for (const Request& r : p->requests) {
      lag_ms.push_back((r.sent - r.due) * 1e3);
      if (r.answered) start_call_ms.push_back((r.verdict - r.sent) * 1e3);
    }
    attach_ms.insert(attach_ms.end(), p->attach_ms.begin(),
                     p->attach_ms.end());
  }
  std::vector<double> session_ms;
  for (const Request& r : light.requests) {
    session_ms.push_back(r.SessionS() * 1e3);
  }
  std::vector<double> result_ms;
  double last_terminal = heavy.first_due;
  size_t heavy_trials = 0;
  for (const Request& r : heavy.requests) {
    if (!r.admitted() || !r.resolved) continue;
    result_ms.push_back((r.terminal - r.verdict) * 1e3);
    last_terminal = std::max(last_terminal, r.terminal);
    heavy_trials += r.final.result.trials;
  }
  uint64_t admitted = 0, shed_queue = 0, shed_quota = 0, completed = 0;
  uint64_t queued_max = 0;
  for (const Phase& p : phases) {
    admitted += p.stats.admitted;
    shed_queue += p.stats.shed_queue_full;
    shed_quota += p.stats.shed_tenant_quota;
    completed += p.stats.completed;
    queued_max = std::max(queued_max, p.QueuedMax());
  }

  result->Add("net.setup_s", Median(setups));
  result->Add("net.verdict_ms_p50.light", Quantile(light.VerdictMs(), 0.5));
  result->Add("net.verdict_ms_p99.light", Quantile(light.VerdictMs(), 0.99));
  result->Add("net.verdict_ms_p50.heavy", Quantile(heavy.VerdictMs(), 0.5));
  result->Add("net.verdict_ms_p99.heavy", Quantile(heavy.VerdictMs(), 0.99));
  result->Add("net.session_ms_p50.light", Median(session_ms));
  result->Add("net.session_ms_tail.light", TailOf(session_ms).value);
  result->Add("net.result_ms_p50.heavy", Median(result_ms));
  result->Add("net.trials_per_s.heavy",
              last_terminal > heavy.first_due
                  ? heavy_trials / (last_terminal - heavy.first_due)
                  : 0.0);
  result->Add("net.max_rate_per_s", max_rate);
  result->Add("net.start_call_ms.p50", Quantile(start_call_ms, 0.5));
  result->Add("net.start_call_ms.p99", Quantile(start_call_ms, 0.99));
  result->Add("net.attach_call_ms.p50", Median(attach_ms));
  result->Add("net.admitted", admitted);
  result->Add("net.shed_queue_full", shed_queue);
  result->Add("net.shed_tenant_quota", shed_quota);
  result->Add("net.completed", completed);
  result->Add("net.queued_max", queued_max);
  result->Add("net.fsyncs_per_session",
              completed > 0 ? static_cast<double>(daemon_io.fsyncs +
                                                  daemon_io.dir_syncs) /
                                  completed
                            : 0.0);
  result->Add("net.fsync_s",
              (daemon_io.fsync_ns + daemon_io.dir_sync_ns) * 1e-9);
  result->Add("core.knowledge.shards", heavy.shards);
  result->Add("bench.generator_lag_ms_p99", Quantile(lag_ms, 0.99));
}

}  // namespace perfbench
