// atune — command-line driver for the tuning framework.
//
//   atune --system=dbms --workload=olap --tuner=ituned --budget=30
//   atune --system=mapreduce --workload=terasort --tuner=starfish
//   atune --system=spark --workload=iterative_ml --tuner=ottertune --csv
//   atune --list
//
// Flags:
//   --system=dbms|mapreduce|spark   platform to tune         [dbms]
//   --workload=<name>               see --list                [per system]
//   --tuner=<name>                  see --list                [ituned]
//   --budget=N                      experiment budget         [30]
//   --seed=N                        session seed              [1]
//   --nodes=N                       cluster size              [1 dbms / 4 other]
//   --scale=F                       workload scale factor     [1.0]
//   --parallelism=N                 experiments per round     [1]
//       batch-aware tuners (random/grid/recursive-random/ituned) run N
//       experiments concurrently per wall-clock round; budget unchanged
//   --fault-rate=F                  inject faults at rate F   [0]
//       wraps the system in FaultInjectingSystem (FaultProfile::FromRate):
//       transient failures at F, stragglers/metric dropout at F/2, hangs
//       at F/5 — exercise the Evaluator's measurement-robustness policy
//   --timeout-seconds=F             watchdog kill threshold   [0 = off]
//   --max-retries=N                 transient-failure retries [2]
//   --drift=SPEC                    time-varying workload     [off]
//       wraps the system in DriftingWorkload; SPEC is ramp|shift|diurnal
//       with optional key=value params, e.g. --drift=shift:at=25,factor=1.8
//       or --drift=diurnal:amplitude=0.5,period=32 (DESIGN.md §15). The
//       schedule is a pure function of the run index, so --resume stays
//       bit-identical and it composes with --fault-rate
//   --adaptive                      drift-adaptive tune-serve-adapt loop
//       wraps --tuner in AdaptiveRetuneTuner: initial tune under a budget
//       lease, then serve the incumbent while a Page–Hinkley detector
//       watches for drift; on detection, staged degradation (surrogate
//       eviction + re-probe, then bounded full re-tune). Composes under
//       --supervise
//   --supervise                     wrap the tuner in the supervision layer
//       proposal sanitization, duplicate-livelock substitution, the
//       crash-region circuit breaker, and numerical-failure failover to
//       --fallback-tuner (see DESIGN.md §10)
//   --fallback-tuner=<name>         failover tuner under --supervise
//       any registry tuner; default is the built-in LHS random fallback
//   --journal=PATH                  write-ahead trial journal [off]
//       every committed trial is fsynced to PATH before the tuner sees it;
//       SIGINT/SIGTERM (and crashes) leave a resumable checkpoint
//   --journal-policy=strict|degrade journal I/O failure policy [strict]
//       strict aborts the session with a clean I/O error (exit 3); degrade
//       continues un-journaled with a warning and refuses later --resume
//   --resume                        resume from --journal=PATH
//       replays the journaled trials deterministically, then continues
//       live; the finished outcome is bit-identical to an uninterrupted run
//   --trace=PATH (or --trace PATH)  Chrome trace_event JSON to PATH
//       spans for every session/round/trial/measure/repair/commit plus the
//       GP and acquisition hot paths; load in chrome://tracing or Perfetto.
//       A --resume session writes a structurally identical span tree.
//   --trace-summary                 per-span-name aggregate table on stdout
//   --metrics                       session metrics table on stdout
//   --csv                           machine-readable trial log on stdout
//   --list                          print available tuners and workloads
//
// Service mode (talk to a running atuned instead of tuning in-process):
//   --connect=ADDR                  unix:<path> or tcp:<host>:<port>
//       submits the session to the daemon and waits for the result. The
//       connection retries with bounded exponential backoff (the shared
//       IoRetryPolicy bounds), and the session id is the idempotency key:
//       a reconnect (or a rerun with the same --session-id) reattaches to
//       the in-flight session, it never double-starts it.
//   --session-id=ID                 idempotent session id [auto: cli-<pid>-<seed>]
//   --tenant=NAME                   tenant for admission quotas [default]
//   --deadline-ms=N                 server-side session deadline [0 = none]
//   --contention=K                  K background tenants share the system [0]
//   --wait-ms=N                     max wait for the result [0 = forever]
//
// Exit codes:
//   0    success (tuned, or server session done)
//   1    tuning failed (local session)
//   2    usage error (bad flags, unknown tuner/workload — local or server)
//   3    journal I/O failure under --journal-policy=strict (local session)
//   4    service unreachable: connect/exchange retries exhausted, or the
//        daemon shed the session and retries ran out (--connect mode)
//   5    server-side session failed (--connect mode)
//   6    deadline exceeded: the server-side session hit --deadline-ms, or
//        --wait-ms elapsed first (--connect mode)
//   130  interrupted/cancelled; progress is checkpointed and resumable

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "common/csv.h"
#include "common/string_util.h"
#include "core/registry.h"
#include "core/session.h"
#include "core/supervisor.h"
#include "net/client.h"
#include "net/transport.h"
#include "net/wire.h"
#include "systems/drifting_workload.h"
#include "systems/fault_injector.h"
#include "systems/system_factory.h"
#include "tuners/adaptive_retune.h"
#include "tuners/builtin.h"

namespace atune {
namespace {

/// Set by the SIGINT/SIGTERM handler; the Evaluator polls it before every
/// evaluation and aborts cleanly (the journal already holds every committed
/// trial, so a later --resume continues where we stopped).
volatile std::sig_atomic_t g_signal = 0;

void HandleSignal(int sig) { g_signal = sig; }

struct CliOptions {
  std::string system = "dbms";
  std::string workload;
  std::string tuner = "ituned";
  size_t budget = 30;
  uint64_t seed = 1;
  size_t nodes = 0;  // 0 = per-system default
  double scale = 1.0;
  size_t parallelism = 1;
  double fault_rate = 0.0;
  double timeout_seconds = 0.0;
  size_t max_retries = 2;
  bool supervise = false;
  std::string drift;
  bool adaptive = false;
  std::string fallback_tuner;
  std::string journal;
  JournalPolicy journal_policy = JournalPolicy::kStrict;
  bool resume = false;
  bool csv = false;
  bool list = false;
  std::string trace_path;
  bool trace_summary = false;
  bool metrics = false;
  // --connect (service) mode
  std::string connect;
  std::string session_id;
  std::string tenant = "default";
  uint64_t deadline_ms = 0;
  uint64_t contention = 0;
  uint64_t wait_ms = 0;
  bool warm_start = false;
};

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (!StartsWith(arg, prefix)) return false;
  *out = arg.substr(prefix.size());
  return true;
}

/// A numeric flag whose value ParseNumber refuses: a usage error (exit 2).
Status BadNumber(const std::string& arg) {
  return Status::InvalidArgument("not a valid number: " + arg);
}

Result<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--list") {
      options.list = true;
    } else if (ParseFlag(arg, "system", &value)) {
      options.system = value;
    } else if (ParseFlag(arg, "workload", &value)) {
      options.workload = value;
    } else if (ParseFlag(arg, "tuner", &value)) {
      options.tuner = value;
    } else if (ParseFlag(arg, "budget", &value)) {
      if (!ParseNumber(value, &options.budget)) return BadNumber(arg);
    } else if (ParseFlag(arg, "seed", &value)) {
      if (!ParseNumber(value, &options.seed)) return BadNumber(arg);
    } else if (ParseFlag(arg, "nodes", &value)) {
      if (!ParseNumber(value, &options.nodes)) return BadNumber(arg);
    } else if (ParseFlag(arg, "scale", &value)) {
      if (!ParseNumber(value, &options.scale)) return BadNumber(arg);
    } else if (ParseFlag(arg, "parallelism", &value)) {
      if (!ParseNumber(value, &options.parallelism)) return BadNumber(arg);
      if (options.parallelism == 0) options.parallelism = 1;
    } else if (ParseFlag(arg, "fault-rate", &value)) {
      if (!ParseNumber(value, &options.fault_rate)) return BadNumber(arg);
      if (!(options.fault_rate >= 0.0 && options.fault_rate <= 1.0)) {
        return Status::InvalidArgument("--fault-rate must be in [0, 1]");
      }
    } else if (ParseFlag(arg, "timeout-seconds", &value)) {
      if (!ParseNumber(value, &options.timeout_seconds)) return BadNumber(arg);
    } else if (ParseFlag(arg, "max-retries", &value)) {
      if (!ParseNumber(value, &options.max_retries)) return BadNumber(arg);
    } else if (ParseFlag(arg, "drift", &value)) {
      options.drift = value;
    } else if (arg == "--adaptive") {
      options.adaptive = true;
    } else if (arg == "--supervise") {
      options.supervise = true;
    } else if (ParseFlag(arg, "fallback-tuner", &value)) {
      options.fallback_tuner = value;
    } else if (ParseFlag(arg, "journal-policy", &value)) {
      if (value == "strict") {
        options.journal_policy = JournalPolicy::kStrict;
      } else if (value == "degrade") {
        options.journal_policy = JournalPolicy::kDegrade;
      } else {
        return Status::InvalidArgument(
            "--journal-policy must be 'strict' or 'degrade'");
      }
    } else if (ParseFlag(arg, "journal", &value)) {
      options.journal = value;
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (ParseFlag(arg, "trace", &value)) {
      options.trace_path = value;
    } else if (arg == "--trace") {
      // Two-argument form: --trace out.json
      if (i + 1 >= argc) {
        return Status::InvalidArgument("--trace requires a path");
      }
      options.trace_path = argv[++i];
    } else if (arg == "--trace-summary") {
      options.trace_summary = true;
    } else if (arg == "--metrics") {
      options.metrics = true;
    } else if (ParseFlag(arg, "connect", &value)) {
      options.connect = value;
    } else if (ParseFlag(arg, "session-id", &value)) {
      options.session_id = value;
    } else if (ParseFlag(arg, "tenant", &value)) {
      options.tenant = value;
    } else if (ParseFlag(arg, "deadline-ms", &value)) {
      if (!ParseNumber(value, &options.deadline_ms)) return BadNumber(arg);
    } else if (ParseFlag(arg, "contention", &value)) {
      if (!ParseNumber(value, &options.contention)) return BadNumber(arg);
    } else if (ParseFlag(arg, "wait-ms", &value)) {
      if (!ParseNumber(value, &options.wait_ms)) return BadNumber(arg);
    } else if (arg == "--warm-start") {
      options.warm_start = true;
    } else {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
  }
  if (options.resume && options.journal.empty()) {
    return Status::InvalidArgument("--resume requires --journal=PATH");
  }
  if (!options.fallback_tuner.empty() && !options.supervise) {
    return Status::InvalidArgument("--fallback-tuner requires --supervise");
  }
  if (!options.drift.empty()) {
    auto parsed = DriftSchedule::Parse(options.drift);
    if (!parsed.ok()) return parsed.status();
  }
  if (options.connect.empty() &&
      (!options.session_id.empty() || options.deadline_ms > 0 ||
       options.contention > 0 || options.wait_ms > 0 || options.warm_start)) {
    return Status::InvalidArgument(
        "--session-id/--deadline-ms/--contention/--wait-ms/--warm-start "
        "require --connect");
  }
  return options;
}

/// Service mode: submit the session to a running atuned and wait for the
/// terminal result. See the exit-code table at the top of this file.
int RunConnect(const CliOptions& options) {
  TuningClient::Options client_options;
  client_options.address = options.connect;
  TuningClient client(client_options);

  StartRequest request;
  // Auto ids are stable within one invocation, so this process's own
  // reconnect retries reattach rather than double-start; pass an explicit
  // --session-id to make retries idempotent across invocations too.
  request.session_id =
      options.session_id.empty()
          ? StrFormat("cli-%d-%llu", static_cast<int>(::getpid()),
                      static_cast<unsigned long long>(options.seed))
          : options.session_id;
  request.tenant = options.tenant;
  request.tuner = options.tuner;
  request.system = options.system;
  request.workload = options.workload;
  request.scale = options.scale;
  request.budget = options.budget;
  request.seed = options.seed;
  request.deadline_ms = options.deadline_ms;
  request.contention = options.contention;
  request.warm_start = options.warm_start;

  auto start = client.RetryStart(request);
  if (!start.ok()) {
    std::fprintf(stderr, "atune: %s\n", start.status().ToString().c_str());
    return start.status().code() == StatusCode::kInvalidArgument ? 2 : 4;
  }
  switch (start->code) {
    case AdmitCode::kAccepted:
      std::fprintf(stderr, "session %s admitted\n",
                   request.session_id.c_str());
      break;
    case AdmitCode::kAlreadyExists:
      std::fprintf(stderr, "session %s already in flight (%s); reattached\n",
                   request.session_id.c_str(),
                   SessionStateToString(start->state));
      break;
    default:
      std::fprintf(stderr, "atune: session shed by daemon: %s\n",
                   AdmitCodeToString(start->code));
      return 4;
  }

  auto attach = client.AwaitResult(request.session_id, options.wait_ms);
  if (!attach.ok()) {
    std::fprintf(stderr, "atune: %s\n", attach.status().ToString().c_str());
    return 4;
  }
  const SessionResult& result = attach->result;
  switch (attach->state) {
    case SessionState::kDone:
      std::printf("session:   %s (daemon %s)\n", request.session_id.c_str(),
                  options.connect.c_str());
      std::printf("tuner:     %s on %s/%s\n", request.tuner.c_str(),
                  request.system.c_str(),
                  request.workload.empty() ? "(default)"
                                           : request.workload.c_str());
      std::printf("best:      %.4f\n", result.best_objective);
      std::printf("trials:    %llu (%llu replayed from journal)\n",
                  static_cast<unsigned long long>(result.trials),
                  static_cast<unsigned long long>(result.replayed));
      std::printf("checksum:  %016llx\n",
                  static_cast<unsigned long long>(result.checksum));
      return 0;
    case SessionState::kFailed:
      std::fprintf(stderr, "atune: session failed on the daemon: %s: %s\n",
                   StatusCodeToString(
                       static_cast<StatusCode>(result.status_code)),
                   result.message.c_str());
      return 5;
    case SessionState::kDeadlineExceeded:
      std::fprintf(stderr,
                   "atune: session deadline exceeded; checkpoint journaled "
                   "on the daemon\n");
      return 6;
    case SessionState::kCancelled:
    case SessionState::kInterrupted:
      std::fprintf(stderr,
                   "atune: session %s; checkpoint journaled on the daemon\n",
                   SessionStateToString(attach->state));
      return 130;
    case SessionState::kUnknown:
      std::fprintf(stderr, "atune: daemon does not know session %s\n",
                   request.session_id.c_str());
      return 5;
    default:
      // Non-terminal: --wait-ms elapsed before the session finished.
      std::fprintf(stderr,
                   "atune: timed out after %llu ms (session is %s; rerun "
                   "with the same --session-id to reattach)\n",
                   static_cast<unsigned long long>(options.wait_ms),
                   SessionStateToString(attach->state));
      return 6;
  }
}

int RunCli(const CliOptions& options) {
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);

  if (options.list) {
    std::printf("tuners:\n");
    for (const std::string& name : registry.Names()) {
      auto tuner = registry.Create(name);
      std::printf("  %-18s (%s)\n", name.c_str(),
                  TunerCategoryToString((*tuner)->category()));
    }
    for (const char* system : {"dbms", "mapreduce", "spark"}) {
      std::printf("workloads for --system=%s:\n", system);
      for (const auto& [name, workload] : WorkloadsForSystem(system, 1.0)) {
        (void)workload;
        std::printf("  %s\n", name.c_str());
      }
    }
    return 0;
  }

  if (!options.connect.empty()) return RunConnect(options);

  auto resolved = WorkloadByName(options.system, options.workload,
                                 options.scale);
  if (!resolved.ok()) {
    std::fprintf(stderr, "%s (try --list)\n",
                 resolved.status().ToString().c_str());
    return 2;
  }
  Workload workload = *resolved;
  auto created = registry.Create(options.tuner);
  if (!created.ok()) {
    std::fprintf(stderr, "%s (try --list)\n",
                 created.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<Tuner> tuner = std::move(*created);
  if (options.adaptive) {
    auto adaptive = MakeAdaptiveRetuneTuner(registry, options.tuner);
    if (!adaptive.ok()) {
      std::fprintf(stderr, "%s (try --list)\n",
                   adaptive.status().ToString().c_str());
      return 2;
    }
    tuner = std::move(*adaptive);
  }
  if (options.supervise) {
    std::unique_ptr<Tuner> fallback;
    if (!options.fallback_tuner.empty()) {
      auto fb = registry.Create(options.fallback_tuner);
      if (!fb.ok()) {
        std::fprintf(stderr, "%s (try --list)\n",
                     fb.status().ToString().c_str());
        return 2;
      }
      fallback = std::move(*fb);
    }
    tuner = MakeSupervisedTuner(std::move(tuner), std::move(fallback));
  }
  auto made = MakeSystemByName(options.system, options.nodes, options.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "%s (try --list)\n", made.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<TunableSystem> system = std::move(*made);
  TunableSystem* target = system.get();
  std::unique_ptr<DriftingWorkload> drifting;
  if (!options.drift.empty()) {
    // Validated by ParseArgs; faults (below) inject on top of the drifted
    // workload, matching a real cluster where both happen at once.
    drifting = std::make_unique<DriftingWorkload>(
        target, *DriftSchedule::Parse(options.drift));
    target = drifting.get();
  }
  std::unique_ptr<FaultInjectingSystem> faulty;
  if (options.fault_rate > 0.0) {
    faulty = std::make_unique<FaultInjectingSystem>(
        target,
        FaultProfile::FromRate(options.fault_rate, options.seed ^ 0xFA17));
    target = faulty.get();
  }
  tuner->set_parallelism(options.parallelism);

  SessionOptions session;
  session.budget.max_evaluations = options.budget;
  session.seed = options.seed;
  session.robustness.max_retries = options.max_retries;
  session.robustness.timeout_seconds = options.timeout_seconds;
  session.journal_path = options.journal;
  session.journal_policy = options.journal_policy;
  if (!options.journal.empty()) {
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    session.interrupt_check = []() { return g_signal != 0; };
  }
  Tracer tracer;
  MetricsRegistry metrics;
  if (!options.trace_path.empty() || options.trace_summary) {
    session.tracer = &tracer;
  }
  if (options.metrics) session.metrics = &metrics;
  auto outcome =
      options.resume
          ? ResumeTuningSession(tuner.get(), target, workload, session)
          : RunTuningSession(tuner.get(), target, workload, session);
  // Write the trace before interpreting the outcome: an interrupted or
  // failed session still leaves a loadable (partial) profile behind.
  if (!options.trace_path.empty()) {
    Status written = tracer.WriteChromeTrace(options.trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   written.ToString().c_str());
    }
  }
  if (!outcome.ok()) {
    if (outcome.status().code() == StatusCode::kAborted) {
      // Interrupted, not failed: the journal holds a resumable checkpoint.
      std::fprintf(stderr,
                   "interrupted: progress checkpointed at %s "
                   "(rerun with --resume to continue)\n",
                   options.journal.c_str());
      return 130;
    }
    if (outcome.status().code() == StatusCode::kIoError) {
      // The filesystem failed beneath the journal (strict policy): the
      // session stopped cleanly with every committed trial durable. Distinct
      // exit code so operators can tell it from a tuning failure.
      std::fprintf(stderr,
                   "journal I/O failure (strict policy): %s; committed "
                   "trials are durable in %s — fix the filesystem and rerun "
                   "with --resume, or rerun with --journal-policy=degrade\n",
                   outcome.status().message().c_str(),
                   options.journal.c_str());
      return 3;
    }
    // Never emit a partial result table — one clean line, non-zero exit.
    std::fprintf(stderr, "tuning failed: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }

  if (options.csv) {
    TableWriter table({"trial", "cost", "objective", "failed", "config"});
    for (size_t i = 0; i < outcome->history.size(); ++i) {
      const Trial& t = outcome->history[i];
      table.AddRow({StrFormat("%zu", i + 1), StrFormat("%.3f", t.cost),
                    StrFormat("%.3f", t.objective),
                    t.result.failed ? "1" : "0", t.config.ToString()});
    }
    table.WriteCsv(std::cout);
    return 0;
  }

  std::printf("system:    %s (%s)\n", options.system.c_str(),
              system->name().c_str());
  std::printf("workload:  %s\n", workload.name.c_str());
  std::printf("tuner:     %s [%s]%s%s\n", options.tuner.c_str(),
              TunerCategoryToString(outcome->category),
              options.adaptive ? " (adaptive-retune)" : "",
              options.supervise ? " (supervised)" : "");
  if (!options.drift.empty()) {
    std::printf("drift:     %s\n",
                DriftSchedule::Parse(options.drift)->ToString().c_str());
  }
  std::printf("default:   %.2f s\n", outcome->default_objective);
  std::printf("best:      %.2f s  (%.2fx speedup, %.1f/%zu budget used, "
              "%zu failed runs)\n",
              outcome->best_objective, outcome->speedup_over_default,
              outcome->evaluations_used, options.budget,
              outcome->failed_runs);
  if (options.fault_rate > 0.0 || options.timeout_seconds > 0.0 ||
      outcome->retried_runs + outcome->timed_out_runs +
          outcome->remeasured_runs + outcome->censored_runs > 0) {
    std::printf("robust:    %zu retried, %zu timed out, %zu re-measured, "
                "%zu censored\n",
                outcome->retried_runs, outcome->timed_out_runs,
                outcome->remeasured_runs, outcome->censored_runs);
  }
  if (outcome->replayed_records > 0) {
    std::printf("resumed:   %zu trials replayed from %s\n",
                outcome->replayed_records, options.journal.c_str());
  }
  if (outcome->journal_degraded) {
    std::printf("degraded:  journal I/O failed mid-session; tuning continued "
                "un-journaled and %s cannot be resumed\n",
                options.journal.c_str());
  }
  for (const std::string& warning : outcome->recovery_warnings) {
    std::printf("recovery:  %s\n", warning.c_str());
  }
  std::printf("config:    %s\n", outcome->best_config.ToString().c_str());
  std::printf("report:    %s\n", outcome->tuner_report.c_str());
  if (!options.trace_path.empty()) {
    std::printf("trace:     %zu spans written to %s\n", tracer.span_count(),
                options.trace_path.c_str());
  }
  if (options.trace_summary) {
    std::printf("\nspan summary:\n%s", tracer.SummaryTable().c_str());
  }
  if (options.metrics) {
    std::printf("\nmetrics:\n%s", outcome->metrics.SummaryTable().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace atune

int main(int argc, char** argv) {
  // Broken pipes (closed stdout, dead daemon connection) surface as EPIPE
  // through the Status path instead of killing the process.
  atune::IgnoreSigPipe();
  auto options = atune::ParseArgs(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 2;
  }
  return atune::RunCli(*options);
}
