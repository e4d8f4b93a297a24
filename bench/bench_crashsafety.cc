// E18 — crash safety on a hostile filesystem: the durability contract of
// DESIGN.md §12, proven three ways.
//
//   * crash-point sweep: a child process is forked for every mutating I/O
//     operation the reference workload performs (artifact publish + a serial
//     and a batched journaled tuning session) and killed with _exit at
//     exactly that op — writes die half-written, so torn frames are part of
//     the sweep, and the batched session's group commit puts crash points
//     between a lane's write and its wave's fsync. For every crash point:
//     the published artifact is either absent or bit-complete (never torn),
//     journal recovery succeeds and keeps whole waves only, and each resumed
//     session reaches its uninterrupted baseline's OutcomeChecksum with a
//     byte-identical final journal.
//   * fault-schedule matrix: sessions run under FaultInjectingIoEnv with
//     transient storms (EINTR/short-write/EIO — must be absorbed by bounded
//     retries) and hard faults (ENOSPC, persistent EIO, fsync failure —
//     strict policy must abort with a clean kIoError, degrade policy must
//     finish with the un-journaled session's exact outcome and block
//     resumes). Zero session fatals tolerated: every run ends in kOk or
//     kIoError, nothing else.
//   * seam overhead: WriteFully through the IoEnv virtual seam vs a raw
//     ::write loop over the same buffers, best-of-k medians; the seam must
//     cost <= 1.02x.
//
// Results go to console + BENCH_crashsafety.json + BENCH_crashsafety.csv.
// Like bench_durability, the exit code gates even under ATUNE_SMOKE (with a
// reduced >=8-point sweep): crash safety is a correctness property.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/csv.h"
#include "common/file_util.h"
#include "common/io_env.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/journal.h"
#include "core/registry.h"
#include "core/session.h"
#include "tuners/builtin.h"

namespace atune {
namespace bench {
namespace {

constexpr uint64_t kSeed = 7;

/// A journaled session of the reference workload.
struct SessionKind {
  const char* tuner;
  size_t parallelism;
  size_t budget;
};
/// Serial iTuned: one fsync per record. The fault matrix runs it too.
const SessionKind kSerial{"ituned", 1, SmokeSize(12, 6)};
/// Random-search at p4: the defaults, then three group-committed waves of
/// four lanes (one fsync each). Kept whole under ATUNE_SMOKE.
const SessionKind kBatched{"random-search", 4, 13};

/// Deterministic multi-KB artifact payload: big enough that a mid-publish
/// crash would visibly tear it if the publish were not atomic.
std::string ArtifactPayload() {
  std::string payload;
  payload.reserve(64 * 1024);
  for (size_t i = 0; payload.size() < 64 * 1024; ++i) {
    payload += StrFormat("artifact line %zu: crash-safety reference\n", i);
  }
  return payload;
}

struct RunResult {
  Status status = Status::OK();
  bool ok = false;
  uint64_t checksum = 0;
  bool degraded = false;
  size_t trials = 0;
};

/// One tuning session. `journal` empty = un-journaled.
RunResult RunSession(const SessionKind& kind, const std::string& journal,
                     JournalPolicy policy, bool resume) {
  RunResult out;
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  auto tuner = registry.Create(kind.tuner);
  if (!tuner.ok()) {
    out.status = tuner.status();
    return out;
  }
  (*tuner)->set_parallelism(kind.parallelism);
  auto dbms = MakeDbms(kSeed + 1);
  SessionOptions options;
  options.budget = TuningBudget{kind.budget};
  options.seed = kSeed + 100;
  options.measure_default = false;
  options.journal_path = journal;
  options.journal_policy = policy;
  const Workload workload = MakeDbmsOlapWorkload(1.0);
  auto outcome =
      resume ? ResumeTuningSession(tuner->get(), dbms.get(), workload, options)
             : RunTuningSession(tuner->get(), dbms.get(), workload, options);
  if (!outcome.ok()) {
    out.status = outcome.status();
    return out;
  }
  out.ok = true;
  out.checksum = OutcomeChecksum(*outcome);
  out.degraded = outcome->journal_degraded;
  out.trials = outcome->history.size();
  return out;
}

/// The reference workload the crash-point sweep interrupts: publish one
/// artifact atomically, then run the serial and the batched journaled
/// session. Everything here goes through IoEnv::Current(), so every
/// mutating op is a crash point.
void DoCrashWork(const std::string& artifact, const std::string& serial,
                 const std::string& batched, const std::string& payload) {
  (void)AtomicWriteFile(artifact, payload);
  (void)RunSession(kSerial, serial, JournalPolicy::kStrict, /*resume=*/false);
  (void)RunSession(kBatched, batched, JournalPolicy::kStrict,
                   /*resume=*/false);
}

/// True when every batched record recovered from `journal` belongs to a
/// whole wave: lanes 0..batch_size-1 in order, none missing at the end. A
/// missing journal (the crash came before its Create) holds no waves.
bool RecoversWholeWaves(const std::string& journal) {
  auto recovered = TrialJournal::OpenForResume(journal);
  if (!recovered.ok()) {
    return recovered.status().code() == StatusCode::kNotFound;
  }
  uint64_t expected_lane = 0;
  for (const JournalRecord& record : recovered->records) {
    if (record.batch_size <= 1) {
      if (expected_lane != 0) return false;
      continue;
    }
    if (record.lane != expected_lane) return false;
    expected_lane = record.lane + 1 == record.batch_size ? 0 : record.lane + 1;
  }
  return expected_lane == 0;
}

std::string SlurpOrEmpty(const std::string& path) {
  std::string contents;
  if (!ReadFileToString(path, &contents).ok()) contents.clear();
  return contents;
}

/// What the uninterrupted reference workload left behind for one session.
struct Baseline {
  uint64_t checksum = 0;
  std::string journal;  // final journal bytes
};

struct CrashPoint {
  uint64_t op = 0;
  bool crashed = false;          // child died at the armed op, exit 42
  bool artifact_intact = false;  // absent or bit-complete, never torn
  bool whole_waves = false;      // batched recovery kept whole waves only
  // The rest hold for both sessions:
  bool recovered = false;        // resume reached a final outcome
  bool checksum_match = false;   // ... identical to the uninterrupted run
  bool journal_identical = false;  // final journal bytes == baseline's
};

CrashPoint RunCrashPoint(uint64_t op, const std::string& payload,
                         const Baseline& serial_base,
                         const Baseline& batched_base) {
  CrashPoint cp;
  cp.op = op;
  const auto op_path = [op](const char* stem, const char* ext) {
    return StrFormat("bench_crash_%s_%llu.%s", stem,
                     static_cast<unsigned long long>(op), ext);
  };
  const std::string artifact = op_path("artifact", "dat");
  const std::string serial = op_path("journal", "wal");
  const std::string batched = op_path("batched", "wal");
  const auto remove_all = [&]() {
    for (const std::string& path :
         {artifact, artifact + ".tmp", serial, batched}) {
      std::remove(path.c_str());
    }
  };
  remove_all();

  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = fork();
  if (pid < 0) return cp;
  if (pid == 0) {
    // Child: mute output, arm the crash point, run the workload. _exit(0)
    // would mean the armed op was never reached — the parent treats that as
    // a sweep failure.
    int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::dup2(devnull, STDERR_FILENO);
      ::close(devnull);
    }
    SetCrashAtIoOp(op);
    DoCrashWork(artifact, serial, batched, payload);
    ::_exit(0);
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  cp.crashed = WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == kCrashExitCode;

  // No reader may observe a half-published artifact: the target path holds
  // either nothing or the complete payload. A leftover .tmp is fine — it is
  // not the published name.
  std::string seen = SlurpOrEmpty(artifact);
  cp.artifact_intact = seen.empty() || seen == payload;

  // Group commit leaves the lanes a wave wrote before the crash on disk
  // without their fsync; recovery must drop such a partial wave.
  cp.whole_waves = RecoversWholeWaves(batched);

  // Longest-valid-prefix recovery + deterministic replay must reproduce the
  // uninterrupted sessions exactly, whatever state the crash left behind
  // (no journal, a torn header, a half-written frame, part of a wave...).
  cp.recovered = cp.checksum_match = cp.journal_identical = true;
  const auto resume = [&cp](const SessionKind& kind,
                            const std::string& journal, const Baseline& base) {
    RunResult resumed = RunSession(kind, journal, JournalPolicy::kStrict,
                                   /*resume=*/true);
    cp.recovered = cp.recovered && resumed.ok;
    cp.checksum_match = cp.checksum_match && resumed.ok &&
                        resumed.checksum == base.checksum;
    cp.journal_identical =
        cp.journal_identical && SlurpOrEmpty(journal) == base.journal;
  };
  resume(kSerial, serial, serial_base);
  resume(kBatched, batched, batched_base);
  remove_all();
  return cp;
}

// ----- fault-schedule matrix -------------------------------------------------

struct FaultRow {
  std::string name;
  bool expect_strict_error = false;
  std::string strict_status;
  bool strict_as_expected = false;
  bool degrade_ok = false;
  bool degrade_checksum_match = false;
  bool resume_refused = false;  // only meaningful when degrade degraded
  bool fatal = false;  // any status outside {kOk, kIoError}
  bool pass = false;
};

FaultRow RunFaultSchedule(const std::string& name,
                          const IoFaultSchedule& schedule,
                          bool expect_strict_error,
                          uint64_t unjournaled_checksum) {
  FaultRow row;
  row.name = name;
  row.expect_strict_error = expect_strict_error;
  const std::string path = StrFormat("bench_crash_fault_%s.wal", name.c_str());
  auto is_clean = [](const Status& s) {
    return s.ok() || s.code() == StatusCode::kIoError;
  };

  std::remove(path.c_str());
  std::remove((path + kDegradedSidecarSuffix).c_str());
  RunResult strict;
  {
    FaultInjectingIoEnv env(IoEnv::Default(), schedule);
    ScopedIoEnv install(&env);
    strict = RunSession(kSerial, path, JournalPolicy::kStrict,
                        /*resume=*/false);
  }
  row.strict_status = StatusCodeToString(strict.status.code());
  row.fatal = !is_clean(strict.status);
  row.strict_as_expected =
      expect_strict_error
          ? strict.status.code() == StatusCode::kIoError
          : strict.ok && strict.checksum == unjournaled_checksum;

  std::remove(path.c_str());
  std::remove((path + kDegradedSidecarSuffix).c_str());
  RunResult degrade;
  {
    FaultInjectingIoEnv env(IoEnv::Default(), schedule);
    ScopedIoEnv install(&env);
    degrade = RunSession(kSerial, path, JournalPolicy::kDegrade,
                         /*resume=*/false);
  }
  row.fatal = row.fatal || !is_clean(degrade.status);
  // Degrade trades resumability for availability: the session must finish
  // and must compute exactly what the un-journaled session computes.
  row.degrade_ok = degrade.ok && degrade.degraded == expect_strict_error;
  row.degrade_checksum_match =
      degrade.ok && degrade.checksum == unjournaled_checksum;
  if (degrade.ok && degrade.degraded) {
    RunResult resumed = RunSession(kSerial, path, JournalPolicy::kStrict,
                                   /*resume=*/true);
    row.resume_refused =
        resumed.status.code() == StatusCode::kFailedPrecondition;
  } else {
    row.resume_refused = true;  // nothing degraded, nothing to refuse
  }
  std::remove(path.c_str());
  std::remove((path + kDegradedSidecarSuffix).c_str());

  row.pass = !row.fatal && row.strict_as_expected && row.degrade_ok &&
             row.degrade_checksum_match && row.resume_refused;
  return row;
}

// ----- seam overhead ---------------------------------------------------------

/// One paired overhead measurement: `iters` appends of `buf` through the
/// IoEnv seam (WriteFully) and through bare ::write, interleaved in small
/// alternating slices so frequency drift and page-cache writeback stalls
/// land on both sides alike. Returns true and fills the accumulated seconds
/// per side on success.
bool RunOverheadRep(const std::string& buf, size_t iters, double* seam_out,
                    double* raw_out, std::vector<double>* pair_ratios) {
  IoEnv* env = IoEnv::Default();
  auto seam_file =
      env->OpenWritable("bench_crash_seam.dat", IoEnv::OpenMode::kTruncate);
  if (!seam_file.ok()) return false;
  int raw_fd =
      ::open("bench_crash_raw.dat", O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (raw_fd < 0) return false;

  const size_t slices = 50;
  const size_t per_slice = std::max<size_t>(1, iters / slices);
  double seam_s = 0.0, raw_s = 0.0;
  uint32_t crc_sink = 0;  // keeps the checksums from being optimized out
  bool failed = false;
  // Both sides do what a journal append does — CRC the frame, then write it
  // — so the ratio isolates the seam (WriteFully + virtual dispatch + op
  // accounting) against the append's real per-record work.
  auto seam_slice = [&]() {
    auto begin = std::chrono::steady_clock::now();
    for (size_t i = 0; i < per_slice; ++i) {
      crc_sink ^= Crc32(0, buf.data(), buf.size());
      if (!WriteFully(env, seam_file->get(), buf.data(), buf.size()).ok()) {
        failed = true;
        return 0.0;
      }
    }
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - begin).count();
  };
  auto raw_slice = [&]() {
    auto begin = std::chrono::steady_clock::now();
    for (size_t i = 0; i < per_slice; ++i) {
      crc_sink ^= Crc32(0, buf.data(), buf.size());
      size_t done = 0;
      while (done < buf.size()) {
        ssize_t n = ::write(raw_fd, buf.data() + done, buf.size() - done);
        if (n < 0) {
          if (errno == EINTR) continue;
          failed = true;
          return 0.0;
        }
        done += static_cast<size_t>(n);
      }
    }
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - begin).count();
  };
  for (size_t s = 0; s < slices && !failed; ++s) {
    double a, b;
    if (s % 2 == 0) {
      a = seam_slice();
      b = raw_slice();
      seam_s += a;
      raw_s += b;
    } else {
      b = raw_slice();
      a = seam_slice();
      seam_s += a;
      raw_s += b;
    }
    // Each pair is two adjacent ~ms windows, so a writeback stall or
    // preemption lands in at most one pair — the caller's median over all
    // pairs discards it. Summed seconds (above) would smear that stall
    // across the whole rep instead.
    if (!failed && b > 0.0 && pair_ratios != nullptr) {
      pair_ratios->push_back(a / b);
    }
  }
  (void)(*seam_file)->Close();
  ::close(raw_fd);
  if (failed || crc_sink == 0xdeadbeef) return false;
  *seam_out = seam_s;
  *raw_out = raw_s;
  return true;
}

}  // namespace
}  // namespace bench
}  // namespace atune

int main() {
  using namespace atune;
  using namespace atune::bench;

  PrintHeader("E18: bench_crashsafety",
              "injectable I/O + crash-point harness (DESIGN.md §12)",
              "kill the process at every mutating I/O op and prove recovery; "
              "survive fault schedules with zero session fatals; bound the "
              "IoEnv seam overhead.");
  // The sweep's resumes recover torn journals on purpose; their per-point
  // recovery warnings would swamp the report.
  SetLogLevel(LogLevel::kError);

  const std::string payload = ArtifactPayload();

  // Uninterrupted baseline: per session the checksum and final journal
  // bytes, and the number of mutating I/O ops the whole workload performs
  // (= the sweep domain).
  const std::string base_artifact = "bench_crash_artifact_base.dat";
  const std::string base_serial = "bench_crash_journal_base.wal";
  const std::string base_batched = "bench_crash_batched_base.wal";
  for (const std::string& path : {base_artifact, base_serial, base_batched}) {
    std::remove(path.c_str());
  }
  const uint64_t ops_before = IoOpCount();
  DoCrashWork(base_artifact, base_serial, base_batched, payload);
  const uint64_t total_ops = IoOpCount() - ops_before;
  // Resuming an intact journal is pure replay.
  RunResult serial_run = RunSession(kSerial, base_serial,
                                    JournalPolicy::kStrict, /*resume=*/true);
  RunResult batched_run = RunSession(kBatched, base_batched,
                                     JournalPolicy::kStrict, /*resume=*/true);
  const Baseline serial_base{serial_run.checksum, SlurpOrEmpty(base_serial)};
  const Baseline batched_base{batched_run.checksum,
                              SlurpOrEmpty(base_batched)};
  for (const std::string& path : {base_artifact, base_serial, base_batched}) {
    std::remove(path.c_str());
  }
  if (!serial_run.ok || !batched_run.ok || total_ops == 0 ||
      serial_base.journal.empty() || batched_base.journal.empty()) {
    std::printf("FAIL: could not establish uninterrupted baseline (%s; %s)\n",
                serial_run.status.message().c_str(),
                batched_run.status.message().c_str());
    return 1;
  }

  // Crash points: every op in a full run; >=8 evenly spaced ops in smoke.
  std::set<uint64_t> points;
  if (SmokeMode()) {
    const size_t want = 8;
    for (size_t i = 1; i <= want; ++i) {
      points.insert(std::max<uint64_t>(1, i * total_ops / want));
    }
  } else {
    for (uint64_t op = 1; op <= total_ops; ++op) points.insert(op);
  }

  std::printf("\ncrash-point sweep (%zu points over %llu mutating ops; %s "
              "budget %zu, %s p%zu budget %zu):\n",
              points.size(), static_cast<unsigned long long>(total_ops),
              kSerial.tuner, kSerial.budget, kBatched.tuner,
              kBatched.parallelism, kBatched.budget);
  std::vector<CrashPoint> sweep;
  bool sweep_pass = true;
  size_t crashed = 0;
  for (uint64_t op : points) {
    CrashPoint cp = RunCrashPoint(op, payload, serial_base, batched_base);
    bool pass = cp.crashed && cp.artifact_intact && cp.whole_waves &&
                cp.recovered && cp.checksum_match && cp.journal_identical;
    if (!pass) {
      std::printf("  op %4llu: crash=%d artifact=%d waves=%d recovered=%d "
                  "checksum=%d journal=%d  <-- FAIL\n",
                  static_cast<unsigned long long>(cp.op), cp.crashed,
                  cp.artifact_intact, cp.whole_waves, cp.recovered,
                  cp.checksum_match, cp.journal_identical);
    }
    sweep_pass = sweep_pass && pass;
    crashed += cp.crashed ? 1 : 0;
    sweep.push_back(cp);
  }
  std::printf("  %zu/%zu points crashed at the armed op; sweep %s\n", crashed,
              sweep.size(), sweep_pass ? "PASS" : "FAIL");

  // Fault-schedule matrix.
  RunResult unjournaled = RunSession(kSerial, "", JournalPolicy::kStrict,
                                     /*resume=*/false);
  std::vector<FaultRow> faults;
  {
    IoFaultSchedule storm;
    storm.seed = 21;
    storm.eintr_rate = 0.15;
    storm.short_write_rate = 0.15;
    storm.transient_eio_rate = 0.02;
    faults.push_back(RunFaultSchedule("transient_storm", storm,
                                      /*expect_strict_error=*/false,
                                      unjournaled.checksum));
    faults.push_back(RunFaultSchedule(
        "enospc_mid_session",
        IoFaultSchedule::Single(IoOpKind::kWrite, 4, IoFaultKind::kEnospc),
        /*expect_strict_error=*/true, unjournaled.checksum));
    faults.push_back(RunFaultSchedule(
        "persistent_eio",
        IoFaultSchedule::Single(IoOpKind::kWrite, 3,
                                IoFaultKind::kPersistentEio),
        /*expect_strict_error=*/true, unjournaled.checksum));
    faults.push_back(RunFaultSchedule(
        "fsync_failure",
        IoFaultSchedule::Single(IoOpKind::kSync, 3, IoFaultKind::kSyncFail),
        /*expect_strict_error=*/true, unjournaled.checksum));
  }
  bool faults_pass = unjournaled.ok;
  std::printf("\nfault-schedule matrix (strict + degrade per schedule):\n");
  std::printf("  %-20s %-22s %s\n", "schedule", "strict", "degrade");
  for (const FaultRow& row : faults) {
    faults_pass = faults_pass && row.pass;
    std::printf("  %-20s %-22s %s%s\n", row.name.c_str(),
                row.strict_status.c_str(),
                row.degrade_ok && row.degrade_checksum_match
                    ? "identical outcome"
                    : "FAIL",
                row.pass ? "" : "  <-- FAIL");
  }
  std::printf("  zero session fatals: %s\n",
              faults_pass ? "PASS" : "FAIL");

  // Seam overhead: WriteFully through the virtual env vs a raw ::write loop
  // over the same buffers (no fsync either side), at the journal's real
  // append granularity — the buffer is sized to the baseline journal's
  // average bytes per committed record, so the ~ns of per-call seam cost is
  // weighed against the write the journal actually issues. Page-cache
  // writeback and frequency drift dwarf that cost, so: one uncounted warmup
  // pair, alternating run order, and best-of-k (the fastest run is the one
  // least disturbed by the machine).
  // Deliberately NOT reduced under ATUNE_SMOKE: a 2% ratio bound needs a
  // measurement window long enough to average out scheduler noise (a 5k-iter
  // slice swings +/-4% run to run), and the full measurement costs ~2s —
  // cheap enough for the smoke gate to stay a real gate.
  const size_t iters = 50000;
  const size_t reps = 5;
  const size_t frame_bytes = std::max<size_t>(
      512,
      serial_base.journal.size() / std::max<size_t>(1, serial_run.trials));
  const std::string buf(frame_bytes, 'j');
  double warm_s = 0.0, warm_r = 0.0;
  (void)RunOverheadRep(buf, iters, &warm_s, &warm_r, nullptr);  // warmup
  std::vector<double> ratios;  // one ratio per adjacent seam/raw slice pair
  double seam_s = -1.0, raw_s = -1.0;
  for (size_t r = 0; r < reps; ++r) {
    double s = 0.0, w = 0.0;
    if (RunOverheadRep(buf, iters, &s, &w, &ratios) && w > 0.0) {
      if (seam_s < 0.0 || s < seam_s) seam_s = s;
      if (raw_s < 0.0 || w < raw_s) raw_s = w;
    }
  }
  std::remove("bench_crash_seam.dat");
  std::remove("bench_crash_raw.dat");
  // Median over every slice pair (reps x slices of them): the seam's true
  // per-append cost is ~0.5% here, while page-cache writeback stalls and
  // preemptions swing any single window by several percent — but each stall
  // lands in at most one pair, so the median across a few hundred pairs
  // discards them. Per-rep summed ratios (the obvious aggregation) smear
  // one stall across a fifth of the sample and flap around a 2% bound.
  std::sort(ratios.begin(), ratios.end());
  const double overhead =
      ratios.empty() ? -1.0 : ratios[ratios.size() / 2];
  bool overhead_pass = overhead > 0.0 && overhead <= 1.02;
  // The 1.02x bound is a statement about the seam's dispatch cost, which an
  // unoptimized build buries under un-inlined Status plumbing and a
  // sanitizer build skews with per-function instrumentation — report the
  // ratio there, but only a plain optimized binary gates on it (like the
  // bench_hotpath speedup gates).
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ATUNE_CRASHSAFETY_ADVISORY_OVERHEAD 1
#endif
#endif
#else
#define ATUNE_CRASHSAFETY_ADVISORY_OVERHEAD 1
#endif
#ifdef ATUNE_CRASHSAFETY_ADVISORY_OVERHEAD
  const bool optimized = false;
  overhead_pass = !ratios.empty();
#else
  const bool optimized = true;
#endif
  std::printf("\nIoEnv seam overhead (%zu x %zuB appends x %zu reps, "
              "median of %zu slice-pair ratios):\n"
              "  seam %.1f MB/s, raw %.1f MB/s, ratio %.4fx (gate <= 1.02x%s) "
              "%s\n",
              iters, buf.size(), reps, ratios.size(),
              iters * buf.size() / seam_s / 1e6,
              iters * buf.size() / raw_s / 1e6, overhead,
              optimized ? "" : ", advisory: unoptimized build",
              overhead_pass ? "PASS" : "FAIL");

  bool pass = sweep_pass && faults_pass && overhead_pass;
  std::printf("\nacceptance: sweep %s, fault matrix %s, overhead %s\n",
              sweep_pass ? "PASS" : "FAIL", faults_pass ? "PASS" : "FAIL",
              overhead_pass ? "PASS" : "FAIL");

  std::ostringstream json;
  json << "{\n  \"experiment\": \"bench_crashsafety\",\n";
  json << StrFormat("  \"budget\": %zu,\n  \"batched_budget\": %zu,\n"
                    "  \"total_ops\": %llu,\n",
                    kSerial.budget, kBatched.budget,
                    static_cast<unsigned long long>(total_ops));
  json << StrFormat("  \"baseline_checksum\": \"%016llx\",\n"
                    "  \"batched_baseline_checksum\": \"%016llx\",\n"
                    "  \"sweep\": [\n",
                    static_cast<unsigned long long>(serial_base.checksum),
                    static_cast<unsigned long long>(batched_base.checksum));
  for (size_t i = 0; i < sweep.size(); ++i) {
    const CrashPoint& cp = sweep[i];
    json << StrFormat(
        "    {\"op\": %llu, \"crashed\": %s, \"artifact_intact\": %s, "
        "\"whole_waves\": %s, \"recovered\": %s, \"checksum_match\": %s, "
        "\"journal_identical\": %s}%s\n",
        static_cast<unsigned long long>(cp.op), cp.crashed ? "true" : "false",
        cp.artifact_intact ? "true" : "false",
        cp.whole_waves ? "true" : "false", cp.recovered ? "true" : "false",
        cp.checksum_match ? "true" : "false",
        cp.journal_identical ? "true" : "false",
        i + 1 < sweep.size() ? "," : "");
  }
  json << "  ],\n  \"faults\": [\n";
  for (size_t i = 0; i < faults.size(); ++i) {
    const FaultRow& row = faults[i];
    json << StrFormat(
        "    {\"schedule\": \"%s\", \"strict_status\": \"%s\", "
        "\"strict_as_expected\": %s, \"degrade_identical\": %s, "
        "\"resume_refused\": %s, \"fatal\": %s, \"pass\": %s}%s\n",
        row.name.c_str(), row.strict_status.c_str(),
        row.strict_as_expected ? "true" : "false",
        row.degrade_checksum_match ? "true" : "false",
        row.resume_refused ? "true" : "false", row.fatal ? "true" : "false",
        row.pass ? "true" : "false", i + 1 < faults.size() ? "," : "");
  }
  json << StrFormat(
      "  ],\n  \"overhead\": {\"seam_seconds\": %.6f, \"raw_seconds\": %.6f, "
      "\"ratio\": %.4f, \"optimized_build\": %s},\n",
      seam_s, raw_s, overhead, optimized ? "true" : "false");
  json << StrFormat(
      "  \"pass\": {\"sweep\": %s, \"faults\": %s, \"overhead\": %s}\n}\n",
      sweep_pass ? "true" : "false", faults_pass ? "true" : "false",
      overhead_pass ? "true" : "false");
  if (AtomicWriteFile("BENCH_crashsafety.json", json.str()).ok()) {
    std::printf("wrote BENCH_crashsafety.json\n");
  }

  TableWriter csv({"op", "crashed", "artifact_intact", "whole_waves",
                   "recovered", "checksum_match", "journal_identical"});
  for (const CrashPoint& cp : sweep) {
    csv.AddRow({StrFormat("%llu", static_cast<unsigned long long>(cp.op)),
                cp.crashed ? "1" : "0", cp.artifact_intact ? "1" : "0",
                cp.whole_waves ? "1" : "0", cp.recovered ? "1" : "0",
                cp.checksum_match ? "1" : "0",
                cp.journal_identical ? "1" : "0"});
  }
  if (csv.WriteCsvFile("BENCH_crashsafety.csv").ok()) {
    std::printf("wrote BENCH_crashsafety.csv\n");
  }

  // Like bench_durability: crash safety gates smoke runs too.
  return pass ? 0 : 1;
}
