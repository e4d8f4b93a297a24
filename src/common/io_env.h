#ifndef ATUNE_COMMON_IO_ENV_H_
#define ATUNE_COMMON_IO_ENV_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace atune {

/// The injectable I/O environment (DESIGN.md §12). Every file operation the
/// durability layer performs — journal appends and fsyncs, atomic publishes,
/// recovery truncation, replay reads — goes through IoEnv::Current() instead
/// of raw syscalls, so a test or bench can swap in FaultInjectingIoEnv and
/// drive the error branches that a healthy filesystem never exercises
/// (short writes, EINTR storms, transient EIO, ENOSPC, fsync failure with
/// fsyncgate semantics, rename failure), or arm the crash-point hook that
/// kills the process at the Nth I/O op for the bench_crashsafety sweep.
///
/// Contract notes:
///  * Errors are surfaced as StatusCode::kIoError (clean, never a crash).
///  * Write() is ONE attempt and may short-write; WriteFully() is the
///    bounded deterministic retry loop everything uses.
///  * Sync() is never blindly retried by callers: after a failed fsync the
///    page-cache state is unknown (the "fsyncgate" lesson), so the journal
///    re-opens and re-verifies its tail instead (core/journal.cc).

/// Operation taxonomy, used for op counting, fault targeting, and the
/// crash-point sweep. Mutating ops (everything except kRead/kStat) advance
/// the process-wide op counter that ATUNE_CRASH_AT_IO_OP indexes.
enum class IoOpKind : uint8_t {
  kOpen = 0,
  kWrite,
  kSync,
  kClose,
  kRename,
  kTruncate,
  kSyncDir,
  kUnlink,
  kRead,
  kStat,
};
inline constexpr size_t kNumIoOpKinds = 10;

/// A writable file handle obtained from an IoEnv.
class IoFile {
 public:
  virtual ~IoFile() = default;

  /// ONE write attempt. On success *written is the number of bytes accepted
  /// (may be < n: a short write). On failure *transient says whether the
  /// error is worth a bounded retry (EINTR/EAGAIN, injected transient EIO);
  /// ENOSPC and persistent EIO are not transient.
  virtual Status Write(const void* data, size_t n, size_t* written,
                       bool* transient) = 0;

  /// fsync. Callers must NOT retry a failed Sync: the kernel may have
  /// dropped the dirty pages, so the only sound reaction is to re-open and
  /// re-verify what actually reached the disk.
  virtual Status Sync() = 0;

  /// Closes the handle. Idempotent; the destructor closes too (ignoring
  /// errors — error-checked closes go through this method).
  virtual Status Close() = 0;
};

/// Bounded deterministic retry policy for transient write errors. There is
/// no wall-clock in the decision — attempts are counted, and the backoff is
/// delegated to IoEnv::Backoff so the fault env can make it a no-op while
/// the real env sleeps.
struct IoRetryPolicy {
  size_t max_attempts = 8;       ///< total attempts per logical write
  uint64_t backoff_base_us = 100;  ///< real-env sleep: base << attempt, capped
  uint64_t backoff_cap_us = 10000;
};

/// The one real backoff sleep: before retry `attempt` (1-based) it sleeps
/// backoff_base_us << (attempt - 1), capped at backoff_cap_us; attempt 0 or
/// a zero base sleeps nothing. DefaultIoEnv::Backoff, FdTransport::Backoff
/// and the client's reconnect and re-exchange loops all sleep through it.
void SleepBackoff(const IoRetryPolicy& policy, size_t attempt);

class MappedFile;  // common/file_util.h

class IoEnv {
 public:
  enum class OpenMode : uint8_t {
    kTruncate,  ///< O_WRONLY | O_CREAT | O_TRUNC
    kAppend,    ///< O_WRONLY | O_APPEND (file must exist)
  };

  virtual ~IoEnv() = default;

  virtual Result<std::unique_ptr<IoFile>> OpenWritable(const std::string& path,
                                                       OpenMode mode) = 0;
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Status Truncate(const std::string& path, uint64_t length) = 0;
  /// fsyncs the directory containing `path` (required after rename/create
  /// for the new directory entry itself to be crash-durable).
  virtual Status SyncDir(const std::string& path) = 0;
  virtual Status Unlink(const std::string& path) = 0;
  virtual Status ReadFileToString(const std::string& path,
                                  std::string* out) = 0;
  virtual Result<uint64_t> FileSize(const std::string& path) = 0;
  /// Read-only mapping of the whole file: MappedFile::Map. No library code
  /// calls it; it stays only because perfbench's CountingIoEnv overrides
  /// it, and the benchmark change that drops that override deletes it
  /// together with MappedFile.
  virtual Result<MappedFile> Map(const std::string& path);
  /// Backoff before retry `attempt` (1-based) of a transient write error.
  virtual void Backoff(size_t attempt) = 0;

  const IoRetryPolicy& retry_policy() const { return retry_policy_; }
  void set_retry_policy(const IoRetryPolicy& policy) { retry_policy_ = policy; }

  /// The real (syscall-backed) environment, with the crash-point hook.
  static IoEnv* Default();
  /// The environment all durability-layer I/O goes through. Default() unless
  /// a ScopedIoEnv has installed a replacement.
  static IoEnv* Current();

 private:
  friend class ScopedIoEnv;
  static void Set(IoEnv* env);

  IoRetryPolicy retry_policy_;
};

/// RAII install/restore of IoEnv::Current() (testing/bench seam). Installing
/// nullptr restores Default(). Not thread-safe against concurrent sessions
/// using different envs — swap only around single-session tests/benches.
class ScopedIoEnv {
 public:
  explicit ScopedIoEnv(IoEnv* env);
  ~ScopedIoEnv();
  ScopedIoEnv(const ScopedIoEnv&) = delete;
  ScopedIoEnv& operator=(const ScopedIoEnv&) = delete;

 private:
  IoEnv* previous_;
};

/// The bounded deterministic retry loop every durability-layer writer uses:
/// reassembles short writes (no retry budget consumed — progress was made),
/// retries transient errors up to env->retry_policy().max_attempts with
/// env->Backoff between attempts, and surfaces everything else (and retry
/// exhaustion) as the underlying kIoError. `retries_out` / `shorts_out`
/// (optional) report the transient retries and short-write continuations
/// performed, so callers that can reach the metrics registry (core links
/// obs; common cannot) can feed the io.* telemetry.
Status WriteFully(IoEnv* env, IoFile* file, const void* data, size_t n,
                  uint64_t* retries_out = nullptr,
                  uint64_t* shorts_out = nullptr);

// ---- crash-point harness hooks (bench_crashsafety) ------------------------

/// Total mutating I/O ops performed through DefaultIoEnv in this process.
uint64_t IoOpCount();

/// Arms the crash point: the process calls _exit(kCrashExitCode) immediately
/// BEFORE performing the Nth (1-based, counted from now) mutating I/O op —
/// except for writes, where a deterministic prefix of the buffer is written
/// first so the sweep also covers torn frames. 0 disarms. The env var
/// ATUNE_CRASH_AT_IO_OP arms it at process start; this setter is for forked
/// children of the crash harness.
void SetCrashAtIoOp(uint64_t op_index);

/// Exit code of a crash-point kill, so the harness parent can tell a planned
/// crash from a genuine child failure.
inline constexpr int kCrashExitCode = 42;

// ---- deterministic fault injection ----------------------------------------

/// What an injected fault does. All injections are deterministic functions
/// of (schedule, op sequence) so a faulted run replays bit-identically.
enum class IoFaultKind : uint8_t {
  kTransientEio = 0,  ///< fails with a retryable EIO
  kEintr,             ///< fails with a retryable EINTR (storm via count)
  kShortWrite,        ///< accepts only half the buffer (min 1 byte)
  kEnospc,            ///< non-transient "no space left on device"
  kPersistentEio,     ///< non-transient EIO
  kSyncFail,          ///< fsync fails AND unsynced bytes are dropped from the
                      ///< file (fsyncgate: page-cache state was unknown)
  kRenameFail,        ///< rename fails; the temp file stays in place
};
inline constexpr size_t kNumIoFaultKinds = 7;
const char* IoFaultKindToString(IoFaultKind kind);

/// Deterministic per-op fault schedule. Targeted rules key on the index of
/// the op *within its kind* (the 3rd write, the 1st rename, ...) counted
/// from env construction; rate-based faults draw from a seeded Rng once per
/// write op. Identical op sequences therefore see identical faults.
struct IoFaultSchedule {
  struct Rule {
    IoOpKind op = IoOpKind::kWrite;  ///< which op kind to target
    uint64_t at = 0;                 ///< 0-based index within that kind
    IoFaultKind fault = IoFaultKind::kTransientEio;
    uint64_t count = 1;  ///< consecutive ops affected (EINTR storms)
  };
  std::vector<Rule> rules;

  uint64_t seed = 0;              ///< seeds the rate-based draws
  double short_write_rate = 0.0;  ///< P(short write) per write op
  double eintr_rate = 0.0;        ///< P(EINTR) per write op
  double transient_eio_rate = 0.0;  ///< P(transient EIO) per write op

  /// Convenience: one rule.
  static IoFaultSchedule Single(IoOpKind op, uint64_t at, IoFaultKind fault,
                                uint64_t count = 1);
};

/// IoEnv decorator that injects the schedule's faults into a base env (the
/// real one in tests). Backoff is a counted no-op — faulted runs must stay
/// deterministic and fast. Per-kind op counters and injected-fault counters
/// are exposed for assertions. Not thread-safe (guarded use: single-session
/// tests and the crash harness).
class FaultInjectingIoEnv : public IoEnv {
 public:
  /// `base` is borrowed and must outlive this env (Default() in practice).
  FaultInjectingIoEnv(IoEnv* base, IoFaultSchedule schedule);

  Result<std::unique_ptr<IoFile>> OpenWritable(const std::string& path,
                                               OpenMode mode) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Truncate(const std::string& path, uint64_t length) override;
  Status SyncDir(const std::string& path) override;
  Status Unlink(const std::string& path) override;
  Status ReadFileToString(const std::string& path, std::string* out) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  void Backoff(size_t attempt) override { backoffs_ += attempt > 0 ? 1 : 0; }

  uint64_t ops(IoOpKind kind) const {
    return op_counts_[static_cast<size_t>(kind)];
  }
  uint64_t injected(IoFaultKind fault) const {
    return injected_[static_cast<size_t>(fault)];
  }
  uint64_t injected_total() const;
  uint64_t backoffs() const { return backoffs_; }

 private:
  friend class FaultInjectedFile;

  /// Advances the per-kind op counter and returns the fault (if any) that
  /// the schedule assigns to this op occurrence.
  bool NextFault(IoOpKind kind, IoFaultKind* fault);
  void CountInjected(IoFaultKind fault) {
    ++injected_[static_cast<size_t>(fault)];
  }
  Status Fail(IoFaultKind fault, const char* op, const std::string& path);

  IoEnv* base_;
  IoFaultSchedule schedule_;
  Rng rng_;
  uint64_t op_counts_[kNumIoOpKinds] = {};
  uint64_t injected_[kNumIoFaultKinds] = {};
  uint64_t backoffs_ = 0;
  /// Unsynced-byte tracking per open path, for kSyncFail's page-cache drop.
  std::map<std::string, uint64_t> unsynced_;
};

}  // namespace atune

#endif  // ATUNE_COMMON_IO_ENV_H_
