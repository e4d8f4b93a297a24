#include "common/io_env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "common/file_util.h"
#include "common/string_util.h"

namespace atune {
namespace {

// ---- crash-point hook (bench_crashsafety) ---------------------------------
//
// One process-wide counter of mutating ops performed through DefaultIoEnv.
// When armed, the process _exit()s the instant the counter would reach the
// target — for writes, after emitting a deterministic half-prefix first, so
// the crash sweep covers torn frames as well as clean op boundaries.

std::atomic<uint64_t> g_io_ops{0};
std::atomic<uint64_t> g_crash_at{0};  // absolute op index; 0 = disarmed

/// Counts one mutating op. Returns true when this op is the crash victim
/// (callers then perform their torn-write side effect and _exit).
bool CountOpAndCheckCrash() {
  // Relaxed load+store instead of an atomic RMW: plain movs (~2ns) versus a
  // lock-prefixed xadd (~20ns) on every mutating I/O op — the difference is
  // most of the IoEnv seam's per-append cost. Concurrent writers may lose
  // increments, which is acceptable: the exact value only matters to the
  // crash harness and its sweep sizing, both single-threaded; everything
  // else treats IoOpCount() as approximate.
  uint64_t count = g_io_ops.load(std::memory_order_relaxed) + 1;
  g_io_ops.store(count, std::memory_order_relaxed);
  uint64_t target = g_crash_at.load(std::memory_order_relaxed);
  return target != 0 && count == target;
}

[[noreturn]] void CrashNow() {
  // _exit, not exit/abort: no atexit handlers, no flushing of inherited
  // stdio buffers, no core dump — exactly what a power loss looks like to
  // the filesystem, and what the harness parent expects to wait() on.
  ::_exit(kCrashExitCode);
}

Status ErrnoStatus(const char* op, const std::string& path, int err) {
  return Status::IoError(
      StrFormat("%s '%s': %s", op, path.c_str(), std::strerror(err)));
}

bool ErrnoTransient(int err) { return err == EINTR || err == EAGAIN; }

std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// ---- the real environment -------------------------------------------------

class DefaultIoFile : public IoFile {
 public:
  DefaultIoFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~DefaultIoFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Write(const void* data, size_t n, size_t* written,
               bool* transient) override {
    *written = 0;
    *transient = false;
    if (fd_ < 0) return Status::IoError("write on closed file: " + path_);
    if (CountOpAndCheckCrash()) {
      // Torn write: half the buffer reaches the file, then the machine dies.
      if (n > 1) {
        ssize_t r = ::write(fd_, data, n / 2);
        (void)r;
      }
      CrashNow();
    }
    ssize_t r = ::write(fd_, data, n);
    if (r < 0) {
      *transient = ErrnoTransient(errno);
      return ErrnoStatus("write", path_, errno);
    }
    *written = static_cast<size_t>(r);
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::IoError("fsync on closed file: " + path_);
    if (CountOpAndCheckCrash()) CrashNow();
    if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_, errno);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) return ErrnoStatus("close", path_, errno);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class DefaultIoEnv : public IoEnv {
 public:
  DefaultIoEnv() {
    const char* crash = std::getenv("ATUNE_CRASH_AT_IO_OP");
    if (crash != nullptr && *crash != '\0') {
      SetCrashAtIoOp(std::strtoull(crash, nullptr, 10));
    }
  }

  Result<std::unique_ptr<IoFile>> OpenWritable(const std::string& path,
                                               OpenMode mode) override {
    if (CountOpAndCheckCrash()) CrashNow();
    int flags = O_WRONLY | (mode == OpenMode::kTruncate ? O_CREAT | O_TRUNC
                                                        : O_APPEND);
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return ErrnoStatus("open", path, errno);
    return std::unique_ptr<IoFile>(new DefaultIoFile(fd, path));
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (CountOpAndCheckCrash()) CrashNow();
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoStatus("rename", from, errno);
    }
    return Status::OK();
  }

  Status Truncate(const std::string& path, uint64_t length) override {
    if (CountOpAndCheckCrash()) CrashNow();
    if (::truncate(path.c_str(), static_cast<off_t>(length)) != 0) {
      return ErrnoStatus("truncate", path, errno);
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& path) override {
    if (CountOpAndCheckCrash()) CrashNow();
    std::string dir = ParentDir(path);
    int fd = ::open(dir.c_str(), O_RDONLY);
    if (fd < 0) return ErrnoStatus("open dir", dir, errno);
    if (::fsync(fd) != 0) {
      Status s = ErrnoStatus("fsync dir", dir, errno);
      ::close(fd);
      return s;
    }
    ::close(fd);
    return Status::OK();
  }

  Status Unlink(const std::string& path) override {
    if (CountOpAndCheckCrash()) CrashNow();
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return ErrnoStatus("unlink", path, errno);
    }
    return Status::OK();
  }

  Status ReadFileToString(const std::string& path, std::string* out) override {
    return ::atune::ReadFileToString(path, out);
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      if (errno == ENOENT) {
        return Status::NotFound(StrFormat("no such file: '%s'", path.c_str()));
      }
      return ErrnoStatus("stat", path, errno);
    }
    return static_cast<uint64_t>(st.st_size);
  }

  void Backoff(size_t attempt) override {
    SleepBackoff(retry_policy(), attempt);
  }
};

std::atomic<IoEnv*> g_current_env{nullptr};

}  // namespace

void SleepBackoff(const IoRetryPolicy& policy, size_t attempt) {
  if (policy.backoff_base_us == 0 || attempt == 0) return;
  uint64_t shift = std::min<size_t>(attempt - 1, 16);
  uint64_t us = std::min(policy.backoff_base_us << shift,
                         policy.backoff_cap_us);
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(us / 1000000);
  ts.tv_nsec = static_cast<long>((us % 1000000) * 1000);
  ::nanosleep(&ts, nullptr);
}

const char* IoFaultKindToString(IoFaultKind kind) {
  switch (kind) {
    case IoFaultKind::kTransientEio:
      return "transient_eio";
    case IoFaultKind::kEintr:
      return "eintr";
    case IoFaultKind::kShortWrite:
      return "short_write";
    case IoFaultKind::kEnospc:
      return "enospc";
    case IoFaultKind::kPersistentEio:
      return "persistent_eio";
    case IoFaultKind::kSyncFail:
      return "sync_fail";
    case IoFaultKind::kRenameFail:
      return "rename_fail";
  }
  return "?";
}

Result<MappedFile> IoEnv::Map(const std::string& path) {
  return MappedFile::Map(path);
}

IoEnv* IoEnv::Default() {
  static DefaultIoEnv* env = new DefaultIoEnv();  // never destroyed
  return env;
}

IoEnv* IoEnv::Current() {
  IoEnv* env = g_current_env.load(std::memory_order_acquire);
  return env != nullptr ? env : Default();
}

void IoEnv::Set(IoEnv* env) {
  g_current_env.store(env, std::memory_order_release);
}

ScopedIoEnv::ScopedIoEnv(IoEnv* env)
    : previous_(g_current_env.load(std::memory_order_acquire)) {
  IoEnv::Set(env);
}

ScopedIoEnv::~ScopedIoEnv() { IoEnv::Set(previous_); }

uint64_t IoOpCount() { return g_io_ops.load(std::memory_order_relaxed); }

void SetCrashAtIoOp(uint64_t op_index) {
  if (op_index == 0) {
    g_crash_at.store(0, std::memory_order_relaxed);
    return;
  }
  g_crash_at.store(g_io_ops.load(std::memory_order_relaxed) + op_index,
                   std::memory_order_relaxed);
}

Status WriteFully(IoEnv* env, IoFile* file, const void* data, size_t n,
                  uint64_t* retries_out, uint64_t* shorts_out) {
  const auto* p = static_cast<const char*>(data);
  size_t done = 0;
  size_t attempts = 0;
  uint64_t retries = 0;
  uint64_t shorts = 0;
  const size_t max_attempts = std::max<size_t>(1, env->retry_policy().max_attempts);
  while (done < n) {
    size_t written = 0;
    bool transient = false;
    Status status = file->Write(p + done, n - done, &written, &transient);
    if (status.ok() && written > 0) {
      if (written < n - done) ++shorts;
      done += written;
      attempts = 0;  // progress resets the retry budget
      continue;
    }
    // A zero-byte "success" makes no progress; treat it like a transient
    // error so the loop stays bounded.
    if (status.ok()) {
      status = Status::IoError("write accepted 0 bytes");
      transient = true;
    }
    if (!transient) {
      if (retries_out != nullptr) *retries_out = retries;
      if (shorts_out != nullptr) *shorts_out = shorts;
      return status;
    }
    ++attempts;
    ++retries;
    if (attempts >= max_attempts) {
      if (retries_out != nullptr) *retries_out = retries;
      if (shorts_out != nullptr) *shorts_out = shorts;
      return Status::IoError(StrFormat(
          "write failed after %zu transient-error retries: %s", attempts,
          status.message().c_str()));
    }
    env->Backoff(attempts);
  }
  if (retries_out != nullptr) *retries_out = retries;
  if (shorts_out != nullptr) *shorts_out = shorts;
  return Status::OK();
}

// ---- fault injection ------------------------------------------------------

IoFaultSchedule IoFaultSchedule::Single(IoOpKind op, uint64_t at,
                                        IoFaultKind fault, uint64_t count) {
  IoFaultSchedule schedule;
  schedule.rules.push_back(Rule{op, at, fault, count});
  return schedule;
}

/// IoFile wrapper applying write/sync faults assigned by the owning env.
/// Defined at namespace scope (not anonymous) so the friend declaration in
/// FaultInjectingIoEnv applies.
class FaultInjectedFile : public IoFile {
 public:
  FaultInjectedFile(FaultInjectingIoEnv* env, std::unique_ptr<IoFile> base,
                    std::string path)
      : env_(env), base_(std::move(base)), path_(std::move(path)) {}

  Status Write(const void* data, size_t n, size_t* written,
               bool* transient) override;
  Status Sync() override;
  Status Close() override {
    env_->NextFault(IoOpKind::kClose, nullptr);  // count only
    return base_->Close();
  }

 private:
  FaultInjectingIoEnv* env_;
  std::unique_ptr<IoFile> base_;
  std::string path_;
};

FaultInjectingIoEnv::FaultInjectingIoEnv(IoEnv* base, IoFaultSchedule schedule)
    : base_(base),
      schedule_(std::move(schedule)),
      rng_(DeriveSeed(schedule_.seed, 0x10E17)) {
  // The fault env never sleeps: faulted runs must be deterministic AND fast.
  IoRetryPolicy policy = base->retry_policy();
  policy.backoff_base_us = 0;
  set_retry_policy(policy);
}

uint64_t FaultInjectingIoEnv::injected_total() const {
  uint64_t total = 0;
  for (uint64_t count : injected_) total += count;
  return total;
}

bool FaultInjectingIoEnv::NextFault(IoOpKind kind, IoFaultKind* fault) {
  uint64_t index = op_counts_[static_cast<size_t>(kind)]++;
  for (const IoFaultSchedule::Rule& rule : schedule_.rules) {
    if (rule.op == kind && index >= rule.at && index < rule.at + rule.count) {
      if (fault != nullptr) *fault = rule.fault;
      return fault != nullptr;
    }
  }
  if (kind == IoOpKind::kWrite &&
      (schedule_.short_write_rate > 0.0 || schedule_.eintr_rate > 0.0 ||
       schedule_.transient_eio_rate > 0.0)) {
    // One draw per write op, consumed identically whether or not it fires,
    // so the fault stream is a pure function of the op index.
    double draw = rng_.Uniform();
    if (draw < schedule_.short_write_rate) {
      if (fault != nullptr) *fault = IoFaultKind::kShortWrite;
      return fault != nullptr;
    }
    draw -= schedule_.short_write_rate;
    if (draw < schedule_.eintr_rate) {
      if (fault != nullptr) *fault = IoFaultKind::kEintr;
      return fault != nullptr;
    }
    draw -= schedule_.eintr_rate;
    if (draw < schedule_.transient_eio_rate) {
      if (fault != nullptr) *fault = IoFaultKind::kTransientEio;
      return fault != nullptr;
    }
  }
  return false;
}

Status FaultInjectingIoEnv::Fail(IoFaultKind fault, const char* op,
                                 const std::string& path) {
  CountInjected(fault);
  return Status::IoError(StrFormat("injected %s during %s '%s'",
                                   IoFaultKindToString(fault), op,
                                   path.c_str()));
}

Status FaultInjectedFile::Write(const void* data, size_t n, size_t* written,
                                bool* transient) {
  *written = 0;
  *transient = false;
  IoFaultKind fault;
  if (env_->NextFault(IoOpKind::kWrite, &fault)) {
    switch (fault) {
      case IoFaultKind::kShortWrite: {
        env_->CountInjected(fault);
        size_t half = std::max<size_t>(1, n / 2);
        Status status = base_->Write(data, half, written, transient);
        if (status.ok()) env_->unsynced_[path_] += *written;
        return status;
      }
      case IoFaultKind::kEintr:
      case IoFaultKind::kTransientEio:
        *transient = true;
        return env_->Fail(fault, "write", path_);
      case IoFaultKind::kEnospc:
      case IoFaultKind::kPersistentEio:
        return env_->Fail(fault, "write", path_);
      default:
        break;  // faults of other kinds don't apply to writes
    }
  }
  Status status = base_->Write(data, n, written, transient);
  if (status.ok()) env_->unsynced_[path_] += *written;
  return status;
}

Status FaultInjectedFile::Sync() {
  IoFaultKind fault;
  if (env_->NextFault(IoOpKind::kSync, &fault) &&
      fault == IoFaultKind::kSyncFail) {
    // fsyncgate semantics: the failed fsync may have dropped any or all of
    // the dirty pages. Model the worst case deterministically — every byte
    // written since the last successful sync vanishes from the file.
    uint64_t lost = env_->unsynced_[path_];
    if (lost > 0) {
      auto size = env_->base_->FileSize(path_);
      if (size.ok() && *size >= lost) {
        (void)env_->base_->Truncate(path_, *size - lost);
      }
      env_->unsynced_[path_] = 0;
    }
    return env_->Fail(fault, "fsync", path_);
  }
  Status status = base_->Sync();
  if (status.ok()) env_->unsynced_[path_] = 0;
  return status;
}

Result<std::unique_ptr<IoFile>> FaultInjectingIoEnv::OpenWritable(
    const std::string& path, OpenMode mode) {
  IoFaultKind fault;
  if (NextFault(IoOpKind::kOpen, &fault)) {
    if (fault == IoFaultKind::kEnospc || fault == IoFaultKind::kPersistentEio ||
        fault == IoFaultKind::kTransientEio) {
      return Fail(fault, "open", path);
    }
  }
  auto base_file = base_->OpenWritable(path, mode);
  if (!base_file.ok()) return base_file.status();
  if (mode == OpenMode::kTruncate) unsynced_[path] = 0;
  return std::unique_ptr<IoFile>(
      new FaultInjectedFile(this, std::move(*base_file), path));
}

Status FaultInjectingIoEnv::Rename(const std::string& from,
                                   const std::string& to) {
  IoFaultKind fault;
  if (NextFault(IoOpKind::kRename, &fault) &&
      (fault == IoFaultKind::kRenameFail || fault == IoFaultKind::kEnospc ||
       fault == IoFaultKind::kPersistentEio)) {
    return Fail(fault, "rename", from);
  }
  return base_->Rename(from, to);
}

Status FaultInjectingIoEnv::Truncate(const std::string& path,
                                     uint64_t length) {
  IoFaultKind fault;
  if (NextFault(IoOpKind::kTruncate, &fault) &&
      (fault == IoFaultKind::kPersistentEio ||
       fault == IoFaultKind::kEnospc)) {
    return Fail(fault, "truncate", path);
  }
  return base_->Truncate(path, length);
}

Status FaultInjectingIoEnv::SyncDir(const std::string& path) {
  IoFaultKind fault;
  if (NextFault(IoOpKind::kSyncDir, &fault) &&
      fault == IoFaultKind::kSyncFail) {
    return Fail(fault, "fsync dir", path);
  }
  return base_->SyncDir(path);
}

Status FaultInjectingIoEnv::Unlink(const std::string& path) {
  NextFault(IoOpKind::kUnlink, nullptr);  // count only
  return base_->Unlink(path);
}

Status FaultInjectingIoEnv::ReadFileToString(const std::string& path,
                                             std::string* out) {
  IoFaultKind fault;
  if (NextFault(IoOpKind::kRead, &fault) &&
      fault == IoFaultKind::kPersistentEio) {
    return Fail(fault, "read", path);
  }
  return base_->ReadFileToString(path, out);
}

Result<uint64_t> FaultInjectingIoEnv::FileSize(const std::string& path) {
  NextFault(IoOpKind::kStat, nullptr);  // count only
  return base_->FileSize(path);
}

}  // namespace atune
