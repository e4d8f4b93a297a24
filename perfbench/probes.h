// Outside-in probes the traced run installs around the library's public
// seams: a timing TunableSystem decorator and a counting IoEnv decorator.
// Neither changes behaviour; the self-test in local.cc checks that outcome
// checksums and journal bytes are the same with and without them.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/io_env.h"
#include "core/system.h"

namespace perfbench {

/// Execute() calls and their wall time, shared by a system and its clones
/// (batch lanes execute on clones from pool threads, hence the atomics).
struct ExecuteCounters {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> ns{0};
};

/// Times every Execute() of the wrapped system. Everything else forwards to
/// the inner system unchanged; Clone() wraps the inner clone so lanes stay
/// timed, and returns null when the inner system cannot clone.
class TimingSystem : public atune::TunableSystem {
 public:
  TimingSystem(std::unique_ptr<atune::TunableSystem> inner,
               ExecuteCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  std::string name() const override { return inner_->name(); }
  const atune::ParameterSpace& space() const override {
    return inner_->space();
  }
  atune::Result<atune::ExecutionResult> Execute(
      const atune::Configuration& config,
      const atune::Workload& workload) override;
  std::unique_ptr<atune::TunableSystem> Clone(
      uint64_t runs_ahead) const override;
  void SkipRuns(uint64_t n) override { inner_->SkipRuns(n); }
  std::map<std::string, double> Descriptors() const override {
    return inner_->Descriptors();
  }
  std::vector<std::string> MetricNames() const override {
    return inner_->MetricNames();
  }
  atune::IterativeSystem* AsIterative() override {
    return inner_->AsIterative();
  }

 private:
  std::unique_ptr<atune::TunableSystem> inner_;
  ExecuteCounters* counters_;
};

/// Plain-value copy of the I/O counters, for before/after deltas.
struct IoCounts {
  uint64_t bytes_written = 0;
  uint64_t fsyncs = 0;
  uint64_t fsync_ns = 0;
  uint64_t dir_syncs = 0;
  uint64_t dir_sync_ns = 0;

  IoCounts operator-(const IoCounts& base) const;
  IoCounts& operator+=(const IoCounts& delta);
};

/// Counts written bytes and counts and times file and directory fsyncs on
/// their way to the base environment. Atomic counters: daemon workers and
/// the reactor use it concurrently.
class CountingIoEnv : public atune::IoEnv {
 public:
  /// `base` is borrowed (IoEnv::Default() in practice).
  explicit CountingIoEnv(atune::IoEnv* base);

  atune::Result<std::unique_ptr<atune::IoFile>> OpenWritable(
      const std::string& path, OpenMode mode) override;
  atune::Status SyncDir(const std::string& path) override;
  atune::Status Rename(const std::string& from,
                       const std::string& to) override {
    return base_->Rename(from, to);
  }
  atune::Status Truncate(const std::string& path, uint64_t length) override {
    return base_->Truncate(path, length);
  }
  atune::Status Unlink(const std::string& path) override {
    return base_->Unlink(path);
  }
  atune::Status ReadFileToString(const std::string& path,
                                 std::string* out) override {
    return base_->ReadFileToString(path, out);
  }
  atune::Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  atune::Result<atune::MappedFile> Map(const std::string& path) override;
  void Backoff(size_t attempt) override { base_->Backoff(attempt); }

  IoCounts Snapshot() const;

 private:
  friend class CountingFile;

  atune::IoEnv* base_;
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> fsync_ns_{0};
  std::atomic<uint64_t> dir_syncs_{0};
  std::atomic<uint64_t> dir_sync_ns_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
