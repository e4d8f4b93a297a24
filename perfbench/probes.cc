#include "probes.h"

#include <chrono>

#include "common/file_util.h"

namespace perfbench {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Bump(std::atomic<uint64_t>* counter, uint64_t n = 1) {
  counter->fetch_add(n, std::memory_order_relaxed);
}

uint64_t Load(const std::atomic<uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

}  // namespace

atune::Result<atune::ExecutionResult> TimingSystem::Execute(
    const atune::Configuration& config, const atune::Workload& workload) {
  uint64_t begin = NowNs();
  auto result = inner_->Execute(config, workload);
  Bump(&counters_->ns, NowNs() - begin);
  Bump(&counters_->calls);
  return result;
}

std::unique_ptr<atune::TunableSystem> TimingSystem::Clone(
    uint64_t runs_ahead) const {
  std::unique_ptr<atune::TunableSystem> clone = inner_->Clone(runs_ahead);
  if (clone == nullptr) return nullptr;
  return std::make_unique<TimingSystem>(std::move(clone), counters_);
}

IoCounts IoCounts::operator-(const IoCounts& base) const {
  IoCounts d;
  d.bytes_written = bytes_written - base.bytes_written;
  d.fsyncs = fsyncs - base.fsyncs;
  d.fsync_ns = fsync_ns - base.fsync_ns;
  d.dir_syncs = dir_syncs - base.dir_syncs;
  d.dir_sync_ns = dir_sync_ns - base.dir_sync_ns;
  return d;
}

IoCounts& IoCounts::operator+=(const IoCounts& delta) {
  bytes_written += delta.bytes_written;
  fsyncs += delta.fsyncs;
  fsync_ns += delta.fsync_ns;
  dir_syncs += delta.dir_syncs;
  dir_sync_ns += delta.dir_sync_ns;
  return *this;
}

/// Forwards to the base file, counting written bytes and timing fsyncs.
class CountingFile : public atune::IoFile {
 public:
  CountingFile(std::unique_ptr<atune::IoFile> inner, CountingIoEnv* env)
      : inner_(std::move(inner)), env_(env) {}

  atune::Status Write(const void* data, size_t n, size_t* written,
                      bool* transient) override {
    atune::Status status = inner_->Write(data, n, written, transient);
    Bump(&env_->bytes_written_, *written);
    return status;
  }

  atune::Status Sync() override {
    uint64_t begin = NowNs();
    atune::Status status = inner_->Sync();
    Bump(&env_->fsync_ns_, NowNs() - begin);
    Bump(&env_->fsyncs_);
    return status;
  }

  atune::Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<atune::IoFile> inner_;
  CountingIoEnv* env_;
};

CountingIoEnv::CountingIoEnv(atune::IoEnv* base) : base_(base) {
  // WriteFully reads the policy from the env it is handed, so the decorator
  // must carry the base's policy to behave identically.
  set_retry_policy(base->retry_policy());
}

atune::Result<std::unique_ptr<atune::IoFile>> CountingIoEnv::OpenWritable(
    const std::string& path, OpenMode mode) {
  auto file = base_->OpenWritable(path, mode);
  if (!file.ok()) return file.status();
  return std::unique_ptr<atune::IoFile>(
      new CountingFile(std::move(*file), this));
}

atune::Status CountingIoEnv::SyncDir(const std::string& path) {
  uint64_t begin = NowNs();
  atune::Status status = base_->SyncDir(path);
  Bump(&dir_sync_ns_, NowNs() - begin);
  Bump(&dir_syncs_);
  return status;
}

atune::Result<atune::MappedFile> CountingIoEnv::Map(const std::string& path) {
  return base_->Map(path);
}

IoCounts CountingIoEnv::Snapshot() const {
  IoCounts c;
  c.bytes_written = Load(bytes_written_);
  c.fsyncs = Load(fsyncs_);
  c.fsync_ns = Load(fsync_ns_);
  c.dir_syncs = Load(dir_syncs_);
  c.dir_sync_ns = Load(dir_sync_ns_);
  return c;
}

}  // namespace perfbench
