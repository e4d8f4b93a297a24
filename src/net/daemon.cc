#include "net/daemon.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/file_util.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/journal.h"
#include "core/knowledge_repo.h"
#include "core/outcome_checksum.h"
#include "core/session.h"
#include "net/transport.h"
#include "systems/multi_tenant.h"
#include "systems/system_factory.h"
#include "tuners/builtin.h"
#include "tuners/warm_start.h"

namespace atune {
namespace {

constexpr size_t kReadChunk = 64 * 1024;
constexpr int kListenBacklog = 128;
constexpr size_t kMaxErrorMessage = 512;

std::string Truncate(const std::string& s) {
  return s.size() <= kMaxErrorMessage ? s : s.substr(0, kMaxErrorMessage);
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// key=value serialization for the .meta/.result sidecars. Values are
/// newline-free by construction (ids/tenants are [A-Za-z0-9._-]; numbers are
/// formatted; messages are sanitized), so one line per key is unambiguous.
std::string SanitizeLine(const std::string& s) {
  std::string out = Truncate(s);
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

std::map<std::string, std::string> ParseKeyValueFile(const std::string& text) {
  std::map<std::string, std::string> kv;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return kv;
}

uint64_t ParseU64(const std::map<std::string, std::string>& kv,
                  const std::string& key, uint64_t fallback) {
  auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  return std::strtoull(it->second.c_str(), nullptr, 0);
}

std::string GetStr(const std::map<std::string, std::string>& kv,
                   const std::string& key) {
  auto it = kv.find(key);
  return it == kv.end() ? std::string() : it->second;
}

/// Doubles travel through the sidecars as hex bit patterns, like the wire:
/// the recovery path must rebuild the *identical* session spec (the journal
/// header is compared for equality) and the result checksums are compared
/// bit-exactly by the bench gates.
uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Outcome of one tuning job, handed from the worker back to the reactor.
struct JobResult {
  Status status = Status::OK();
  SessionResult result;
};

/// Runs one tuning session on a worker thread. Everything here is built
/// deterministically from the durable StartRequest, so a restarted daemon
/// reconstructs the exact same tuner/system/workload/objective and replay
/// produces a bit-identical outcome. Always resumes: a missing journal
/// starts fresh, so one code path serves fresh, reconnected, and recovered
/// sessions alike.
JobResult RunSessionJob(const StartRequest& spec, const std::string& wal_path,
                        const TunerRegistry* registry,
                        std::shared_ptr<std::atomic<bool>> cancel,
                        const std::string& knowledge_dir,
                        const std::vector<std::string>& warm_shards) {
  JobResult job;
  std::vector<KnowledgeRecord> snapshot;
  if (spec.warm_start) {
    // The snapshot is exactly the shard list pinned at admission: shards
    // are immutable files, so fresh run, reattach, and post-restart resume
    // all map against byte-identical history (missing/corrupt shards are
    // skipped deterministically by filename).
    size_t skipped = 0;
    snapshot = KnowledgeRepository(knowledge_dir).LoadShards(warm_shards,
                                                             &skipped);
    if (skipped > 0) {
      ATUNE_LOG(Warning) << "session " << spec.session_id << ": " << skipped
                         << " pinned knowledge shard(s) unreadable, mapping "
                            "against the remainder";
    }
  }
  auto tuner = spec.warm_start
                   ? MakeWarmStartTuner(*registry, spec.tuner,
                                        std::move(snapshot))
                   : registry->Create(spec.tuner);
  if (!tuner.ok()) {
    job.status = tuner.status();
    return job;
  }
  std::unique_ptr<Tuner> session_tuner = std::move(*tuner);
  auto base = MakeSystemByName(spec.system, /*nodes=*/0, spec.seed);
  if (!base.ok()) {
    job.status = base.status();
    return job;
  }
  auto primary = WorkloadByName(spec.system, spec.workload, spec.scale);
  if (!primary.ok()) {
    job.status = primary.status();
    return job;
  }

  SessionOptions options;
  options.budget.max_evaluations = static_cast<size_t>(spec.budget);
  options.seed = spec.seed;
  options.journal_path = wal_path;
  options.journal_policy = JournalPolicy::kStrict;
  // The daemon charges exactly `budget` evaluations against the tenant's
  // quota; the out-of-budget default measurement would break that contract
  // (and is uninteresting for a service — clients compare checksums).
  options.measure_default = false;
  options.interrupt_check = [cancel]() {
    return cancel->load(std::memory_order_relaxed);
  };

  TunableSystem* system = base->get();
  Workload workload = *primary;
  std::unique_ptr<MultiTenantSystem> shared;
  if (spec.contention > 0) {
    // Multi-tenant contention substrate: this tenant's workload plus
    // `contention` background tenants cycled deterministically from the
    // system's catalog, tuned with the Tempo-style minimax SLO objective.
    std::vector<Tenant> tenants;
    tenants.push_back(Tenant{spec.tenant.empty() ? "primary" : spec.tenant,
                             workload, /*slo_seconds=*/120.0});
    auto catalog = WorkloadsForSystem(spec.system, spec.scale);
    std::vector<std::pair<std::string, Workload>> entries(catalog.begin(),
                                                          catalog.end());
    for (uint64_t i = 0; i < spec.contention; ++i) {
      const auto& entry = entries[i % entries.size()];
      tenants.push_back(Tenant{"bg_" + std::to_string(i), entry.second,
                               /*slo_seconds=*/90.0 + 30.0 * (i % 3)});
    }
    shared = std::make_unique<MultiTenantSystem>(base->get(),
                                                 std::move(tenants));
    options.objective = MakeRobustSloObjective();
    workload = MakeMultiTenantWorkload(spec.scale);
    system = shared.get();
  }

  // Resume when a journal exists (restart recovery, reattach after a
  // daemon crash); otherwise run fresh. ResumeTuningSession would handle a
  // missing journal too, but warns — and fresh sessions are the common case.
  auto outcome = FileExists(wal_path)
                     ? ResumeTuningSession(session_tuner.get(), system,
                                           workload, options)
                     : RunTuningSession(session_tuner.get(), system, workload,
                                        options);
  if (!outcome.ok()) {
    job.status = outcome.status();
    return job;
  }
  job.result.status_code = static_cast<uint8_t>(StatusCode::kOk);
  job.result.best_objective = outcome->best_objective;
  job.result.checksum = OutcomeChecksum(*outcome);
  job.result.trials = outcome->history.size();
  job.result.replayed = outcome->replayed_records;

  // Every completed session feeds the knowledge repository. Ingest is an
  // atomic publish to a per-session path, so concurrent workers never
  // contend and a crash mid-ingest leaves no torn shard; re-running the
  // same session id is an idempotent replace. Failure to ingest never
  // fails the session — the result is already computed and durable.
  if (!knowledge_dir.empty()) {
    KnowledgeRecord rec = MakeKnowledgeRecord(
        spec.session_id, spec.tenant, system->name(), system->space(),
        system->MetricNames(), workload, spec.seed, spec.budget, *outcome);
    Status ingested = KnowledgeRepository(knowledge_dir).Ingest(rec);
    if (!ingested.ok()) {
      ATUNE_LOG(Warning) << "session " << spec.session_id
                         << ": knowledge ingest failed: "
                         << ingested.ToString();
    }
  }
  return job;
}

/// The admission checks: empty when `spec` may run, else what is wrong
/// with it. HandleStart runs them on every request and Recover() on every
/// `.meta`, which is outside input too (operators edit it by hand).
std::string SpecError(const StartRequest& spec,
                      const TunerRegistry& registry) {
  if (!ValidSessionId(spec.session_id)) {
    return "invalid session id (want [A-Za-z0-9._-], <= 128 chars)";
  }
  if (!spec.tenant.empty() && !ValidSessionId(spec.tenant)) {
    return "invalid tenant name (want [A-Za-z0-9._-], <= 128 chars)";
  }
  if (!registry.Contains(spec.tuner)) {
    return "unknown tuner '" + spec.tuner + "'";
  }
  if (spec.budget == 0) return "budget must be positive";
  if (spec.contention > kMaxContention) {
    return StrFormat("contention must be at most %" PRIu64 ", got %" PRIu64,
                     kMaxContention, spec.contention);
  }
  auto system = MakeSystemByName(spec.system, 0, spec.seed);
  if (!system.ok()) return system.status().message();
  auto workload = WorkloadByName(spec.system, spec.workload, spec.scale);
  return workload.ok() ? std::string() : workload.status().message();
}

}  // namespace

/// Per-connection state, owned by the reactor thread. `in` accumulates
/// received bytes until ExtractFrame peels complete frames off; `out`
/// buffers responses until EPOLLOUT drains them (writes happen only from
/// the event handler, so a frame handler can never free the connection it
/// is running on).
struct TuningDaemon::Conn {
  int fd = -1;
  uint64_t gen = 0;
  std::string in;
  std::string out;
  bool want_write = false;
  /// A long-poll Attach is outstanding: frame processing is deferred until
  /// it is answered (requests on one connection are strictly ordered).
  bool waiting = false;
  std::string attached_session;
  uint64_t last_activity_ms = 0;
};

TuningDaemon::TuningDaemon(DaemonOptions options)
    : options_(std::move(options)) {
  RegisterBuiltinTuners(&registry_);
}

TuningDaemon::~TuningDaemon() {
  for (auto& [fd, conn] : conns_) {
    reactor_.Remove(fd);
    ::close(fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    reactor_.Remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (drain_fd_ >= 0) {
    reactor_.Remove(drain_fd_);
    ::close(drain_fd_);
    drain_fd_ = -1;
  }
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
}

// ---- startup ----------------------------------------------------------------

Status TuningDaemon::Start() {
  if (started_) return Status::OK();
  if (!reactor_.ok()) {
    return Status::Internal("reactor construction failed (epoll/eventfd)");
  }
  if (::mkdir(options_.journal_dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir(" + options_.journal_dir +
                           "): " + std::strerror(errno));
  }
  ATUNE_RETURN_IF_ERROR(BindListener());

  drain_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (drain_fd_ < 0) {
    return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
  }
  ATUNE_RETURN_IF_ERROR(reactor_.Add(drain_fd_, EPOLLIN, [this](uint32_t) {
    uint64_t count = 0;
    while (::read(drain_fd_, &count, sizeof(count)) > 0) {
    }
    BeginDrain();
  }));
  ATUNE_RETURN_IF_ERROR(reactor_.Add(
      listen_fd_, EPOLLIN, [this](uint32_t) { OnListenerReadable(); }));

  pool_ = std::make_unique<ThreadPool>(std::max<size_t>(1, options_.workers));

  if (options_.recover) ATUNE_RETURN_IF_ERROR(Recover());

  if (options_.idle_timeout_ms > 0) {
    uint64_t interval = std::max<uint64_t>(100, options_.idle_timeout_ms / 2);
    // Self-rearming reap timer.
    struct Rearm {
      TuningDaemon* daemon;
      uint64_t interval;
      void operator()() const {
        daemon->ReapIdleConns();
        if (!daemon->reactor_.stopped()) {
          daemon->reactor_.AddTimer(Reactor::NowMs() + interval, Rearm{*this});
        }
      }
    };
    reactor_.AddTimer(Reactor::NowMs() + interval,
                      Rearm{this, interval});
  }

  started_ = true;
  ATUNE_LOG(Info) << "atuned listening on " << bound_address_ << " ("
                  << options_.workers << " workers, queue "
                  << options_.max_queue << ", quota "
                  << options_.tenant_budget_quota << ")";
  DispatchQueued();
  return Status::OK();
}

Status TuningDaemon::BindListener() {
  ATUNE_ASSIGN_OR_RETURN(ParsedAddress addr, ParseAddress(options_.listen));
  if (addr.is_unix) {
    struct sockaddr_un sun;
    std::memset(&sun, 0, sizeof(sun));
    sun.sun_family = AF_UNIX;
    if (addr.path.size() >= sizeof(sun.sun_path)) {
      return Status::InvalidArgument("unix path too long: " + addr.path);
    }
    std::memcpy(sun.sun_path, addr.path.c_str(), addr.path.size() + 1);
    ::unlink(addr.path.c_str());
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      return Status::IoError(std::string("socket: ") + std::strerror(errno));
    }
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&sun), sizeof(sun)) !=
        0) {
      Status status = Status::IoError("bind(" + addr.path +
                                      "): " + std::strerror(errno));
      ::close(fd);
      return status;
    }
    if (::listen(fd, kListenBacklog) != 0) {
      Status status =
          Status::IoError(std::string("listen: ") + std::strerror(errno));
      ::close(fd);
      return status;
    }
    listen_fd_ = fd;
    unix_path_ = addr.path;
    bound_address_ = "unix:" + addr.path;
    return Status::OK();
  }

  struct sockaddr_in sin;
  std::memset(&sin, 0, sizeof(sin));
  sin.sin_family = AF_INET;
  sin.sin_port = htons(addr.port);
  if (::inet_pton(AF_INET, addr.host.c_str(), &sin.sin_addr) != 1) {
    return Status::InvalidArgument("bad tcp host: " + addr.host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&sin), sizeof(sin)) != 0) {
    Status status = Status::IoError("bind(" + options_.listen +
                                    "): " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, kListenBacklog) != 0) {
    Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  struct sockaddr_in bound;
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len);
  char host[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &bound.sin_addr, host, sizeof(host));
  listen_fd_ = fd;
  bound_address_ =
      "tcp:" + std::string(host) + ":" + std::to_string(ntohs(bound.sin_port));
  return Status::OK();
}

Status TuningDaemon::Serve() {
  ATUNE_RETURN_IF_ERROR(Start());
  reactor_.Run();
  // Drain finished: every worker job has posted its completion (active_ is
  // only decremented on the loop thread), so the pool is idle.
  pool_->Shutdown();
  ATUNE_LOG(Info) << "atuned drained: " << stats_.completed << " done, "
                  << stats_.failed << " failed, " << stats_.cancelled
                  << " cancelled, " << stats_.deadline_exceeded
                  << " deadline-exceeded";
  return Status::OK();
}

void TuningDaemon::RequestDrain() {
  if (drain_fd_ >= 0) {
    uint64_t one = 1;
    ssize_t rc = ::write(drain_fd_, &one, sizeof(one));
    (void)rc;
  } else {
    reactor_.Post([this]() { BeginDrain(); });
  }
}

// ---- recovery ---------------------------------------------------------------

std::string TuningDaemon::MetaPath(const std::string& id) const {
  return options_.journal_dir + "/" + id + ".meta";
}
std::string TuningDaemon::WalPath(const std::string& id) const {
  return options_.journal_dir + "/" + id + ".wal";
}
std::string TuningDaemon::ResultPath(const std::string& id) const {
  return options_.journal_dir + "/" + id + ".result";
}
std::string TuningDaemon::KnowledgeDir() const {
  return options_.knowledge_dir.empty()
             ? options_.journal_dir + "/knowledge"
             : options_.knowledge_dir;
}

Status TuningDaemon::WriteMeta(
    const std::string& id, const StartRequest& spec,
    const std::vector<std::string>& warm_shards,
    uint64_t resume_attempts) const {
  std::ostringstream out;
  out << "tenant=" << SanitizeLine(spec.tenant) << "\n"
      << "tuner=" << SanitizeLine(spec.tuner) << "\n"
      << "system=" << SanitizeLine(spec.system) << "\n"
      << "workload=" << SanitizeLine(spec.workload) << "\n"
      << "scale_bits=0x" << std::hex << DoubleBits(spec.scale) << std::dec
      << "\n"
      << "budget=" << spec.budget << "\n"
      << "seed=" << spec.seed << "\n"
      << "deadline_ms=" << spec.deadline_ms << "\n"
      << "contention=" << spec.contention << "\n"
      << "warm_start=" << (spec.warm_start ? 1 : 0) << "\n"
      << "resume_attempts=" << resume_attempts << "\n";
  if (!warm_shards.empty()) {
    // Shard filenames are [A-Za-z0-9._-] by construction, so the comma
    // join is unambiguous.
    out << "warm_shards=";
    for (size_t i = 0; i < warm_shards.size(); ++i) {
      if (i > 0) out << ",";
      out << warm_shards[i];
    }
    out << "\n";
  }
  return AtomicWriteFile(MetaPath(id), out.str());
}

Status TuningDaemon::WriteResult(const std::string& id,
                                 const SessionEntry& entry) const {
  std::ostringstream out;
  out << "state=" << static_cast<int>(entry.state) << "\n"
      << "status_code=" << static_cast<int>(entry.result.status_code) << "\n"
      << "message=" << SanitizeLine(entry.result.message) << "\n"
      << "best_objective_bits=0x" << std::hex
      << DoubleBits(entry.result.best_objective) << "\n"
      << "checksum=0x" << entry.result.checksum << std::dec << "\n"
      << "trials=" << entry.result.trials << "\n"
      << "replayed=" << entry.result.replayed << "\n";
  return AtomicWriteFile(ResultPath(id), out.str());
}

Status TuningDaemon::Recover() {
  DIR* dir = ::opendir(options_.journal_dir.c_str());
  if (dir == nullptr) {
    return Status::IoError("opendir(" + options_.journal_dir +
                           "): " + std::strerror(errno));
  }
  std::vector<std::string> ids;
  while (struct dirent* ent = ::readdir(dir)) {
    std::string name = ent->d_name;
    constexpr const char kSuffix[] = ".meta";
    constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
    if (name.size() <= kSuffixLen ||
        name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) != 0) {
      continue;
    }
    ids.push_back(name.substr(0, name.size() - kSuffixLen));
  }
  ::closedir(dir);
  std::sort(ids.begin(), ids.end());

  for (const std::string& id : ids) {
    if (!ValidSessionId(id)) continue;
    std::string text;
    Status status = ReadFileToString(MetaPath(id), &text);
    if (!status.ok()) {
      ATUNE_LOG(Warning) << "recovery: skipping " << id << ": "
                         << status.ToString();
      continue;
    }
    auto kv = ParseKeyValueFile(text);
    StartRequest spec;
    spec.session_id = id;
    spec.tenant = GetStr(kv, "tenant");
    spec.tuner = GetStr(kv, "tuner");
    spec.system = GetStr(kv, "system");
    spec.workload = GetStr(kv, "workload");
    spec.scale = BitsToDouble(ParseU64(kv, "scale_bits", DoubleBits(1.0)));
    spec.budget = ParseU64(kv, "budget", 30);
    spec.seed = ParseU64(kv, "seed", 1);
    spec.deadline_ms = ParseU64(kv, "deadline_ms", 0);
    spec.contention = ParseU64(kv, "contention", 0);
    spec.warm_start = ParseU64(kv, "warm_start", 0) != 0;

    SessionEntry& entry = sessions_[id];
    entry.spec = spec;
    entry.cancel = std::make_shared<std::atomic<bool>>(false);
    // Re-pin the admission-time shard list: resume must map against the
    // exact snapshot the interrupted run used, not today's repository.
    std::string shards = GetStr(kv, "warm_shards");
    size_t start = 0;
    while (start < shards.size()) {
      size_t comma = shards.find(',', start);
      if (comma == std::string::npos) comma = shards.size();
      if (comma > start) {
        entry.warm_shards.push_back(shards.substr(start, comma - start));
      }
      start = comma + 1;
    }

    std::string result_text;
    if (ReadFileToString(ResultPath(id), &result_text).ok()) {
      // Terminal before the restart: load the durable result so reattaching
      // clients get the same answer; nothing to re-run.
      auto rkv = ParseKeyValueFile(result_text);
      entry.state = static_cast<SessionState>(ParseU64(rkv, "state", 0));
      if (!SessionStateTerminal(entry.state)) entry.state = SessionState::kFailed;
      entry.result.status_code =
          static_cast<uint8_t>(ParseU64(rkv, "status_code", 0));
      entry.result.message = GetStr(rkv, "message");
      entry.result.best_objective =
          BitsToDouble(ParseU64(rkv, "best_objective_bits", 0));
      entry.result.checksum = ParseU64(rkv, "checksum", 0);
      entry.result.trials = ParseU64(rkv, "trials", 0);
      entry.result.replayed = ParseU64(rkv, "replayed", 0);
      continue;
    }

    // Terminal kFailed with a durable .result, so restarts stop re-running
    // the session and reattaching clients get a clean error.
    auto fail_terminally = [&](StatusCode code, const std::string& message) {
      entry.state = SessionState::kFailed;
      entry.result.status_code = static_cast<uint8_t>(code);
      entry.result.message = Truncate(message);
      Status written = WriteResult(id, entry);
      if (!written.ok()) {
        ATUNE_LOG(Warning) << "recovery: failed result for " << id
                           << " not durable: " << written.ToString();
      }
    };

    // A sidecar that admission would refuse never runs.
    std::string error = SpecError(spec, registry_);
    if (!error.empty()) {
      fail_terminally(StatusCode::kInvalidArgument,
                      "invalid session spec: " + error);
      ATUNE_LOG(Warning) << "recovery: refusing session " << id << ": "
                         << error;
      continue;
    }

    // Interrupted (or admitted-but-never-run). A session that was already
    // re-queued max_resume_attempts times and still never reached a durable
    // result is a crash-looper — deterministically killing the daemon (or
    // the machine) every time it runs. Quarantine it as kInternal; the
    // daemon stays up for everyone else. Operators can clear the .result
    // (and .meta counter) to retry after a fix.
    const uint64_t attempts = ParseU64(kv, "resume_attempts", 0);
    if (options_.max_resume_attempts > 0 &&
        attempts >= options_.max_resume_attempts) {
      stats_.quarantined++;
      fail_terminally(StatusCode::kInternal,
                      "quarantined: " + std::to_string(attempts) +
                          " resume attempts without a durable result (crash "
                          "loop)");
      ATUNE_LOG(Warning) << "recovery: quarantined session " << id
                         << " after " << attempts << " failed resume attempts";
      continue;
    }
    // Persist the incremented attempt counter BEFORE the session can run
    // again: if this run also takes the daemon down, the next restart sees
    // the attempt. A failed rewrite is not fatal — the session still
    // resumes, the counter just does not advance on a hostile filesystem.
    Status counted = WriteMeta(id, spec, entry.warm_shards, attempts + 1);
    if (!counted.ok()) {
      ATUNE_LOG(Warning) << "recovery: resume-attempt counter for " << id
                         << " not durable: " << counted.ToString();
    }
    entry.state = SessionState::kQueued;
    entry.resume = FileExists(WalPath(id));
    stats_.recovered++;
    EnqueueSession(id);
    ATUNE_LOG(Info) << "recovery: re-queued session " << id << " (attempt "
                    << (attempts + 1) << ")"
                    << (entry.resume ? " (journal present, will resume)"
                                     : " (no journal, fresh start)");
  }
  return Status::OK();
}

// ---- connections ------------------------------------------------------------

void TuningDaemon::OnListenerReadable() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept failure: wait for next event
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->gen = next_conn_gen_++;
    conn->last_activity_ms = Reactor::NowMs();
    Status status = reactor_.Add(
        fd, EPOLLIN, [this, fd](uint32_t ev) { OnConnEvent(fd, ev); });
    if (!status.ok()) {
      ::close(fd);
      continue;
    }
    conns_[fd] = std::move(conn);
  }
}

void TuningDaemon::OnConnEvent(int fd, uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();

  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    DestroyConn(fd);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    FlushConn(conn);
    it = conns_.find(fd);
    if (it == conns_.end()) return;
    conn = it->second.get();
  }
  if ((events & EPOLLIN) != 0) {
    char buf[kReadChunk];
    while (true) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn->in.append(buf, static_cast<size_t>(n));
        conn->last_activity_ms = Reactor::NowMs();
        if (static_cast<size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0) {  // peer closed; any buffered partial frame dies with it
        DestroyConn(fd);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      DestroyConn(fd);
      return;
    }
    ProcessConn(conn);
  }
}

void TuningDaemon::ProcessConn(Conn* conn) {
  // Peel complete frames. A long-poll Attach pauses processing (`waiting`)
  // until its response is sent; remaining buffered frames keep their order.
  while (!conn->waiting && !conn->in.empty()) {
    std::string payload;
    size_t consumed = 0;
    Status status =
        ExtractFrame(conn->in.data(), conn->in.size(), &payload, &consumed);
    if (!status.ok()) {
      // Framing violated (oversize/CRC): nothing later on this stream can
      // be trusted — drop the connection. Sessions are unaffected.
      ATUNE_LOG(Warning) << "dropping connection: " << status.message();
      DestroyConn(conn->fd);
      return;
    }
    if (consumed == 0) return;  // incomplete frame: wait for more bytes
    conn->in.erase(0, consumed);
    if (!HandleFrame(conn, payload)) return;  // connection destroyed
  }
}

bool TuningDaemon::HandleFrame(Conn* conn, const std::string& payload) {
  auto type = PeekType(payload);
  if (!type.ok()) {
    // Well-framed but unknown type: the stream is fine, the request is not.
    ErrorResponse err;
    err.status_code = static_cast<uint8_t>(StatusCode::kInvalidArgument);
    err.message = Truncate(type.status().message());
    SendPayload(conn, EncodeErrorResponse(err));
    return true;
  }
  switch (*type) {
    case MsgType::kPingReq:
      SendPayload(conn, EncodePong());
      return true;
    case MsgType::kStartReq: {
      auto req = ParseStartRequest(payload);
      if (!req.ok()) break;
      HandleStart(conn, *req);
      return true;
    }
    case MsgType::kAttachReq: {
      auto req = ParseAttachRequest(payload);
      if (!req.ok()) break;
      HandleAttach(conn, *req);
      return true;
    }
    case MsgType::kCancelReq: {
      auto req = ParseCancelRequest(payload);
      if (!req.ok()) break;
      HandleCancel(conn, *req);
      return true;
    }
    case MsgType::kStatsReq: {
      StatsResponse stats = stats_;
      stats.active = active_;
      stats.queued = queue_.size();
      SendPayload(conn, EncodeStatsResponse(stats));
      return true;
    }
    default: {
      ErrorResponse err;
      err.status_code = static_cast<uint8_t>(StatusCode::kInvalidArgument);
      err.message = "unexpected message type";
      SendPayload(conn, EncodeErrorResponse(err));
      return true;
    }
  }
  // A well-framed payload whose body does not parse means the sender's
  // serializer disagrees with ours — framing can no longer be trusted.
  ATUNE_LOG(Warning) << "dropping connection: malformed message body";
  DestroyConn(conn->fd);
  return false;
}

void TuningDaemon::SendPayload(Conn* conn, const std::string& payload) {
  AppendFrame(payload, &conn->out);
  conn->last_activity_ms = Reactor::NowMs();
  if (!conn->want_write) {
    conn->want_write = true;
    // Level-triggered EPOLLOUT fires on the next loop iteration while the
    // socket is writable; all writes happen in the event handler so frame
    // handlers never have to survive their own connection being torn down.
    (void)reactor_.Modify(conn->fd, EPOLLIN | EPOLLOUT);
  }
}

void TuningDaemon::FlushConn(Conn* conn) {
  while (!conn->out.empty()) {
    ssize_t n = ::send(conn->fd, conn->out.data(), conn->out.size(),
                       MSG_NOSIGNAL);
    if (n > 0) {
      conn->out.erase(0, static_cast<size_t>(n));
      conn->last_activity_ms = Reactor::NowMs();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    DestroyConn(conn->fd);  // EPIPE/ECONNRESET: peer is gone
    return;
  }
  if (conn->want_write) {
    conn->want_write = false;
    (void)reactor_.Modify(conn->fd, EPOLLIN);
  }
}

void TuningDaemon::DestroyConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  if (conn->waiting && !conn->attached_session.empty()) {
    auto sit = sessions_.find(conn->attached_session);
    if (sit != sessions_.end()) {
      auto& waiters = sit->second.waiters;
      for (size_t i = 0; i < waiters.size(); ++i) {
        if (waiters[i].fd == fd && waiters[i].conn_gen == conn->gen) {
          reactor_.CancelTimer(waiters[i].timer_id);
          waiters.erase(waiters.begin() + i);
          break;
        }
      }
    }
  }
  reactor_.Remove(fd);
  ::close(fd);
  conns_.erase(it);
}

void TuningDaemon::ReapIdleConns() {
  if (options_.idle_timeout_ms == 0) return;
  uint64_t now = Reactor::NowMs();
  std::vector<int> stale;
  for (auto& [fd, conn] : conns_) {
    // Only peers stuck mid-exchange are reaped: unread request bytes (half
    // a frame then silence) or undeliverable response bytes. An idle but
    // clean connection — including a parked long-poll — costs nothing and
    // is left alone.
    bool mid_exchange = !conn->in.empty() || !conn->out.empty();
    if (mid_exchange && now - conn->last_activity_ms > options_.idle_timeout_ms) {
      stale.push_back(fd);
    }
  }
  for (int fd : stale) {
    ATUNE_LOG(Info) << "reaping stalled connection (fd " << fd << ")";
    DestroyConn(fd);
  }
}

// ---- admission & sessions ---------------------------------------------------

void TuningDaemon::HandleStart(Conn* conn, const StartRequest& req) {
  // Validate before admitting: bad ids/names are the *request's* fault
  // (kErrorResp), not a shed.
  std::string error = SpecError(req, registry_);
  if (!error.empty()) {
    ErrorResponse err;
    err.status_code = static_cast<uint8_t>(StatusCode::kInvalidArgument);
    err.message = Truncate(error);
    SendPayload(conn, EncodeErrorResponse(err));
    return;
  }

  StartResponse resp;

  auto existing = sessions_.find(req.session_id);
  if (existing != sessions_.end()) {
    // Idempotent re-submit (client retry after a torn connection): report
    // the session's current state; never double-start.
    stats_.reattached++;
    resp.code = AdmitCode::kAlreadyExists;
    resp.state = existing->second.state;
    SendPayload(conn, EncodeStartResponse(resp));
    return;
  }

  uint64_t retry_after = 0;
  AdmitCode code = Admit(req, &retry_after);
  resp.code = code;
  resp.retry_after_ms = retry_after;
  if (code != AdmitCode::kAccepted) {
    SendPayload(conn, EncodeStartResponse(resp));
    return;
  }

  // Warm-start snapshot pinning: the shard list is frozen at admission and
  // persisted with the meta, so however often this session is resumed it
  // maps against the same immutable files.
  std::vector<std::string> warm_shards;
  if (req.warm_start) {
    warm_shards = KnowledgeRepository(KnowledgeDir()).ListShards();
  }

  // Durable admission: the meta sidecar is on disk *before* the client
  // hears "accepted", so an accepted session survives any daemon crash.
  Status status = WriteMeta(req.session_id, req, warm_shards);
  if (!status.ok()) {
    ErrorResponse err;
    err.status_code = static_cast<uint8_t>(status.code());
    err.message = Truncate(status.message());
    SendPayload(conn, EncodeErrorResponse(err));
    return;
  }

  SessionEntry& entry = sessions_[req.session_id];
  entry.spec = req;
  entry.state = SessionState::kQueued;
  entry.cancel = std::make_shared<std::atomic<bool>>(false);
  entry.warm_shards = std::move(warm_shards);
  stats_.admitted++;
  EnqueueSession(req.session_id);
  DispatchQueued();
  resp.state = sessions_[req.session_id].state;
  SendPayload(conn, EncodeStartResponse(resp));
}

AdmitCode TuningDaemon::Admit(const StartRequest& req,
                              uint64_t* retry_after_ms) {
  *retry_after_ms = options_.retry_after_ms;
  if (draining_) {
    stats_.shed_draining++;
    return AdmitCode::kDraining;
  }
  if (queue_.size() >= options_.max_queue) {
    stats_.shed_queue_full++;
    return AdmitCode::kShedQueueFull;
  }
  double inflight = 0.0;
  auto it = tenant_inflight_budget_.find(req.tenant);
  if (it != tenant_inflight_budget_.end()) inflight = it->second;
  if (inflight + static_cast<double>(req.budget) >
      options_.tenant_budget_quota) {
    stats_.shed_tenant_quota++;
    return AdmitCode::kShedTenantQuota;
  }
  *retry_after_ms = 0;
  return AdmitCode::kAccepted;
}

void TuningDaemon::EnqueueSession(const std::string& id) {
  SessionEntry& entry = sessions_[id];
  tenant_inflight_budget_[entry.spec.tenant] +=
      static_cast<double>(entry.spec.budget);
  queue_.push_back(id);
  ArmDeadline(id, &entry);
}

void TuningDaemon::ArmDeadline(const std::string& id, SessionEntry* entry) {
  if (entry->spec.deadline_ms == 0) return;
  // The deadline clock starts at admission and covers queue wait too: a
  // session that never reaches a worker before its deadline is answered
  // kDeadlineExceeded just like one cancelled mid-run. (After a restart the
  // full deadline is re-armed from recovery time.)
  entry->deadline_timer = reactor_.AddTimer(
      Reactor::NowMs() + entry->spec.deadline_ms, [this, id]() {
        auto it = sessions_.find(id);
        if (it == sessions_.end()) return;
        SessionEntry& entry = it->second;
        entry.deadline_timer = 0;
        if (SessionStateTerminal(entry.state)) return;
        if (entry.state == SessionState::kQueued) {
          queue_.erase(std::remove(queue_.begin(), queue_.end(), id),
                       queue_.end());
          entry.cancel_reason = CancelReason::kDeadline;
          entry.result.status_code = static_cast<uint8_t>(StatusCode::kAborted);
          entry.result.message = "deadline exceeded before start";
          stats_.deadline_exceeded++;
          FinishSession(&entry, id, SessionState::kDeadlineExceeded);
          MaybeFinishDrain();
          return;
        }
        // Running: flag the worker; the session aborts at its next
        // evaluation boundary with the checkpoint journaled, and
        // OnSessionDone maps the kAborted by this reason.
        entry.cancel_reason = CancelReason::kDeadline;
        entry.cancel->store(true, std::memory_order_relaxed);
      });
}

void TuningDaemon::DispatchQueued() {
  while (active_ < std::max<size_t>(1, options_.workers) && !queue_.empty()) {
    std::string id = queue_.front();
    queue_.pop_front();
    SessionEntry& entry = sessions_[id];
    entry.state = SessionState::kRunning;
    active_++;
    StartRequest spec = entry.spec;
    std::string wal = WalPath(id);
    auto cancel = entry.cancel;
    std::string knowledge = KnowledgeDir();
    std::vector<std::string> shards = entry.warm_shards;
    const TunerRegistry* registry = &registry_;
    Reactor* reactor = &reactor_;
    TuningDaemon* daemon = this;
    (void)pool_->Submit([daemon, reactor, registry, spec, wal, cancel, id,
                         knowledge, shards]() {
      JobResult job =
          RunSessionJob(spec, wal, registry, cancel, knowledge, shards);
      reactor->Post([daemon, id, job]() {
        daemon->OnSessionDone(id, job.status, job.result);
      });
    });
  }
}

void TuningDaemon::OnSessionDone(const std::string& id, Status status,
                                 SessionResult result) {
  active_--;
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    DispatchQueued();
    MaybeFinishDrain();
    return;
  }
  SessionEntry& entry = it->second;
  if (entry.deadline_timer != 0) {
    reactor_.CancelTimer(entry.deadline_timer);
    entry.deadline_timer = 0;
  }

  SessionState state;
  if (status.ok()) {
    state = SessionState::kDone;
    entry.result = result;
    stats_.completed++;
  } else if (status.code() == StatusCode::kAborted) {
    entry.result.status_code = static_cast<uint8_t>(status.code());
    entry.result.message = Truncate(status.message());
    switch (entry.cancel_reason) {
      case CancelReason::kDeadline:
        state = SessionState::kDeadlineExceeded;
        stats_.deadline_exceeded++;
        break;
      case CancelReason::kClient:
        state = SessionState::kCancelled;
        stats_.cancelled++;
        break;
      default:
        // Drain (or an abort nobody asked for): the journal holds the
        // checkpoint; no .result file is written so a restart resumes it.
        state = SessionState::kInterrupted;
        break;
    }
  } else {
    state = SessionState::kFailed;
    entry.result.status_code = static_cast<uint8_t>(status.code());
    entry.result.message = Truncate(status.message());
    stats_.failed++;
  }

  FinishSession(&entry, id, state);
  DispatchQueued();
  MaybeFinishDrain();
}

void TuningDaemon::FinishSession(SessionEntry* entry, const std::string& id,
                                 SessionState state) {
  entry->state = state;
  if (entry->deadline_timer != 0) {
    reactor_.CancelTimer(entry->deadline_timer);
    entry->deadline_timer = 0;
  }
  auto it = tenant_inflight_budget_.find(entry->spec.tenant);
  if (it != tenant_inflight_budget_.end()) {
    it->second -= static_cast<double>(entry->spec.budget);
    if (it->second <= 0.0) tenant_inflight_budget_.erase(it);
  }
  if (state != SessionState::kInterrupted) {
    // kInterrupted deliberately leaves no .result sidecar: meta + journal
    // with no result is exactly what recovery re-queues.
    Status status = WriteResult(id, *entry);
    if (!status.ok()) {
      ATUNE_LOG(Warning) << "failed to persist result for " << id << ": "
                         << status.ToString();
    }
  }
  NotifyWaiters(id, entry);
}

AttachResponse TuningDaemon::MakeAttachResponse(
    const SessionEntry& entry) const {
  AttachResponse resp;
  resp.state = entry.state;
  if (SessionStateTerminal(entry.state)) resp.result = entry.result;
  return resp;
}

void TuningDaemon::NotifyWaiters(const std::string& id, SessionEntry* entry) {
  (void)id;
  if (entry->waiters.empty()) return;
  std::vector<Waiter> waiters;
  waiters.swap(entry->waiters);
  for (const Waiter& w : waiters) {
    reactor_.CancelTimer(w.timer_id);
    auto it = conns_.find(w.fd);
    if (it == conns_.end() || it->second->gen != w.conn_gen) continue;
    Conn* conn = it->second.get();
    conn->waiting = false;
    conn->attached_session.clear();
    SendPayload(conn, EncodeAttachResponse(MakeAttachResponse(*entry)));
    ProcessConn(conn);  // resume any frames buffered behind the long-poll
  }
}

void TuningDaemon::HandleAttach(Conn* conn, const AttachRequest& req) {
  auto it = sessions_.find(req.session_id);
  if (it == sessions_.end()) {
    AttachResponse resp;
    resp.state = SessionState::kUnknown;
    SendPayload(conn, EncodeAttachResponse(resp));
    return;
  }
  SessionEntry& entry = it->second;
  if (SessionStateTerminal(entry.state) || req.wait_ms == 0) {
    SendPayload(conn, EncodeAttachResponse(MakeAttachResponse(entry)));
    return;
  }
  // Long-poll: park the request until the session reaches a terminal state
  // or the per-request deadline fires, whichever is first.
  uint64_t wait = std::min<uint64_t>(req.wait_ms, options_.max_wait_ms);
  int fd = conn->fd;
  uint64_t gen = conn->gen;
  std::string id = req.session_id;
  uint64_t timer = reactor_.AddTimer(
      Reactor::NowMs() + wait, [this, fd, gen, id]() {
        auto sit = sessions_.find(id);
        auto cit = conns_.find(fd);
        if (cit == conns_.end() || cit->second->gen != gen) {
          // Connection replaced/destroyed; waiter entry (if any) will be
          // scrubbed with it.
          return;
        }
        Conn* waiter_conn = cit->second.get();
        if (sit != sessions_.end()) {
          auto& waiters = sit->second.waiters;
          for (size_t i = 0; i < waiters.size(); ++i) {
            if (waiters[i].fd == fd && waiters[i].conn_gen == gen) {
              waiters.erase(waiters.begin() + i);
              break;
            }
          }
        }
        waiter_conn->waiting = false;
        waiter_conn->attached_session.clear();
        // Per-request deadline expired: answer with the *current* state
        // (non-terminal); the client may re-attach.
        AttachResponse resp;
        resp.state = sit == sessions_.end() ? SessionState::kUnknown
                                            : sit->second.state;
        SendPayload(waiter_conn, EncodeAttachResponse(resp));
        ProcessConn(waiter_conn);
      });
  conn->waiting = true;
  conn->attached_session = id;
  entry.waiters.push_back(Waiter{fd, gen, timer});
}

void TuningDaemon::HandleCancel(Conn* conn, const CancelRequest& req) {
  CancelResponse resp;
  auto it = sessions_.find(req.session_id);
  if (it == sessions_.end()) {
    SendPayload(conn, EncodeCancelResponse(resp));
    return;
  }
  resp.found = true;
  SessionEntry& entry = it->second;
  if (SessionStateTerminal(entry.state)) {
    SendPayload(conn, EncodeCancelResponse(resp));
    return;
  }
  if (entry.state == SessionState::kQueued) {
    queue_.erase(std::remove(queue_.begin(), queue_.end(), req.session_id),
                 queue_.end());
    entry.cancel_reason = CancelReason::kClient;
    entry.result.status_code = static_cast<uint8_t>(StatusCode::kAborted);
    entry.result.message = "cancelled before start";
    stats_.cancelled++;
    FinishSession(&entry, req.session_id, SessionState::kCancelled);
    MaybeFinishDrain();
  } else {
    entry.cancel_reason = CancelReason::kClient;
    entry.cancel->store(true, std::memory_order_relaxed);
  }
  SendPayload(conn, EncodeCancelResponse(resp));
}

// ---- drain ------------------------------------------------------------------

void TuningDaemon::BeginDrain() {
  if (draining_) return;
  draining_ = true;
  ATUNE_LOG(Info) << "drain requested: " << queue_.size() << " queued, "
                  << active_ << " running";
  // Queued sessions never started: leave meta (+ any recovered journal) in
  // place and mark them interrupted — the next daemon picks them up.
  std::deque<std::string> queued;
  queued.swap(queue_);
  for (const std::string& id : queued) {
    auto it = sessions_.find(id);
    if (it == sessions_.end()) continue;
    it->second.cancel_reason = CancelReason::kDrain;
    FinishSession(&it->second, id, SessionState::kInterrupted);
  }
  // Running sessions checkpoint at their next evaluation boundary.
  for (auto& [id, entry] : sessions_) {
    if (entry.state == SessionState::kRunning) {
      entry.cancel_reason = CancelReason::kDrain;
      entry.cancel->store(true, std::memory_order_relaxed);
    }
  }
  MaybeFinishDrain();
}

void TuningDaemon::MaybeFinishDrain() {
  if (!draining_ || active_ != 0 || !queue_.empty()) return;
  ATUNE_LOG(Info) << "drain complete";
  reactor_.Stop();
}

}  // namespace atune
