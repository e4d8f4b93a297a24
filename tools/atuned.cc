// atuned — the tuning service daemon (DESIGN.md §13).
//
//   atuned --listen=unix:/tmp/atuned.sock --journal-dir=/var/lib/atuned
//   atuned --listen=tcp:127.0.0.1:0 --workers=8 --max-queue=128
//
// A single epoll reactor thread multiplexes the CRC-framed wire protocol
// over any number of client connections and executes tuning sessions on a
// worker pool. Robustness properties:
//
//   * admission control: per-tenant budget quotas + a bounded session queue;
//     excess load is shed with RETRY_AFTER, never queued unboundedly
//   * deadlines: per-session deadlines cancel cleanly at the next evaluation
//     boundary with the checkpoint journaled
//   * graceful drain: SIGTERM/SIGINT stop admission, checkpoint in-flight
//     sessions, and exit
//   * restart recovery: on startup the journal directory is rescanned and
//     every interrupted session resumes bit-identically via replay
//
// Flags:
//   --listen=ADDR            unix:<path> or tcp:<host>:<port>  [unix:atuned.sock]
//                            (tcp port 0 binds an ephemeral port; the bound
//                            address is printed on stdout)
//   --journal-dir=PATH       durable session state (meta/wal/result) [atuned-state]
//   --knowledge-dir=PATH     knowledge repository shards [<journal-dir>/knowledge]
//   --workers=N              concurrent tuning sessions          [4]
//   --max-queue=N            bounded admission queue             [64]
//   --tenant-quota=F         per-tenant in-flight budget quota   [256]
//   --retry-after-ms=N       shed backoff hint                   [50]
//   --idle-timeout-ms=N      reap stalled mid-frame connections  [30000, 0=off]
//   --no-recover             skip startup journal-dir recovery
//   --quiet                  warnings and errors only
//
// Exit codes: 0 clean drain, 1 startup/serve failure, 2 bad flags.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <unistd.h>

#include "common/logging.h"
#include "common/string_util.h"
#include "net/daemon.h"
#include "net/transport.h"

namespace atune {
namespace {

/// The daemon's drain eventfd; the SIGTERM/SIGINT handler writes to it
/// (write() is async-signal-safe) to request a graceful drain.
volatile int g_drain_fd = -1;

void HandleSignal(int /*sig*/) {
  int fd = g_drain_fd;
  if (fd < 0) return;
  uint64_t one = 1;
  ssize_t rc = ::write(fd, &one, sizeof(one));
  (void)rc;
}

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (!StartsWith(arg, prefix)) return false;
  *out = arg.substr(prefix.size());
  return true;
}

/// A numeric flag whose value ParseNumber refuses: exit 2.
int BadNumber(const std::string& arg) {
  std::fprintf(stderr, "not a valid number: %s\n", arg.c_str());
  return 2;
}

int Run(int argc, char** argv) {
  DaemonOptions options;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "listen", &value)) {
      options.listen = value;
    } else if (ParseFlag(arg, "journal-dir", &value)) {
      options.journal_dir = value;
    } else if (ParseFlag(arg, "workers", &value)) {
      if (!ParseNumber(value, &options.workers)) return BadNumber(arg);
      if (options.workers == 0) options.workers = 1;
    } else if (ParseFlag(arg, "max-queue", &value)) {
      if (!ParseNumber(value, &options.max_queue)) return BadNumber(arg);
    } else if (ParseFlag(arg, "tenant-quota", &value)) {
      if (!ParseNumber(value, &options.tenant_budget_quota)) {
        return BadNumber(arg);
      }
    } else if (ParseFlag(arg, "retry-after-ms", &value)) {
      if (!ParseNumber(value, &options.retry_after_ms)) return BadNumber(arg);
    } else if (ParseFlag(arg, "idle-timeout-ms", &value)) {
      if (!ParseNumber(value, &options.idle_timeout_ms)) return BadNumber(arg);
    } else if (ParseFlag(arg, "knowledge-dir", &value)) {
      options.knowledge_dir = value;
    } else if (arg == "--no-recover") {
      options.recover = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (!quiet) SetLogLevel(LogLevel::kInfo);

  // Broken pipes (dead clients) must surface as EPIPE through the Status
  // path, never kill the daemon mid-journal-append.
  IgnoreSigPipe();

  TuningDaemon daemon(std::move(options));
  Status status = daemon.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "atuned: start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  // Scripts (and the smoke test) read the bound address from stdout —
  // essential with tcp port 0.
  std::printf("listening %s\n", daemon.bound_address().c_str());
  std::fflush(stdout);

  g_drain_fd = daemon.drain_eventfd();
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  status = daemon.Serve();
  g_drain_fd = -1;
  if (!status.ok()) {
    std::fprintf(stderr, "atuned: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace atune

int main(int argc, char** argv) { return atune::Run(argc, argv); }
