#include "net/transport.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <signal.h>
#include <cstring>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>

#include "common/string_util.h"

namespace atune {
namespace {

Status Errno(const char* op) {
  return Status::IoError(StrFormat("%s: %s", op, std::strerror(errno)));
}

/// The one retry loop, shared by ReadFully and WriteFully: `step` performs
/// one attempt over the not-yet-moved suffix and reports (moved, transient,
/// status). Bounds and exhaustion semantics mirror atune::WriteFully in
/// common/io_env.cc — the policy struct IS the shared constant set.
template <typename Step>
Status FullyLoop(Transport* t, size_t n, const IoRetryPolicy& policy,
                 const char* what, Step step) {
  size_t done = 0;
  size_t attempts = 0;
  const size_t max_attempts = std::max<size_t>(1, policy.max_attempts);
  while (done < n) {
    size_t moved = 0;
    bool transient = false;
    Status status = step(done, &moved, &transient);
    if (status.ok() && moved > 0) {
      done += moved;
      attempts = 0;  // progress resets the retry budget
      continue;
    }
    if (status.ok()) {
      // Zero bytes without an error: EOF on read, a no-progress write.
      // Neither is retryable — the peer is gone or the socket is broken.
      return Status::IoError(StrFormat("%s: peer closed mid-frame after "
                                       "%zu/%zu bytes",
                                       what, done, n));
    }
    if (!transient) return status;
    ++attempts;
    if (attempts >= max_attempts) {
      return Status::IoError(
          StrFormat("%s failed after %zu transient-error retries: %s", what,
                    attempts, status.message().c_str()));
    }
    t->Backoff(attempts);
  }
  return Status::OK();
}

}  // namespace

Status ReadFully(Transport* t, void* buf, size_t n,
                 const IoRetryPolicy& policy) {
  char* p = static_cast<char*>(buf);
  return FullyLoop(t, n, policy, "read",
                   [t, p, n](size_t done, size_t* moved, bool* transient) {
                     return t->Read(p + done, n - done, moved, transient);
                   });
}

Status WriteFully(Transport* t, const void* buf, size_t n,
                  const IoRetryPolicy& policy) {
  const char* p = static_cast<const char*>(buf);
  return FullyLoop(t, n, policy, "write",
                   [t, p, n](size_t done, size_t* moved, bool* transient) {
                     return t->Write(p + done, n - done, moved, transient);
                   });
}

// ---- FdTransport ------------------------------------------------------------

Status FdTransport::Read(void* buf, size_t n, size_t* nread, bool* transient) {
  *nread = 0;
  *transient = false;
  if (fd_ < 0) return Status::IoError("read on closed transport");
  ssize_t r = ::read(fd_, buf, n);
  if (r >= 0) {
    *nread = static_cast<size_t>(r);
    return Status::OK();  // r == 0 is EOF
  }
  // EAGAIN on a blocking socket means the receive timeout fired: a stalled
  // peer. One tick is transient; a storm longer than the retry bound
  // exhausts the caller's loop — exactly the bounded-patience contract.
  *transient = errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK;
  return Errno("read");
}

Status FdTransport::Write(const void* buf, size_t n, size_t* written,
                          bool* transient) {
  *written = 0;
  *transient = false;
  if (fd_ < 0) return Status::IoError("write on closed transport");
  ssize_t r = ::write(fd_, buf, n);
  if (r >= 0) {
    *written = static_cast<size_t>(r);
    return Status::OK();
  }
  *transient = errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK;
  return Errno("write");
}

void FdTransport::Backoff(size_t attempt) {
  // DefaultIoEnv::Backoff's sleep, at the IoRetryPolicy defaults.
  SleepBackoff(IoRetryPolicy(), attempt);
}

Status FdTransport::Close() {
  if (fd_ < 0) return Status::OK();
  int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) return Errno("close");
  return Status::OK();
}

// ---- fault injection ---------------------------------------------------------

const char* NetFaultKindToString(NetFaultKind kind) {
  switch (kind) {
    case NetFaultKind::kEintr: return "eintr";
    case NetFaultKind::kShortRead: return "short-read";
    case NetFaultKind::kShortWrite: return "short-write";
    case NetFaultKind::kStallTick: return "stall";
    case NetFaultKind::kDisconnect: return "disconnect";
  }
  return "unknown";
}

NetFaultSchedule NetFaultSchedule::Single(NetOpKind op, uint64_t at,
                                          NetFaultKind fault, uint64_t count) {
  NetFaultSchedule s;
  s.rules.push_back(Rule{op, at, fault, count});
  return s;
}

NetFaultSchedule NetFaultSchedule::FromRate(double rate, uint64_t seed) {
  NetFaultSchedule s;
  s.seed = seed;
  s.eintr_rate = rate / 2;
  s.short_rate = rate / 4;
  s.stall_rate = rate / 8;
  s.disconnect_rate = rate / 8;
  return s;
}

FaultInjectingTransport::FaultInjectingTransport(
    std::unique_ptr<Transport> base, NetFaultSchedule schedule)
    : base_(std::move(base)),
      schedule_(std::move(schedule)),
      rng_(schedule_.seed) {}

uint64_t FaultInjectingTransport::injected_total() const {
  uint64_t total = 0;
  for (uint64_t count : injected_) total += count;
  return total;
}

bool FaultInjectingTransport::NextFault(NetOpKind kind, NetFaultKind* fault) {
  uint64_t index = op_counts_[static_cast<size_t>(kind)]++;
  for (const NetFaultSchedule::Rule& rule : schedule_.rules) {
    if (rule.op != kind) continue;
    if (index >= rule.at && index < rule.at + rule.count) {
      *fault = rule.fault;
      return true;
    }
  }
  // Rate-based draws: one uniform per fault class per op, in a fixed order,
  // so identical op sequences see identical faults.
  if (schedule_.eintr_rate > 0.0 &&
      rng_.Uniform() < schedule_.eintr_rate) {
    *fault = NetFaultKind::kEintr;
    return true;
  }
  if (schedule_.short_rate > 0.0 && rng_.Uniform() < schedule_.short_rate) {
    *fault = kind == NetOpKind::kRead ? NetFaultKind::kShortRead
                                      : NetFaultKind::kShortWrite;
    return true;
  }
  if (schedule_.stall_rate > 0.0 && rng_.Uniform() < schedule_.stall_rate) {
    *fault = NetFaultKind::kStallTick;
    return true;
  }
  if (schedule_.disconnect_rate > 0.0 &&
      rng_.Uniform() < schedule_.disconnect_rate) {
    *fault = NetFaultKind::kDisconnect;
    return true;
  }
  return false;
}

Status FaultInjectingTransport::Read(void* buf, size_t n, size_t* nread,
                                     bool* transient) {
  *nread = 0;
  *transient = false;
  NetFaultKind fault;
  if (NextFault(NetOpKind::kRead, &fault)) {
    switch (fault) {
      case NetFaultKind::kEintr:
        ++injected_[static_cast<size_t>(fault)];
        *transient = true;
        return Status::IoError("injected EINTR (read)");
      case NetFaultKind::kStallTick:
        ++injected_[static_cast<size_t>(fault)];
        *transient = true;
        return Status::IoError("injected stall tick (read)");
      case NetFaultKind::kDisconnect:
        ++injected_[static_cast<size_t>(fault)];
        (void)base_->Close();  // the peer really is gone mid-frame
        return Status::IoError("injected disconnect (read)");
      case NetFaultKind::kShortRead: {
        ++injected_[static_cast<size_t>(fault)];
        size_t limit = std::max<size_t>(1, n / 2);
        return base_->Read(buf, limit, nread, transient);
      }
      case NetFaultKind::kShortWrite:
        break;  // not a read fault; fall through to clean read
    }
  }
  return base_->Read(buf, n, nread, transient);
}

Status FaultInjectingTransport::Write(const void* buf, size_t n,
                                      size_t* written, bool* transient) {
  *written = 0;
  *transient = false;
  NetFaultKind fault;
  if (NextFault(NetOpKind::kWrite, &fault)) {
    switch (fault) {
      case NetFaultKind::kEintr:
        ++injected_[static_cast<size_t>(fault)];
        *transient = true;
        return Status::IoError("injected EINTR (write)");
      case NetFaultKind::kStallTick:
        ++injected_[static_cast<size_t>(fault)];
        *transient = true;
        return Status::IoError("injected stall tick (write)");
      case NetFaultKind::kDisconnect: {
        // Tear the frame for real: push a deterministic prefix through,
        // then close — the peer sees half a frame followed by EOF.
        ++injected_[static_cast<size_t>(fault)];
        size_t prefix = n / 2;
        if (prefix > 0) {
          size_t moved = 0;
          bool t = false;
          (void)base_->Write(buf, prefix, &moved, &t);
        }
        (void)base_->Close();
        return Status::IoError("injected disconnect (write)");
      }
      case NetFaultKind::kShortWrite: {
        ++injected_[static_cast<size_t>(fault)];
        size_t limit = std::max<size_t>(1, n / 2);
        return base_->Write(buf, limit, written, transient);
      }
      case NetFaultKind::kShortRead:
        break;  // not a write fault; fall through to clean write
    }
  }
  return base_->Write(buf, n, written, transient);
}

// ---- connect helpers ---------------------------------------------------------

Result<ParsedAddress> ParseAddress(const std::string& address) {
  ParsedAddress parsed;
  if (StartsWith(address, "unix:")) {
    parsed.is_unix = true;
    parsed.path = address.substr(5);
  } else if (StartsWith(address, "tcp:")) {
    std::string rest = address.substr(4);
    size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= rest.size()) {
      return Status::InvalidArgument("tcp address must be tcp:host:port");
    }
    parsed.is_unix = false;
    parsed.host = rest.substr(0, colon);
    unsigned long port = std::strtoul(rest.c_str() + colon + 1, nullptr, 10);
    if (port > 65535) {
      return Status::InvalidArgument("tcp port out of range");
    }
    parsed.port = static_cast<uint16_t>(port);
  } else {
    parsed.is_unix = true;
    parsed.path = address;
  }
  if (parsed.is_unix) {
    if (parsed.path.empty()) {
      return Status::InvalidArgument("empty unix socket path");
    }
    if (parsed.path.size() >= sizeof(sockaddr_un::sun_path)) {
      return Status::InvalidArgument("unix socket path too long");
    }
  }
  return parsed;
}

Result<std::unique_ptr<Transport>> ConnectTransport(const std::string& address,
                                                    uint64_t io_timeout_ms) {
  ATUNE_ASSIGN_OR_RETURN(ParsedAddress parsed, ParseAddress(address));
  int fd = -1;
  if (parsed.is_unix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket");
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, parsed.path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Status s = Errno("connect");
      ::close(fd);
      return s;
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket");
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(parsed.port);
    if (::inet_pton(AF_INET, parsed.host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      return Status::InvalidArgument("tcp host must be a dotted quad");
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Status s = Errno("connect");
      ::close(fd);
      return s;
    }
  }
  if (io_timeout_ms > 0) {
    struct timeval tv;
    tv.tv_sec = static_cast<time_t>(io_timeout_ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((io_timeout_ms % 1000) * 1000);
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  return std::unique_ptr<Transport>(new FdTransport(fd));
}

void IgnoreSigPipe() { ::signal(SIGPIPE, SIG_IGN); }

}  // namespace atune
