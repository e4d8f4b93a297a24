#ifndef ATUNE_NET_TRANSPORT_H_
#define ATUNE_NET_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/io_env.h"  // IoRetryPolicy: shared retry/backoff bounds
#include "common/random.h"
#include "common/status.h"

namespace atune {

/// Byte-stream transport abstraction over a connected socket — the network
/// sibling of IoFile (common/io_env.h), with the same one-attempt contract:
///
///  * Read()/Write() are ONE syscall attempt and may move fewer bytes than
///    asked (short read/write). On failure *transient says whether the error
///    is worth a bounded retry (EINTR, EAGAIN on a blocking socket with a
///    receive timeout counts as a stall tick); ECONNRESET/EPIPE/EOF are not
///    transient — the peer is gone.
///  * ReadFully()/WriteFully() are the bounded deterministic retry loops
///    everything uses, parameterized by the SAME IoRetryPolicy struct (and
///    defaults) as the filesystem seam's WriteFully — one set of retry/
///    backoff bound constants for the whole codebase, not a duplicate.
///  * Read() returning OK with *nread == 0 is clean EOF (peer closed).
///
/// SIGPIPE note: atuned and atune_cli ignore SIGPIPE process-wide, so a
/// write to a dead peer surfaces here as a clean EPIPE Status instead of
/// killing the process mid-journal-append.
class Transport {
 public:
  virtual ~Transport() = default;

  /// ONE read attempt. OK + *nread == 0 means EOF.
  virtual Status Read(void* buf, size_t n, size_t* nread, bool* transient) = 0;

  /// ONE write attempt; *written may be < n (short write).
  virtual Status Write(const void* buf, size_t n, size_t* written,
                       bool* transient) = 0;

  /// Backoff before retry `attempt` (1-based) of a transient error. The
  /// real transport sleeps (bounded exponential); the fault-injecting
  /// transport counts and returns, keeping faulted runs deterministic.
  virtual void Backoff(size_t attempt) = 0;

  virtual Status Close() = 0;
};

/// Reads exactly `n` bytes: reassembles short reads (no retry budget spent —
/// progress was made), retries transient errors up to policy.max_attempts
/// with t->Backoff between attempts, and surfaces EOF mid-buffer as a
/// non-transient kIoError ("peer closed mid-frame"). Mirrors
/// atune::WriteFully (common/io_env.cc) exactly — same policy struct, same
/// bounds, same exhaustion semantics.
Status ReadFully(Transport* t, void* buf, size_t n,
                 const IoRetryPolicy& policy = IoRetryPolicy());

/// Writes exactly `n` bytes with the same loop as ReadFully.
Status WriteFully(Transport* t, const void* buf, size_t n,
                  const IoRetryPolicy& policy = IoRetryPolicy());

/// Transport over a connected file descriptor (socket or pipe). Blocking
/// unless the fd is O_NONBLOCK (the client uses blocking fds with a receive
/// timeout; the reactor uses nonblocking fds and its own event loop instead
/// of the Fully loops). Owns the fd.
class FdTransport : public Transport {
 public:
  explicit FdTransport(int fd) : fd_(fd) {}
  ~FdTransport() override { (void)Close(); }

  Status Read(void* buf, size_t n, size_t* nread, bool* transient) override;
  Status Write(const void* buf, size_t n, size_t* written,
               bool* transient) override;
  void Backoff(size_t attempt) override;
  Status Close() override;

 private:
  int fd_ = -1;
};

// ---- deterministic network fault injection ---------------------------------

/// What an injected network fault does. Deterministic functions of
/// (schedule, op sequence), like IoFaultKind — a faulted exchange replays
/// bit-identically.
enum class NetFaultKind : uint8_t {
  kEintr = 0,    ///< fails with a retryable EINTR (storm via count)
  kShortRead,    ///< delivers at most half the requested bytes (min 1)
  kShortWrite,   ///< accepts at most half the buffer (min 1 byte)
  kStallTick,    ///< retryable timeout tick (stalled peer); a storm longer
                 ///< than the retry bound exhausts the caller's loop
  kDisconnect,   ///< non-transient ECONNRESET; the underlying transport is
                 ///< closed, so a mid-frame write really tears the frame
};
inline constexpr size_t kNumNetFaultKinds = 5;
const char* NetFaultKindToString(NetFaultKind kind);

/// Which direction an op rule targets.
enum class NetOpKind : uint8_t { kRead = 0, kWrite = 1 };
inline constexpr size_t kNumNetOpKinds = 2;

/// Deterministic per-op fault schedule, the network sibling of
/// IoFaultSchedule: targeted rules key on the index of the op within its
/// direction (the 3rd read, the 1st write, ...) counted from transport
/// construction; rate-based faults draw from a seeded Rng once per op.
struct NetFaultSchedule {
  struct Rule {
    NetOpKind op = NetOpKind::kWrite;
    uint64_t at = 0;  ///< 0-based index within that direction
    NetFaultKind fault = NetFaultKind::kEintr;
    uint64_t count = 1;  ///< consecutive ops affected (EINTR/stall storms)
  };
  std::vector<Rule> rules;

  uint64_t seed = 0;            ///< seeds the rate-based draws
  double eintr_rate = 0.0;      ///< P(EINTR) per op
  double short_rate = 0.0;      ///< P(short read/write) per op
  double stall_rate = 0.0;      ///< P(stall tick) per op
  double disconnect_rate = 0.0; ///< P(mid-frame disconnect) per op

  /// Convenience: one rule.
  static NetFaultSchedule Single(NetOpKind op, uint64_t at, NetFaultKind fault,
                                 uint64_t count = 1);

  /// A mixed hostile-network schedule whose per-op fault probability sums
  /// to `rate` (the bench's "15% transport-fault schedule" is FromRate(.15)):
  /// EINTR at rate/2, short ops at rate/4, stalls at rate/8, mid-frame
  /// disconnects at rate/8.
  static NetFaultSchedule FromRate(double rate, uint64_t seed);
};

/// Transport decorator injecting the schedule's faults — the network
/// sibling of FaultInjectingIoEnv. Backoff is a counted no-op so faulted
/// exchanges stay deterministic and fast. Not thread-safe (client-side and
/// test use only).
class FaultInjectingTransport : public Transport {
 public:
  /// Takes ownership of `base`.
  FaultInjectingTransport(std::unique_ptr<Transport> base,
                          NetFaultSchedule schedule);

  Status Read(void* buf, size_t n, size_t* nread, bool* transient) override;
  Status Write(const void* buf, size_t n, size_t* written,
               bool* transient) override;
  void Backoff(size_t attempt) override { backoffs_ += attempt > 0 ? 1 : 0; }
  Status Close() override { return base_->Close(); }

  uint64_t ops(NetOpKind kind) const {
    return op_counts_[static_cast<size_t>(kind)];
  }
  uint64_t injected(NetFaultKind fault) const {
    return injected_[static_cast<size_t>(fault)];
  }
  uint64_t injected_total() const;
  uint64_t backoffs() const { return backoffs_; }

 private:
  /// Advances the per-direction op counter and returns the fault (if any)
  /// the schedule assigns to this occurrence.
  bool NextFault(NetOpKind kind, NetFaultKind* fault);

  std::unique_ptr<Transport> base_;
  NetFaultSchedule schedule_;
  Rng rng_;
  uint64_t op_counts_[kNumNetOpKinds] = {};
  uint64_t injected_[kNumNetFaultKinds] = {};
  uint64_t backoffs_ = 0;
};

// ---- connect helpers --------------------------------------------------------

/// Address grammar shared by atuned, the client, and the CLI:
///   "unix:<path>"          Unix-domain stream socket (the default idiom)
///   "tcp:<host>:<port>"    IPv4 TCP (host must be a dotted quad)
/// A bare string with no prefix is treated as a unix path.
struct ParsedAddress {
  bool is_unix = true;
  std::string path;  ///< unix socket path
  std::string host;  ///< tcp host
  uint16_t port = 0;
};
Result<ParsedAddress> ParseAddress(const std::string& address);

/// Connects a blocking stream socket to `address` with a receive/send
/// timeout of `io_timeout_ms` (0 = no timeout) so a stalled peer surfaces
/// as transient timeout ticks instead of hanging forever.
Result<std::unique_ptr<Transport>> ConnectTransport(const std::string& address,
                                                    uint64_t io_timeout_ms);

/// Ignores SIGPIPE process-wide. Both atuned and atune_cli call this at
/// startup so a broken pipe (dead client, closed stdout) surfaces as EPIPE
/// through the Status path instead of killing the process mid-journal-append.
void IgnoreSigPipe();

}  // namespace atune

#endif  // ATUNE_NET_TRANSPORT_H_
