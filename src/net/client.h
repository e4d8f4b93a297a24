#ifndef ATUNE_NET_CLIENT_H_
#define ATUNE_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/io_env.h"  // IoRetryPolicy: shared retry/backoff bounds
#include "common/status.h"
#include "net/transport.h"
#include "net/wire.h"

namespace atune {

/// Client for the atuned wire protocol (DESIGN.md §13). One synchronous
/// request/response exchange at a time; every request is idempotent at the
/// protocol level (StartSession by client-chosen session id, Attach/Cancel/
/// Stats by nature), so the client retries any exchange that dies on a torn
/// connection with bounded exponential backoff and a fresh connection —
/// after a reconnect a retried StartSession simply *reattaches*
/// (kAlreadyExists), it never double-starts a session.
///
/// Not thread-safe: one TuningClient per thread.
class TuningClient {
 public:
  struct Options {
    /// "unix:<path>" or "tcp:<host>:<port>" (see ParseAddress).
    std::string address;
    /// Socket receive/send timeout: a stalled daemon surfaces as transient
    /// timeout ticks bounded by `retry`, not a hang. 0 = no timeout.
    uint64_t io_timeout_ms = 10000;
    /// Retry/backoff bounds for connects, reconnects, and full exchanges —
    /// the SAME policy struct (and defaults) as the filesystem seam's
    /// WriteFully and the transport's ReadFully/WriteFully.
    IoRetryPolicy retry;
    /// Deterministic transport fault injection (tests and bench_service):
    /// every connection is wrapped in a FaultInjectingTransport running
    /// `faults` with the seed perturbed by the connection ordinal, so
    /// reconnects see different (but reproducible) fault positions.
    bool inject_faults = false;
    NetFaultSchedule faults;
  };

  explicit TuningClient(Options options) : options_(std::move(options)) {}
  ~TuningClient() { Disconnect(); }
  TuningClient(const TuningClient&) = delete;
  TuningClient& operator=(const TuningClient&) = delete;

  Status Ping();

  /// Submits a session. kAccepted and kAlreadyExists are both success (the
  /// latter means an earlier attempt already landed); shed codes come back
  /// in the response for the caller's retry loop (RetryStart below).
  Result<StartResponse> StartSession(const StartRequest& request);

  /// StartSession with shed handling: on kShedQueueFull/kShedTenantQuota
  /// the client sleeps the server's retry_after_ms hint (bounded
  /// exponential on repeat sheds) and resubmits, up to `max_attempts`.
  /// kDraining is returned to the caller immediately (this daemon is going
  /// away; retrying at it is pointless).
  Result<StartResponse> RetryStart(const StartRequest& request,
                                   size_t max_attempts = 16);

  /// Polls a session. wait_ms > 0 long-polls on the server.
  Result<AttachResponse> Attach(const std::string& session_id,
                                uint64_t wait_ms);

  /// Long-polls until the session is terminal or `overall_timeout_ms`
  /// elapses (0 = wait forever). A non-terminal state in the returned
  /// response means the timeout fired first.
  Result<AttachResponse> AwaitResult(const std::string& session_id,
                                     uint64_t overall_timeout_ms,
                                     uint64_t poll_ms = 2000);

  Result<CancelResponse> Cancel(const std::string& session_id);
  Result<StatsResponse> Stats();

  /// Connections opened over this client's lifetime (reconnect visibility).
  uint64_t connects() const { return connects_; }

 private:
  Status EnsureConnected();
  void Disconnect();
  /// One framed request/response over the current connection (no retry).
  Result<std::string> Exchange(const std::string& payload);
  /// Exchange with bounded reconnect-and-retry; `payload` must be
  /// idempotent (every protocol request is).
  Result<std::string> Call(const std::string& payload);

  Options options_;
  std::unique_ptr<Transport> transport_;
  uint64_t connects_ = 0;
};

}  // namespace atune

#endif  // ATUNE_NET_CLIENT_H_
