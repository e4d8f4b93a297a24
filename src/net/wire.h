#ifndef ATUNE_NET_WIRE_H_
#define ATUNE_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/byte_codec.h"  // AppendFrame, kFrameHeaderBytes
#include "common/status.h"

namespace atune {

/// The atuned wire protocol (DESIGN.md §13): length-prefixed, CRC-framed
/// binary messages, written and read with the same byte codec and frame
/// reader as the trial journal (common/byte_codec.h), so a torn or
/// corrupted frame is detected, never parsed.
///
///   frame := payload_len u32 | crc32(payload) u32 | payload
///   payload := msg_type u8 | body (message-specific fields)
///
/// All integers are little-endian. Strings are u32 length + bytes. Doubles
/// travel as their IEEE-754 bit pattern in a u64, so a checksum or objective
/// crosses the wire bit-exactly (the service's resume-identity gates compare
/// these for equality, not approximately).
///
/// A receiver that sees a frame whose CRC does not match, whose length
/// exceeds kMaxFramePayload, or whose payload is shorter than its fields
/// must treat the *stream* as broken and drop the connection: after framing
/// is violated nothing later on the stream can be trusted. A well-framed
/// message with an unknown type is answered with kErrorResp — the stream is
/// fine, the request is not.

/// Upper bound on a frame payload. Requests and responses are all small
/// (strings plus a few scalars); anything larger is garbage or an attack.
inline constexpr uint32_t kMaxFramePayload = 1u << 20;

enum class MsgType : uint8_t {
  kPingReq = 1,
  kPongResp = 2,
  kStartReq = 3,
  kStartResp = 4,
  kAttachReq = 5,
  kAttachResp = 6,
  kCancelReq = 7,
  kCancelResp = 8,
  kStatsReq = 9,
  kStatsResp = 10,
  kErrorResp = 11,
};

/// Admission verdict for a StartSession request. Everything except
/// kAccepted / kAlreadyExists is a *shed*: the server is telling the client
/// to come back after retry_after_ms — admission is refused cheaply instead
/// of queueing unboundedly (load shedding, DESIGN.md §13).
enum class AdmitCode : uint8_t {
  kAccepted = 0,       ///< session admitted and queued/running
  kAlreadyExists = 1,  ///< idempotent re-submit: reattached, not restarted
  kShedQueueFull = 2,  ///< bounded session queue is full
  kShedTenantQuota = 3,  ///< tenant's in-flight budget quota exhausted
  kDraining = 4,         ///< daemon is draining (SIGTERM); not admitting
};
const char* AdmitCodeToString(AdmitCode code);

/// Lifecycle of a session as reported by AttachResp.
enum class SessionState : uint8_t {
  kUnknown = 0,   ///< no such session
  kQueued = 1,
  kRunning = 2,
  kDone = 3,      ///< terminal: result fields valid
  kFailed = 4,    ///< terminal: tuning failed (status in result fields)
  kCancelled = 5,          ///< terminal: cancelled; checkpoint journaled
  kDeadlineExceeded = 6,   ///< terminal: deadline hit; checkpoint journaled
  kInterrupted = 7,  ///< daemon stopped mid-session; resumes on restart
};
const char* SessionStateToString(SessionState state);
bool SessionStateTerminal(SessionState state);

/// The most background tenants a StartRequest's `contention` may ask for.
/// Its callers use 2 or 3; a request over the cap is refused at admission,
/// so a u64 off the wire cannot make a worker build billions of tenants.
inline constexpr uint64_t kMaxContention = 64;

/// StartSession request body. `session_id` is chosen by the client and is
/// the idempotency key: re-submitting the same id (after a disconnect, a
/// retry, a crashed client) reattaches to the existing session instead of
/// double-starting it. Ids become journal file names, so they are
/// restricted to [A-Za-z0-9._-] (ValidSessionId, checked at admission).
struct StartRequest {
  std::string session_id;
  std::string tenant;
  std::string tuner = "random-search";
  std::string system = "dbms";
  std::string workload;  ///< empty = system's first workload
  double scale = 1.0;
  uint64_t budget = 30;
  uint64_t seed = 1;
  /// Session deadline in milliseconds from admission; 0 = none. A session
  /// past its deadline is cancelled at the next evaluation boundary with
  /// its checkpoint journaled (state kDeadlineExceeded).
  uint64_t deadline_ms = 0;
  /// Number of background tenants sharing the system (the multi-tenant
  /// contention substrate): 0 tunes the bare system; k > 0 wraps it in a
  /// MultiTenantSystem with this tenant's workload plus k background
  /// workloads, so concurrent sessions model interference. At most
  /// kMaxContention: the session job builds one Tenant per background
  /// workload, so admission refuses more with kInvalidArgument.
  uint64_t contention = 0;
  /// Seed the session from the daemon's knowledge repository: the tuner is
  /// wrapped in a WarmStartTuner over the shard set pinned at admission
  /// (DESIGN.md §14), so a restarted daemon resumes against byte-identical
  /// history.
  bool warm_start = false;
};

struct StartResponse {
  AdmitCode code = AdmitCode::kAccepted;
  uint64_t retry_after_ms = 0;  ///< only meaningful for shed codes
  SessionState state = SessionState::kUnknown;  ///< for kAlreadyExists
};

/// Attach/poll request. `wait_ms` > 0 long-polls: the server holds the
/// request until the session reaches a terminal state or the per-request
/// deadline expires, whichever is first — this is the request-level
/// deadline propagated into the reactor's timer heap.
struct AttachRequest {
  std::string session_id;
  uint64_t wait_ms = 0;
};

/// Terminal-result payload (valid when state is terminal).
struct SessionResult {
  uint8_t status_code = 0;  ///< StatusCode of the session outcome
  std::string message;
  double best_objective = 0.0;
  uint64_t checksum = 0;  ///< OutcomeChecksum of the finished session
  uint64_t trials = 0;
  uint64_t replayed = 0;  ///< journal records served by replay on resume
};

struct AttachResponse {
  SessionState state = SessionState::kUnknown;
  SessionResult result;
};

struct CancelRequest {
  std::string session_id;
};

struct CancelResponse {
  bool found = false;
};

/// Daemon-wide counters, for the bench gates and operators.
struct StatsResponse {
  uint64_t admitted = 0;
  uint64_t reattached = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_tenant_quota = 0;
  uint64_t shed_draining = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t cancelled = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t recovered = 0;  ///< sessions resumed/re-queued at startup
  uint64_t quarantined = 0;  ///< crash-looping sessions quarantined at startup
  uint64_t active = 0;     ///< currently running
  uint64_t queued = 0;     ///< currently waiting for a worker
};

struct ErrorResponse {
  uint8_t status_code = 0;
  std::string message;
};

// ---- serialization ---------------------------------------------------------

/// Incremental frame extraction (ReadFrame capped at kMaxFramePayload): if
/// `data[0, n)` starts with one complete, CRC-valid frame, stores its
/// payload in `*payload`, sets `*consumed` to the frame's total size, and
/// returns OK. Returns OK with *consumed == 0 when more bytes are needed.
/// Returns kInvalidArgument when the stream is unrecoverable (oversized
/// length, rejected from the header alone, or CRC mismatch) — drop the
/// connection.
Status ExtractFrame(const char* data, size_t n, std::string* payload,
                    size_t* consumed);

// Each message encodes to a payload string (frame it with AppendFrame) and
// parses from one. Parsers reject short/trailing-garbage payloads.
std::string EncodePing();
std::string EncodePong();
std::string EncodeStartRequest(const StartRequest& req);
std::string EncodeStartResponse(const StartResponse& resp);
std::string EncodeAttachRequest(const AttachRequest& req);
std::string EncodeAttachResponse(const AttachResponse& resp);
std::string EncodeCancelRequest(const CancelRequest& req);
std::string EncodeCancelResponse(const CancelResponse& resp);
std::string EncodeStatsRequest();
std::string EncodeStatsResponse(const StatsResponse& resp);
std::string EncodeErrorResponse(const ErrorResponse& resp);

/// Message type of a payload (its first byte), or an error for an empty
/// payload / unknown type byte.
Result<MsgType> PeekType(const std::string& payload);

Result<StartRequest> ParseStartRequest(const std::string& payload);
Result<StartResponse> ParseStartResponse(const std::string& payload);
Result<AttachRequest> ParseAttachRequest(const std::string& payload);
Result<AttachResponse> ParseAttachResponse(const std::string& payload);
Result<CancelRequest> ParseCancelRequest(const std::string& payload);
Result<CancelResponse> ParseCancelResponse(const std::string& payload);
Result<StatsResponse> ParseStatsResponse(const std::string& payload);
Result<ErrorResponse> ParseErrorResponse(const std::string& payload);

}  // namespace atune

#endif  // ATUNE_NET_WIRE_H_
