#include "net/wire.h"

#include "common/string_util.h"

namespace atune {
namespace {

Status Malformed(const char* what) {
  return Status::InvalidArgument(StrFormat("malformed %s payload", what));
}

}  // namespace

const char* AdmitCodeToString(AdmitCode code) {
  switch (code) {
    case AdmitCode::kAccepted: return "accepted";
    case AdmitCode::kAlreadyExists: return "already-exists";
    case AdmitCode::kShedQueueFull: return "shed-queue-full";
    case AdmitCode::kShedTenantQuota: return "shed-tenant-quota";
    case AdmitCode::kDraining: return "draining";
  }
  return "unknown";
}

const char* SessionStateToString(SessionState state) {
  switch (state) {
    case SessionState::kUnknown: return "unknown";
    case SessionState::kQueued: return "queued";
    case SessionState::kRunning: return "running";
    case SessionState::kDone: return "done";
    case SessionState::kFailed: return "failed";
    case SessionState::kCancelled: return "cancelled";
    case SessionState::kDeadlineExceeded: return "deadline-exceeded";
    case SessionState::kInterrupted: return "interrupted";
  }
  return "unknown";
}

bool SessionStateTerminal(SessionState state) {
  switch (state) {
    case SessionState::kDone:
    case SessionState::kFailed:
    case SessionState::kCancelled:
    case SessionState::kDeadlineExceeded:
      return true;
    default:
      return false;
  }
}

Status ExtractFrame(const char* data, size_t n, std::string* payload,
                    size_t* consumed) {
  *consumed = 0;
  const char* body = nullptr;
  size_t len = 0;
  switch (ReadFrame(data, n, kMaxFramePayload, consumed, &body, &len)) {
    case FrameStatus::kOk:
      payload->assign(body, len);
      return Status::OK();
    case FrameStatus::kIncomplete:
      return Status::OK();  // need more bytes
    case FrameStatus::kTooLong:
      return Status::InvalidArgument(
          StrFormat("frame payload length %zu exceeds limit %u", len,
                    kMaxFramePayload));
    case FrameStatus::kBadCrc:
      break;
  }
  return Status::InvalidArgument("frame CRC mismatch");
}

std::string EncodePing() {
  std::string p;
  PutU8(&p, static_cast<uint8_t>(MsgType::kPingReq));
  return p;
}

std::string EncodePong() {
  std::string p;
  PutU8(&p, static_cast<uint8_t>(MsgType::kPongResp));
  return p;
}

std::string EncodeStartRequest(const StartRequest& req) {
  std::string p;
  PutU8(&p, static_cast<uint8_t>(MsgType::kStartReq));
  PutString(&p, req.session_id);
  PutString(&p, req.tenant);
  PutString(&p, req.tuner);
  PutString(&p, req.system);
  PutString(&p, req.workload);
  PutF64(&p, req.scale);
  PutU64(&p, req.budget);
  PutU64(&p, req.seed);
  PutU64(&p, req.deadline_ms);
  PutU64(&p, req.contention);
  PutU8(&p, req.warm_start ? 1 : 0);
  return p;
}

std::string EncodeStartResponse(const StartResponse& resp) {
  std::string p;
  PutU8(&p, static_cast<uint8_t>(MsgType::kStartResp));
  PutU8(&p, static_cast<uint8_t>(resp.code));
  PutU64(&p, resp.retry_after_ms);
  PutU8(&p, static_cast<uint8_t>(resp.state));
  return p;
}

std::string EncodeAttachRequest(const AttachRequest& req) {
  std::string p;
  PutU8(&p, static_cast<uint8_t>(MsgType::kAttachReq));
  PutString(&p, req.session_id);
  PutU64(&p, req.wait_ms);
  return p;
}

std::string EncodeAttachResponse(const AttachResponse& resp) {
  std::string p;
  PutU8(&p, static_cast<uint8_t>(MsgType::kAttachResp));
  PutU8(&p, static_cast<uint8_t>(resp.state));
  PutU8(&p, resp.result.status_code);
  PutString(&p, resp.result.message);
  PutF64(&p, resp.result.best_objective);
  PutU64(&p, resp.result.checksum);
  PutU64(&p, resp.result.trials);
  PutU64(&p, resp.result.replayed);
  return p;
}

std::string EncodeCancelRequest(const CancelRequest& req) {
  std::string p;
  PutU8(&p, static_cast<uint8_t>(MsgType::kCancelReq));
  PutString(&p, req.session_id);
  return p;
}

std::string EncodeCancelResponse(const CancelResponse& resp) {
  std::string p;
  PutU8(&p, static_cast<uint8_t>(MsgType::kCancelResp));
  PutU8(&p, resp.found ? 1 : 0);
  return p;
}

std::string EncodeStatsRequest() {
  std::string p;
  PutU8(&p, static_cast<uint8_t>(MsgType::kStatsReq));
  return p;
}

std::string EncodeStatsResponse(const StatsResponse& resp) {
  std::string p;
  PutU8(&p, static_cast<uint8_t>(MsgType::kStatsResp));
  PutU64(&p, resp.admitted);
  PutU64(&p, resp.reattached);
  PutU64(&p, resp.shed_queue_full);
  PutU64(&p, resp.shed_tenant_quota);
  PutU64(&p, resp.shed_draining);
  PutU64(&p, resp.completed);
  PutU64(&p, resp.failed);
  PutU64(&p, resp.cancelled);
  PutU64(&p, resp.deadline_exceeded);
  PutU64(&p, resp.recovered);
  PutU64(&p, resp.quarantined);
  PutU64(&p, resp.active);
  PutU64(&p, resp.queued);
  return p;
}

std::string EncodeErrorResponse(const ErrorResponse& resp) {
  std::string p;
  PutU8(&p, static_cast<uint8_t>(MsgType::kErrorResp));
  PutU8(&p, resp.status_code);
  PutString(&p, resp.message);
  return p;
}

Result<MsgType> PeekType(const std::string& payload) {
  if (payload.empty()) return Status::InvalidArgument("empty payload");
  uint8_t t = static_cast<uint8_t>(payload[0]);
  if (t < static_cast<uint8_t>(MsgType::kPingReq) ||
      t > static_cast<uint8_t>(MsgType::kErrorResp)) {
    return Status::InvalidArgument(StrFormat("unknown message type %u", t));
  }
  return static_cast<MsgType>(t);
}

Result<StartRequest> ParseStartRequest(const std::string& payload) {
  ByteReader r(payload);
  if (r.GetU8() != static_cast<uint8_t>(MsgType::kStartReq)) {
    return Malformed("StartRequest");
  }
  StartRequest req;
  req.session_id = r.GetString();
  req.tenant = r.GetString();
  req.tuner = r.GetString();
  req.system = r.GetString();
  req.workload = r.GetString();
  req.scale = r.GetF64();
  req.budget = r.GetU64();
  req.seed = r.GetU64();
  req.deadline_ms = r.GetU64();
  req.contention = r.GetU64();
  req.warm_start = r.GetU8() != 0;
  if (!r.Done()) return Malformed("StartRequest");
  return req;
}

Result<StartResponse> ParseStartResponse(const std::string& payload) {
  ByteReader r(payload);
  if (r.GetU8() != static_cast<uint8_t>(MsgType::kStartResp)) {
    return Malformed("StartResponse");
  }
  StartResponse resp;
  uint8_t code = r.GetU8();
  if (code > static_cast<uint8_t>(AdmitCode::kDraining)) {
    return Malformed("StartResponse");
  }
  resp.code = static_cast<AdmitCode>(code);
  resp.retry_after_ms = r.GetU64();
  uint8_t state = r.GetU8();
  if (state > static_cast<uint8_t>(SessionState::kInterrupted)) {
    return Malformed("StartResponse");
  }
  resp.state = static_cast<SessionState>(state);
  if (!r.Done()) return Malformed("StartResponse");
  return resp;
}

Result<AttachRequest> ParseAttachRequest(const std::string& payload) {
  ByteReader r(payload);
  if (r.GetU8() != static_cast<uint8_t>(MsgType::kAttachReq)) {
    return Malformed("AttachRequest");
  }
  AttachRequest req;
  req.session_id = r.GetString();
  req.wait_ms = r.GetU64();
  if (!r.Done()) return Malformed("AttachRequest");
  return req;
}

Result<AttachResponse> ParseAttachResponse(const std::string& payload) {
  ByteReader r(payload);
  if (r.GetU8() != static_cast<uint8_t>(MsgType::kAttachResp)) {
    return Malformed("AttachResponse");
  }
  AttachResponse resp;
  uint8_t state = r.GetU8();
  if (state > static_cast<uint8_t>(SessionState::kInterrupted)) {
    return Malformed("AttachResponse");
  }
  resp.state = static_cast<SessionState>(state);
  resp.result.status_code = r.GetU8();
  resp.result.message = r.GetString();
  resp.result.best_objective = r.GetF64();
  resp.result.checksum = r.GetU64();
  resp.result.trials = r.GetU64();
  resp.result.replayed = r.GetU64();
  if (!r.Done()) return Malformed("AttachResponse");
  return resp;
}

Result<CancelRequest> ParseCancelRequest(const std::string& payload) {
  ByteReader r(payload);
  if (r.GetU8() != static_cast<uint8_t>(MsgType::kCancelReq)) {
    return Malformed("CancelRequest");
  }
  CancelRequest req;
  req.session_id = r.GetString();
  if (!r.Done()) return Malformed("CancelRequest");
  return req;
}

Result<CancelResponse> ParseCancelResponse(const std::string& payload) {
  ByteReader r(payload);
  if (r.GetU8() != static_cast<uint8_t>(MsgType::kCancelResp)) {
    return Malformed("CancelResponse");
  }
  CancelResponse resp;
  resp.found = r.GetU8() != 0;
  if (!r.Done()) return Malformed("CancelResponse");
  return resp;
}

Result<StatsResponse> ParseStatsResponse(const std::string& payload) {
  ByteReader r(payload);
  if (r.GetU8() != static_cast<uint8_t>(MsgType::kStatsResp)) {
    return Malformed("StatsResponse");
  }
  StatsResponse resp;
  resp.admitted = r.GetU64();
  resp.reattached = r.GetU64();
  resp.shed_queue_full = r.GetU64();
  resp.shed_tenant_quota = r.GetU64();
  resp.shed_draining = r.GetU64();
  resp.completed = r.GetU64();
  resp.failed = r.GetU64();
  resp.cancelled = r.GetU64();
  resp.deadline_exceeded = r.GetU64();
  resp.recovered = r.GetU64();
  resp.quarantined = r.GetU64();
  resp.active = r.GetU64();
  resp.queued = r.GetU64();
  if (!r.Done()) return Malformed("StatsResponse");
  return resp;
}

Result<ErrorResponse> ParseErrorResponse(const std::string& payload) {
  ByteReader r(payload);
  if (r.GetU8() != static_cast<uint8_t>(MsgType::kErrorResp)) {
    return Malformed("ErrorResponse");
  }
  ErrorResponse resp;
  resp.status_code = r.GetU8();
  resp.message = r.GetString();
  if (!r.Done()) return Malformed("ErrorResponse");
  return resp;
}

}  // namespace atune
