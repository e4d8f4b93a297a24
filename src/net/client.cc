#include "net/client.h"

#include <time.h>

#include <algorithm>

#include "common/logging.h"

namespace atune {
namespace {

void SleepMs(uint64_t ms) {
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(ms / 1000);
  ts.tv_nsec = static_cast<long>((ms % 1000) * 1000000);
  ::nanosleep(&ts, nullptr);
}

uint64_t NowMsMonotonic() {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000 +
         static_cast<uint64_t>(ts.tv_nsec) / 1000000;
}

}  // namespace

Status TuningClient::EnsureConnected() {
  if (transport_ != nullptr) return Status::OK();
  Status last = Status::OK();
  for (size_t attempt = 1; attempt <= options_.retry.max_attempts; ++attempt) {
    auto transport =
        ConnectTransport(options_.address, options_.io_timeout_ms);
    if (transport.ok()) {
      connects_++;
      if (options_.inject_faults) {
        NetFaultSchedule schedule = options_.faults;
        // Perturb the seed per connection so reconnects replay different —
        // but still reproducible — fault positions.
        schedule.seed = schedule.seed * 1000003 + connects_;
        transport_ = std::make_unique<FaultInjectingTransport>(
            std::move(transport).value(), schedule);
      } else {
        transport_ = std::move(transport).value();
      }
      return Status::OK();
    }
    last = transport.status();
    if (attempt < options_.retry.max_attempts) {
      SleepBackoff(options_.retry, attempt);
    }
  }
  return Status::IoError("connect to " + options_.address + " failed after " +
                         std::to_string(options_.retry.max_attempts) +
                         " attempts: " + last.message());
}

void TuningClient::Disconnect() {
  if (transport_ != nullptr) {
    (void)transport_->Close();
    transport_.reset();
  }
}

Result<std::string> TuningClient::Exchange(const std::string& payload) {
  std::string frame;
  AppendFrame(payload, &frame);
  ATUNE_RETURN_IF_ERROR(
      WriteFully(transport_.get(), frame.data(), frame.size(), options_.retry));

  // Response: header first (length + CRC), then the payload, then the CRC
  // check via the same ExtractFrame the server uses.
  char header[kFrameHeaderBytes];
  ATUNE_RETURN_IF_ERROR(
      ReadFully(transport_.get(), header, sizeof(header), options_.retry));
  uint32_t len = ByteReader(header, sizeof(header)).GetU32();
  if (len == 0 || len > kMaxFramePayload) {
    return Status::InvalidArgument("bad response frame length " +
                                   std::to_string(len));
  }
  std::string buffer(header, sizeof(header));
  buffer.resize(sizeof(header) + len);
  ATUNE_RETURN_IF_ERROR(
      ReadFully(transport_.get(), &buffer[sizeof(header)], len, options_.retry));
  std::string response;
  size_t consumed = 0;
  ATUNE_RETURN_IF_ERROR(
      ExtractFrame(buffer.data(), buffer.size(), &response, &consumed));
  if (consumed != buffer.size()) {
    return Status::Internal("frame extraction consumed " +
                            std::to_string(consumed) + " of " +
                            std::to_string(buffer.size()) + " bytes");
  }
  return response;
}

Result<std::string> TuningClient::Call(const std::string& payload) {
  Status last = Status::OK();
  for (size_t attempt = 1; attempt <= options_.retry.max_attempts; ++attempt) {
    Status status = EnsureConnected();
    if (status.ok()) {
      auto response = Exchange(payload);
      if (response.ok()) {
        // Server-reported errors ride a healthy stream: surface them
        // without retrying (the request itself was rejected).
        auto type = PeekType(*response);
        if (type.ok() && *type == MsgType::kErrorResp) {
          auto err = ParseErrorResponse(*response);
          if (!err.ok()) return err.status();
          return Status(static_cast<StatusCode>(err->status_code),
                        err->message);
        }
        return response;
      }
      status = response.status();
    }
    // Torn connection (mid-frame EOF, reset, exhausted stall retries):
    // drop it and retry the whole exchange on a fresh one. Safe because
    // every request is idempotent.
    last = status;
    Disconnect();
    if (attempt < options_.retry.max_attempts) {
      SleepBackoff(options_.retry, attempt);
    }
  }
  return Status::IoError("exchange with " + options_.address +
                         " failed after " +
                         std::to_string(options_.retry.max_attempts) +
                         " attempts: " + last.message());
}

Status TuningClient::Ping() {
  ATUNE_ASSIGN_OR_RETURN(std::string response, Call(EncodePing()));
  ATUNE_ASSIGN_OR_RETURN(MsgType type, PeekType(response));
  if (type != MsgType::kPongResp) {
    return Status::Internal("unexpected response to ping");
  }
  return Status::OK();
}

Result<StartResponse> TuningClient::StartSession(const StartRequest& request) {
  ATUNE_ASSIGN_OR_RETURN(std::string response,
                         Call(EncodeStartRequest(request)));
  return ParseStartResponse(response);
}

Result<StartResponse> TuningClient::RetryStart(const StartRequest& request,
                                               size_t max_attempts) {
  Result<StartResponse> last = Status::Internal("RetryStart: zero attempts");
  for (size_t attempt = 1; attempt <= max_attempts; ++attempt) {
    last = StartSession(request);
    if (!last.ok()) return last;
    switch (last->code) {
      case AdmitCode::kAccepted:
      case AdmitCode::kAlreadyExists:
      case AdmitCode::kDraining:  // this daemon is going away; don't spin
        return last;
      case AdmitCode::kShedQueueFull:
      case AdmitCode::kShedTenantQuota: {
        if (attempt == max_attempts) return last;
        // Honor the server's hint, growing it on consecutive sheds so a
        // saturated daemon isn't hammered in lockstep.
        uint64_t hint = std::max<uint64_t>(1, last->retry_after_ms);
        uint64_t wait = hint << std::min<size_t>(attempt - 1, 6);
        SleepMs(std::min<uint64_t>(wait, 2000));
        break;
      }
    }
  }
  return last;
}

Result<AttachResponse> TuningClient::Attach(const std::string& session_id,
                                            uint64_t wait_ms) {
  AttachRequest request;
  request.session_id = session_id;
  request.wait_ms = wait_ms;
  ATUNE_ASSIGN_OR_RETURN(std::string response,
                         Call(EncodeAttachRequest(request)));
  return ParseAttachResponse(response);
}

Result<AttachResponse> TuningClient::AwaitResult(const std::string& session_id,
                                                 uint64_t overall_timeout_ms,
                                                 uint64_t poll_ms) {
  uint64_t start = NowMsMonotonic();
  while (true) {
    uint64_t wait = poll_ms;
    if (overall_timeout_ms > 0) {
      uint64_t elapsed = NowMsMonotonic() - start;
      if (elapsed >= overall_timeout_ms) wait = 0;  // final instant poll
      else wait = std::min(wait, overall_timeout_ms - elapsed);
    }
    ATUNE_ASSIGN_OR_RETURN(AttachResponse response,
                           Attach(session_id, wait));
    if (SessionStateTerminal(response.state) ||
        response.state == SessionState::kUnknown) {
      return response;
    }
    if (overall_timeout_ms > 0 &&
        NowMsMonotonic() - start >= overall_timeout_ms) {
      return response;  // non-terminal: caller sees the timeout
    }
  }
}

Result<CancelResponse> TuningClient::Cancel(const std::string& session_id) {
  CancelRequest request;
  request.session_id = session_id;
  ATUNE_ASSIGN_OR_RETURN(std::string response,
                         Call(EncodeCancelRequest(request)));
  return ParseCancelResponse(response);
}

Result<StatsResponse> TuningClient::Stats() {
  ATUNE_ASSIGN_OR_RETURN(std::string response, Call(EncodeStatsRequest()));
  return ParseStatsResponse(response);
}

}  // namespace atune
