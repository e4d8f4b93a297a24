#include "net/wire.h"

#include <gtest/gtest.h>

#include <string>

#include "common/string_util.h"
#include "tests/hex_util.h"

namespace atune {
namespace {

StartRequest SampleStart() {
  StartRequest req;
  req.session_id = "tenant-a.session_01";
  req.tenant = "tenant-a";
  req.tuner = "ituned";
  req.system = "spark";
  req.workload = "iterative_ml";
  req.scale = 0.3333333333333333;  // must round-trip bit-exactly
  req.budget = 77;
  req.seed = 0xdeadbeefcafef00dULL;
  req.deadline_ms = 15000;
  req.contention = 3;
  return req;
}

TEST(WireTest, FrameRoundTrip) {
  std::string payload = EncodeStartRequest(SampleStart());
  std::string buffer;
  AppendFrame(payload, &buffer);
  EXPECT_EQ(buffer.size(), kFrameHeaderBytes + payload.size());

  std::string out;
  size_t consumed = 0;
  ASSERT_TRUE(ExtractFrame(buffer.data(), buffer.size(), &out, &consumed).ok());
  EXPECT_EQ(consumed, buffer.size());
  EXPECT_EQ(out, payload);
}

TEST(WireTest, IncompleteFrameAsksForMoreBytes) {
  std::string payload = EncodeStartRequest(SampleStart());
  std::string buffer;
  AppendFrame(payload, &buffer);
  // Every strict prefix — including a torn header — is "need more", not an
  // error: short reads must never kill a healthy stream.
  for (size_t n = 0; n < buffer.size(); ++n) {
    std::string out;
    size_t consumed = 99;
    Status s = ExtractFrame(buffer.data(), n, &out, &consumed);
    ASSERT_TRUE(s.ok()) << "prefix " << n << ": " << s.ToString();
    EXPECT_EQ(consumed, 0u) << "prefix " << n;
  }
}

TEST(WireTest, CorruptedPayloadFailsCrc) {
  std::string payload = EncodePing();
  std::string buffer;
  AppendFrame(payload, &buffer);
  buffer[kFrameHeaderBytes] ^= 0x01;  // flip one payload bit
  std::string out;
  size_t consumed = 0;
  Status s = ExtractFrame(buffer.data(), buffer.size(), &out, &consumed);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, OversizedLengthIsRejectedBeforeBuffering) {
  // A hostile length prefix must fail immediately — the receiver must not
  // wait for (or allocate) 4GB.
  std::string buffer;
  uint32_t len = kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i) buffer.push_back(static_cast<char>(len >> (8 * i)));
  buffer.append(4, '\0');  // CRC placeholder
  std::string out;
  size_t consumed = 0;
  Status s = ExtractFrame(buffer.data(), buffer.size(), &out, &consumed);
  EXPECT_FALSE(s.ok());
}

TEST(WireTest, TwoFramesExtractInOrder) {
  std::string buffer;
  AppendFrame(EncodePing(), &buffer);
  AppendFrame(EncodePong(), &buffer);
  std::string out;
  size_t consumed = 0;
  ASSERT_TRUE(ExtractFrame(buffer.data(), buffer.size(), &out, &consumed).ok());
  EXPECT_EQ(*PeekType(out), MsgType::kPingReq);
  buffer.erase(0, consumed);
  ASSERT_TRUE(ExtractFrame(buffer.data(), buffer.size(), &out, &consumed).ok());
  EXPECT_EQ(*PeekType(out), MsgType::kPongResp);
  EXPECT_EQ(buffer.size(), consumed);
}

TEST(WireTest, StartRequestRoundTrip) {
  StartRequest req = SampleStart();
  auto parsed = ParseStartRequest(EncodeStartRequest(req));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->session_id, req.session_id);
  EXPECT_EQ(parsed->tenant, req.tenant);
  EXPECT_EQ(parsed->tuner, req.tuner);
  EXPECT_EQ(parsed->system, req.system);
  EXPECT_EQ(parsed->workload, req.workload);
  EXPECT_EQ(parsed->scale, req.scale);  // bit-exact, not approximate
  EXPECT_EQ(parsed->budget, req.budget);
  EXPECT_EQ(parsed->seed, req.seed);
  EXPECT_EQ(parsed->deadline_ms, req.deadline_ms);
  EXPECT_EQ(parsed->contention, req.contention);
}

TEST(WireTest, StartResponseRoundTrip) {
  StartResponse resp;
  resp.code = AdmitCode::kShedTenantQuota;
  resp.retry_after_ms = 125;
  resp.state = SessionState::kRunning;
  auto parsed = ParseStartResponse(EncodeStartResponse(resp));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->code, resp.code);
  EXPECT_EQ(parsed->retry_after_ms, resp.retry_after_ms);
  EXPECT_EQ(parsed->state, resp.state);
}

TEST(WireTest, AttachRoundTrip) {
  AttachRequest req;
  req.session_id = "s1";
  req.wait_ms = 30000;
  auto parsed_req = ParseAttachRequest(EncodeAttachRequest(req));
  ASSERT_TRUE(parsed_req.ok());
  EXPECT_EQ(parsed_req->session_id, "s1");
  EXPECT_EQ(parsed_req->wait_ms, 30000u);

  AttachResponse resp;
  resp.state = SessionState::kDone;
  resp.result.status_code = 6;
  resp.result.message = "ok";
  resp.result.best_objective = 17.25;
  resp.result.checksum = 0x8128108e3cc94f6eULL;
  resp.result.trials = 40;
  resp.result.replayed = 13;
  auto parsed = ParseAttachResponse(EncodeAttachResponse(resp));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->state, SessionState::kDone);
  EXPECT_EQ(parsed->result.status_code, 6);
  EXPECT_EQ(parsed->result.message, "ok");
  EXPECT_EQ(parsed->result.best_objective, 17.25);
  EXPECT_EQ(parsed->result.checksum, resp.result.checksum);
  EXPECT_EQ(parsed->result.trials, 40u);
  EXPECT_EQ(parsed->result.replayed, 13u);
}

TEST(WireTest, CancelAndStatsAndErrorRoundTrip) {
  CancelRequest creq;
  creq.session_id = "x";
  auto pc = ParseCancelRequest(EncodeCancelRequest(creq));
  ASSERT_TRUE(pc.ok());
  EXPECT_EQ(pc->session_id, "x");

  CancelResponse cresp;
  cresp.found = true;
  auto pcr = ParseCancelResponse(EncodeCancelResponse(cresp));
  ASSERT_TRUE(pcr.ok());
  EXPECT_TRUE(pcr->found);

  StatsResponse stats;
  stats.admitted = 1;
  stats.reattached = 2;
  stats.shed_queue_full = 3;
  stats.shed_tenant_quota = 4;
  stats.shed_draining = 5;
  stats.completed = 6;
  stats.failed = 7;
  stats.cancelled = 8;
  stats.deadline_exceeded = 9;
  stats.recovered = 10;
  stats.quarantined = 13;
  stats.active = 11;
  stats.queued = 12;
  auto ps = ParseStatsResponse(EncodeStatsResponse(stats));
  ASSERT_TRUE(ps.ok());
  EXPECT_EQ(ps->admitted, 1u);
  EXPECT_EQ(ps->reattached, 2u);
  EXPECT_EQ(ps->shed_queue_full, 3u);
  EXPECT_EQ(ps->shed_tenant_quota, 4u);
  EXPECT_EQ(ps->shed_draining, 5u);
  EXPECT_EQ(ps->completed, 6u);
  EXPECT_EQ(ps->failed, 7u);
  EXPECT_EQ(ps->cancelled, 8u);
  EXPECT_EQ(ps->deadline_exceeded, 9u);
  EXPECT_EQ(ps->recovered, 10u);
  EXPECT_EQ(ps->quarantined, 13u);
  EXPECT_EQ(ps->active, 11u);
  EXPECT_EQ(ps->queued, 12u);

  ErrorResponse err;
  err.status_code = static_cast<uint8_t>(StatusCode::kInvalidArgument);
  err.message = "bad";
  auto pe = ParseErrorResponse(EncodeErrorResponse(err));
  ASSERT_TRUE(pe.ok());
  EXPECT_EQ(pe->status_code, err.status_code);
  EXPECT_EQ(pe->message, "bad");
}

TEST(WireTest, ShortPayloadIsRejected) {
  std::string payload = EncodeStartRequest(SampleStart());
  // Every truncation of the body must fail to parse — never read past the
  // end, never accept a half-message.
  for (size_t n = 1; n < payload.size(); ++n) {
    EXPECT_FALSE(ParseStartRequest(payload.substr(0, n)).ok()) << n;
  }
}

TEST(WireTest, TrailingGarbageIsRejected) {
  std::string payload = EncodeStartRequest(SampleStart());
  payload.push_back('\0');
  EXPECT_FALSE(ParseStartRequest(payload).ok());
}

TEST(WireTest, WrongTypeByteIsRejectedByParsers) {
  std::string payload = EncodePing();
  EXPECT_FALSE(ParseStartRequest(payload).ok());
  EXPECT_FALSE(ParseAttachResponse(payload).ok());
}

TEST(WireTest, PeekTypeRejectsEmptyAndUnknown) {
  EXPECT_FALSE(PeekType("").ok());
  std::string unknown(1, static_cast<char>(0x7f));
  EXPECT_FALSE(PeekType(unknown).ok());
  EXPECT_EQ(*PeekType(EncodePing()), MsgType::kPingReq);
}

TEST(WireTest, ValidSessionIdRules) {
  EXPECT_TRUE(ValidSessionId("tenant-a.session_01"));
  EXPECT_TRUE(ValidSessionId("A"));
  EXPECT_TRUE(ValidSessionId(std::string(128, 'x')));
  EXPECT_FALSE(ValidSessionId(""));
  EXPECT_FALSE(ValidSessionId(std::string(129, 'x')));
  EXPECT_FALSE(ValidSessionId("has space"));
  EXPECT_FALSE(ValidSessionId("has/slash"));
  EXPECT_FALSE(ValidSessionId("../escape"));
  EXPECT_FALSE(ValidSessionId("."));
  EXPECT_FALSE(ValidSessionId(".."));
  EXPECT_FALSE(ValidSessionId(std::string("null\0byte", 9)));
}

// Pins the wire bytes themselves. Round trips cannot see a change made
// alike to an encoder and its parser, and these bytes cross processes.
TEST(WireTest, GoldenBytesOfAFramedStartRequest) {
  StartRequest req = SampleStart();
  req.warm_start = true;
  std::string frame;
  AppendFrame(EncodeStartRequest(req), &frame);
  EXPECT_EQ(testing_util::HexOf(frame),
            "70000000" "9a2e9c54"  // frame: length 112, CRC
            "03"                   // kStartReq
            "13000000" "74656e616e742d612e73657373696f6e5f3031"  // session_id
            "08000000" "74656e616e742d61"                        // tenant
            "06000000" "6974756e6564"                            // tuner
            "05000000" "737061726b"                              // system
            "0c000000" "6974657261746976655f6d6c"                // workload
            "555555555555d53f"  // scale, IEEE-754 bits
            "4d00000000000000"  // budget
            "0df0fecaefbeadde"  // seed
            "983a000000000000"  // deadline_ms
            "0300000000000000"  // contention
            "01");              // warm_start
}

TEST(WireTest, GoldenBytesOfAnAttachResponse) {
  AttachResponse resp;
  resp.state = SessionState::kDone;
  resp.result.status_code = 6;
  resp.result.message = "ok";
  resp.result.best_objective = 17.25;
  resp.result.checksum = 0x8128108e3cc94f6eULL;
  resp.result.trials = 40;
  resp.result.replayed = 13;
  EXPECT_EQ(testing_util::HexOf(EncodeAttachResponse(resp)),
            "06"                // kAttachResp
            "03"                // state kDone
            "06"                // status_code
            "02000000" "6f6b"   // message
            "0000000000403140"  // best_objective, IEEE-754 bits
            "6e4fc93c8e102881"  // checksum
            "2800000000000000"  // trials
            "0d00000000000000");  // replayed
}

}  // namespace
}  // namespace atune
