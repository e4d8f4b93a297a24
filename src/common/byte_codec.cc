#include "common/byte_codec.h"

#include "common/file_util.h"

namespace atune {

void AppendFrame(const std::string& payload, std::string* out) {
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, Crc32(0, payload.data(), payload.size()));
  out->append(payload);
}

void SealFrame(std::string* buf, size_t frame_start) {
  char* header = &(*buf)[frame_start];
  size_t len = buf->size() - frame_start - kFrameHeaderBytes;
  StoreLE(header, len, 4);
  StoreLE(header + 4, Crc32(0, header + kFrameHeaderBytes, len), 4);
}

FrameStatus ReadFrame(const char* data, size_t size, size_t max_payload,
                      size_t* offset, const char** payload, size_t* len) {
  size_t pos = *offset;
  if (size - pos < kFrameHeaderBytes) return FrameStatus::kIncomplete;
  ByteReader header(data + pos, kFrameHeaderBytes);
  *len = header.GetU32();
  uint32_t crc = header.GetU32();
  if (*len > max_payload) return FrameStatus::kTooLong;
  if (size - pos - kFrameHeaderBytes < *len) return FrameStatus::kIncomplete;
  const char* body = data + pos + kFrameHeaderBytes;
  if (Crc32(0, body, *len) != crc) return FrameStatus::kBadCrc;
  *payload = body;
  *offset = pos + kFrameHeaderBytes + *len;
  return FrameStatus::kOk;
}

}  // namespace atune
