#ifndef ATUNE_COMMON_BYTE_CODEC_H_
#define ATUNE_COMMON_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace atune {

/// The one byte codec behind every durable format: the trial journal
/// (DESIGN.md §8), the atuned wire protocol (§13) and the knowledge shards
/// (§14). Integers are little-endian, doubles travel as their IEEE-754 bit
/// pattern in a u64 (so they cross bit-exactly), and strings are a u32
/// length followed by the bytes. The writers and the reader are inline:
/// the journal's commit path serializes through them on every append.

/// Stores the low `n` bytes of `v` at `p`, least significant first.
inline void StoreLE(char* p, uint64_t v, size_t n) {
  for (size_t i = 0; i < n; ++i) p[i] = static_cast<char>(v >> (8 * i));
}

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  StoreLE(buf, v, 4);
  out->append(buf, 4);
}

inline void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  StoreLE(buf, v, 8);
  out->append(buf, 8);
}

inline void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

inline void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked cursor over a byte span it does not own. A read that
/// would overrun the span poisons the reader: it returns 0 (or an empty
/// string), and so does every later read, so a decoder reads all its
/// fields and checks ok() or Done() once.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::string& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  /// False once any read overran the span.
  bool ok() const { return ok_; }
  /// Every read fit and the whole span was consumed: no trailing bytes.
  bool Done() const { return ok_ && pos_ == size_; }

  /// True iff `n` more bytes remain; poisons the reader otherwise. A
  /// decoder checks a count against it before allocating for the count.
  bool Need(size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  uint8_t GetU8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t GetU32() { return static_cast<uint32_t>(GetLE(4)); }
  uint64_t GetU64() { return GetLE(8); }
  double GetF64() {
    uint64_t bits = GetU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string GetString() {
    uint32_t n = GetU32();
    if (!Need(n)) return std::string();
    std::string s(data_ + pos_, n);
    pos_ += n;
    return s;
  }

 private:
  uint64_t GetLE(size_t n) {
    if (!Need(n)) return 0;
    uint64_t v = 0;
    for (size_t i = 0; i < n; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += n;
    return v;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---- CRC frames ------------------------------------------------------------
//
//   frame := payload_len u32 | crc32(payload) u32 | payload
//
// Each format caps payload_len itself: 1 MiB on the wire, 64 MiB in the
// journal, the file size for a shard.

/// Bytes of frame overhead preceding every payload (length + CRC).
inline constexpr size_t kFrameHeaderBytes = 8;

/// Appends one frame (header + payload) to `*out`.
void AppendFrame(const std::string& payload, std::string* out);

/// Seals a frame serialized in place: `*buf` holds kFrameHeaderBytes of
/// reserved header at `frame_start`, then the payload up to its end. Fills
/// in the length and CRC, so a writer that reuses `*buf` frames a record
/// without a second buffer.
void SealFrame(std::string* buf, size_t frame_start);

enum class FrameStatus {
  kOk,          ///< a whole CRC-valid frame
  kIncomplete,  ///< the span ends inside the header or the payload
  kTooLong,     ///< the header declares more than max_payload bytes
  kBadCrc,      ///< the payload does not match its CRC
};

/// Reads the frame at `*offset` of `data[0, size)` (`*offset <= size`).
/// The length cap is checked from the header alone, before the payload's
/// bytes need to be present. `*len` receives the declared payload length
/// whenever the header is complete. On kOk, `*payload` points at the
/// payload inside the span (no copy) and `*offset` moves past the frame;
/// otherwise both are left as they were.
FrameStatus ReadFrame(const char* data, size_t size, size_t max_payload,
                      size_t* offset, const char** payload, size_t* len);

}  // namespace atune

#endif  // ATUNE_COMMON_BYTE_CODEC_H_
