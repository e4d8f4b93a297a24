#ifndef ATUNE_COMMON_FILE_UTIL_H_
#define ATUNE_COMMON_FILE_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/status.h"

namespace atune {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `n` bytes, continuing from
/// `seed` (pass 0 for a fresh checksum). Used to frame write-ahead journal
/// records so torn or corrupted tails are detectable on recovery.
uint32_t Crc32(uint32_t seed, const void* data, size_t n);

/// Reads an entire file into `*out`. NotFound if the file does not exist.
Status ReadFileToString(const std::string& path, std::string* out);

/// Crash-safe whole-file write: writes `contents` to `path + ".tmp"`,
/// flushes and fsyncs it, then atomically renames it over `path`. A reader
/// (or a restart after a crash) therefore sees either the old file or the
/// complete new one — never a torn mixture. This is how every BENCH_*.json
/// and CSV artifact is published.
Status AtomicWriteFile(const std::string& path, const std::string& contents);

/// Truncates `path` to `length` bytes and fsyncs it. Used by journal
/// recovery to physically discard a corrupt tail.
Status TruncateFile(const std::string& path, uint64_t length);

/// Completes an atomic publish for a stream opened on `path + ".tmp"`:
/// flushes and fsyncs `f`, closes it (always, even on error), and renames
/// the temp file over `path`. Lets FILE*-style report writers get the same
/// crash-safety as AtomicWriteFile without buffering everything in memory.
Status CommitTempFile(std::FILE* f, const std::string& path);

/// Read-only memory mapping of a whole file: mmap(PROT_READ, MAP_PRIVATE),
/// released in the destructor. No library code maps a file: MappedFile
/// stays only as the return type of IoEnv::Map, which perfbench's
/// CountingIoEnv overrides, and the benchmark change that drops that
/// override deletes both.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only. NotFound if it does not exist. An empty file
  /// maps successfully with data() == nullptr and size() == 0.
  static Result<MappedFile> Map(const std::string& path);

  const char* data() const { return static_cast<const char*>(addr_); }
  size_t size() const { return size_; }

 private:
  void* addr_ = nullptr;
  size_t size_ = 0;
};

}  // namespace atune

#endif  // ATUNE_COMMON_FILE_UTIL_H_
