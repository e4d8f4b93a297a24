#include "common/arena.h"

#include <cstdint>

namespace atune {

namespace {
constexpr size_t kMinBlockBytes = 1024;
}  // namespace

void ScratchArena::AddBlock(size_t min_bytes) {
  size_t size = kMinBlockBytes;
  if (!blocks_.empty()) size = blocks_.back().size * 2;
  if (size < min_bytes) size = min_bytes;
  Block block;
  block.data = std::make_unique<char[]>(size);
  block.size = size;
  blocks_.push_back(std::move(block));
  current_ = blocks_.size() - 1;
  offset_ = 0;
}

void* ScratchArena::Allocate(size_t bytes, size_t alignment) {
  if (blocks_.empty()) AddBlock(bytes);
  for (;;) {
    Block& block = blocks_[current_];
    uintptr_t base = reinterpret_cast<uintptr_t>(block.data.get());
    size_t aligned = (offset_ + (alignment - 1)) & ~(alignment - 1);
    // operator new[] storage is max_align_t-aligned, so aligning the offset
    // aligns the pointer.
    if (aligned + bytes <= block.size) {
      offset_ = aligned + bytes;
      used_ += bytes;
      return reinterpret_cast<void*>(base + aligned);
    }
    if (current_ + 1 < blocks_.size()) {
      ++current_;
      offset_ = 0;
    } else {
      AddBlock(bytes + alignment);
    }
  }
}

void ScratchArena::Reset() {
  if (blocks_.size() > 1) {
    // A past cycle overflowed: replace the chain with one block sized to the
    // high-water total so future cycles stay single-block.
    size_t total = capacity();
    blocks_.clear();
    AddBlock(total);
  }
  current_ = 0;
  offset_ = 0;
  used_ = 0;
}

size_t ScratchArena::capacity() const {
  size_t total = 0;
  for (const Block& b : blocks_) total += b.size;
  return total;
}

}  // namespace atune
