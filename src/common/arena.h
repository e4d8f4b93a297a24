#ifndef ATUNE_COMMON_ARENA_H_
#define ATUNE_COMMON_ARENA_H_

#include <cstddef>
#include <memory>
#include <vector>

namespace atune {

/// Bump allocator for hot-path scratch memory (DESIGN.md §11).
///
/// The GP prediction/acquisition hot path and the Evaluator commit path run
/// once per trial (or per candidate chunk) and need short-lived buffers whose
/// sizes repeat from call to call. A ScratchArena hands out pointers from a
/// reusable block: `Allocate` bumps an offset, `Reset` rewinds it. After the
/// first cycle at a given working-set size the arena reaches steady state —
/// one resident block, zero heap traffic per Reset/Allocate cycle — which is
/// what the zero-allocation commit-path gate in bench_hotpath measures.
///
/// Contracts:
///   * Allocations are only valid until the next Reset (or destruction);
///     Reset does not run destructors, so only trivially-destructible types
///     belong here (doubles, PODs).
///   * Not thread-safe; use one arena per thread (see GpScratch).
///   * If a cycle outgrows the current capacity the arena chains an overflow
///     block, and the next Reset coalesces everything into a single block of
///     the new high-water size — growth is amortized, shrink never happens.
class ScratchArena {
 public:
  ScratchArena() = default;

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Returns `bytes` of storage aligned to `alignment` (a power of two no
  /// larger than alignof(std::max_align_t)). Never returns nullptr; a zero
  /// request yields a valid (but unusable) pointer.
  void* Allocate(size_t bytes, size_t alignment = alignof(double));

  /// Typed convenience: `count` uninitialized Ts. T must be trivially
  /// destructible — nothing is ever destroyed.
  template <typename T>
  T* AllocateArray(size_t count) {
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  /// Invalidates every outstanding allocation and rewinds to the start.
  /// Coalesces overflow blocks so the steady state is a single block.
  void Reset();

  /// Total bytes owned across all blocks.
  size_t capacity() const;
  /// Bytes handed out since the last Reset (including alignment padding).
  size_t used() const { return used_; }
  /// Number of resident blocks; 1 in steady state.
  size_t block_count() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  /// Appends a block of at least `min_bytes` and makes it current.
  void AddBlock(size_t min_bytes);

  std::vector<Block> blocks_;
  size_t current_ = 0;  ///< index of the block being bumped
  size_t offset_ = 0;   ///< bump offset within blocks_[current_]
  size_t used_ = 0;
};

}  // namespace atune

#endif  // ATUNE_COMMON_ARENA_H_
