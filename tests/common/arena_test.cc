#include "common/arena.h"

#include <cstdint>
#include <cstring>

#include "gtest/gtest.h"

namespace atune {
namespace {

TEST(ScratchArena, HandsOutAlignedDistinctStorage) {
  ScratchArena arena;
  double* a = arena.AllocateArray<double>(16);
  double* b = arena.AllocateArray<double>(16);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % alignof(double), 0u);
  // Writable, non-overlapping.
  for (int i = 0; i < 16; ++i) a[i] = i;
  for (int i = 0; i < 16; ++i) b[i] = -i;
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a[i], i);
}

TEST(ScratchArena, ResetReusesTheSameBlock) {
  ScratchArena arena;
  void* first = arena.Allocate(256);
  arena.Reset();
  void* second = arena.Allocate(256);
  EXPECT_EQ(first, second);
  EXPECT_EQ(arena.block_count(), 1u);
}

TEST(ScratchArena, OverflowChainsThenCoalescesOnReset) {
  ScratchArena arena;
  arena.Allocate(100);
  arena.Allocate(4000);  // outgrows the first, minimum-size block
  EXPECT_GE(arena.block_count(), 2u);
  size_t high_water = arena.capacity();
  arena.Reset();
  EXPECT_EQ(arena.block_count(), 1u);
  EXPECT_GE(arena.capacity(), high_water);
  // Steady state: the same cycle now fits without growing.
  size_t cap = arena.capacity();
  arena.Allocate(100);
  arena.Allocate(4000);
  EXPECT_EQ(arena.block_count(), 1u);
  EXPECT_EQ(arena.capacity(), cap);
}

TEST(ScratchArena, UsedTracksBytesAndRewinds) {
  ScratchArena arena;
  EXPECT_EQ(arena.used(), 0u);
  arena.Allocate(64);
  EXPECT_GE(arena.used(), 64u);
  arena.Reset();
  EXPECT_EQ(arena.used(), 0u);
}

TEST(ScratchArena, ZeroByteAllocationIsValid) {
  ScratchArena arena;
  EXPECT_NE(arena.Allocate(0), nullptr);
}

}  // namespace
}  // namespace atune
