#include "common/arena.h"

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#if defined(__SANITIZE_ADDRESS__)
#define CARDBENCH_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CARDBENCH_TEST_ASAN 1
#endif
#endif

#if defined(CARDBENCH_TEST_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace cardbench {
namespace {

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(256);
  char* a = static_cast<char*>(arena.Allocate(100));
  char* b = static_cast<char*>(arena.Allocate(100));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Writes to one allocation must not touch the other.
  std::memset(a, 0xAA, 100);
  std::memset(b, 0xBB, 100);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(a[i]), 0xAA);
    EXPECT_EQ(static_cast<unsigned char>(b[i]), 0xBB);
  }
  for (size_t align : {size_t{1}, size_t{8}, size_t{16}, size_t{32},
                       Arena::kDefaultAlignment}) {
    void* p = arena.Allocate(17, align);
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(p) % align) << align;
  }
}

TEST(ArenaTest, ZeroByteAllocationIsValid) {
  Arena arena;
  EXPECT_NE(arena.Allocate(0), nullptr);
}

TEST(ArenaTest, GrowsPastInitialCapacityAndSpansBlocks) {
  Arena arena(64);
  std::vector<char*> chunks;
  for (int i = 0; i < 50; ++i) {
    char* p = static_cast<char*>(arena.Allocate(100));
    std::memset(p, i, 100);
    chunks.push_back(p);
  }
  for (int i = 0; i < 50; ++i) {
    for (size_t j = 0; j < 100; ++j) {
      ASSERT_EQ(chunks[i][j], static_cast<char>(i)) << i << "," << j;
    }
  }
  EXPECT_GE(arena.bytes_used(), 50u * 100u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
}

TEST(ArenaTest, ResetReusesBlocksWithoutGrowing) {
  Arena arena(1 << 12);
  for (int i = 0; i < 20; ++i) (void)arena.Allocate(1000);
  const size_t reserved = arena.bytes_reserved();
  for (int round = 0; round < 10; ++round) {
    arena.Reset();
    EXPECT_EQ(arena.bytes_used(), 0u);
    for (int i = 0; i < 20; ++i) (void)arena.Allocate(1000);
  }
  // Steady state: the blocks grown in round one satisfy every later round.
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(ArenaTest, FrameRewindsToConstructionPoint) {
  Arena arena(1 << 12);
  (void)arena.Allocate(100);
  const size_t outer = arena.bytes_used();
  {
    ArenaFrame frame(arena);
    EXPECT_EQ(&frame.arena(), &arena);
    (void)frame.arena().Allocate(5000);
    EXPECT_GT(arena.bytes_used(), outer);
  }
  EXPECT_EQ(arena.bytes_used(), outer);
}

TEST(ArenaTest, NestedFramesUnwindInOrder) {
  Arena arena(256);
  ArenaFrame a(arena);
  (void)arena.Allocate(100);
  const size_t after_a = arena.bytes_used();
  {
    ArenaFrame b(arena);
    (void)arena.Allocate(1000);  // spills into a grown block
    {
      ArenaFrame c(arena);
      (void)arena.Allocate(10000);
    }
    const size_t in_b = arena.bytes_used();
    (void)arena.Allocate(64);
    EXPECT_GT(arena.bytes_used(), in_b);
  }
  EXPECT_EQ(arena.bytes_used(), after_a);
}

TEST(ArenaTest, AllocateArrayIsTypedAndAligned) {
  Arena arena;
  double* d = arena.AllocateArray<double>(31);
  uint32_t* u = arena.AllocateArray<uint32_t>(7);
  EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(d) % alignof(double));
  EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(u) % alignof(uint32_t));
  for (int i = 0; i < 31; ++i) d[i] = i;
  for (int i = 0; i < 7; ++i) u[i] = i;
  for (int i = 0; i < 31; ++i) EXPECT_EQ(d[i], i);
}

TEST(ArenaTest, ThreadLocalArenaIsPerThread) {
  Arena* main_arena = &ThreadLocalArena();
  EXPECT_EQ(main_arena, &ThreadLocalArena());
  Arena* other = nullptr;
  std::thread t([&other] { other = &ThreadLocalArena(); });
  t.join();
  EXPECT_NE(other, nullptr);
  EXPECT_NE(other, main_arena);
}

#if defined(CARDBENCH_TEST_ASAN)
TEST(ArenaAsanTest, RewoundMemoryIsPoisoned) {
  Arena arena(1 << 12);
  char* p = nullptr;
  {
    ArenaFrame frame(arena);
    p = static_cast<char*>(frame.arena().Allocate(64));
    EXPECT_FALSE(__asan_address_is_poisoned(p));
    p[0] = 1;
  }
  // After the frame pops, the released range is poison — a use-after-reset
  // would fault under ASAN exactly like a heap use-after-free.
  EXPECT_TRUE(__asan_address_is_poisoned(p));
}

TEST(ArenaAsanTest, RedzoneBetweenAllocationsIsPoisoned) {
  Arena arena(1 << 12);
  char* a = static_cast<char*>(arena.Allocate(16));
  EXPECT_FALSE(__asan_address_is_poisoned(a + 15));
  // The byte straight past the allocation is a redzone.
  EXPECT_TRUE(__asan_address_is_poisoned(a + 16));
}
#endif  // CARDBENCH_TEST_ASAN

}  // namespace
}  // namespace cardbench
