#ifndef CARDBENCH_COMMON_ARENA_H_
#define CARDBENCH_COMMON_ARENA_H_

#include <cstddef>
#include <vector>

namespace cardbench {

/// Bump-pointer allocator for per-query / per-batch scratch memory.
///
/// Ownership rules (see DESIGN.md "Kernel & memory layer"):
///  - An arena owns its blocks; Allocate() returns raw storage that is valid
///    until the enclosing frame is popped or the arena is Reset(). Nothing
///    allocated from an arena is individually freed, and no destructors run —
///    only trivially-destructible payloads belong here.
///  - Hot paths borrow an arena (usually ThreadLocalArena()) and bracket
///    their usage with an ArenaFrame so nested callers can stack allocations
///    without coordinating.
///  - Under ASAN, freed regions (after Reset/Rewind) and the gaps between
///    allocations are poisoned, so use-after-reset and overflow into a
///    neighbouring allocation are caught like heap bugs.
class Arena {
 public:
  /// Alignment of every allocation and block start; also the cap for the
  /// `alignment` argument of Allocate.
  static constexpr size_t kDefaultAlignment = 64;

  /// `initial_capacity` sizes the first block (allocated lazily).
  explicit Arena(size_t initial_capacity = 1 << 16);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `alignment` (power of two,
  /// <= kDefaultAlignment). bytes == 0 returns a valid non-null pointer.
  void* Allocate(size_t bytes, size_t alignment = alignof(double));

  /// Typed convenience: `count` default-uninitialized Ts.
  template <typename T>
  T* AllocateArray(size_t count) {
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  /// A rewind point for frame-scoped usage (see ArenaFrame).
  struct Mark {
    size_t block_index = 0;
    size_t used = 0;
  };

  Mark Position() const;

  /// Releases everything allocated after `mark` (blocks stay owned for
  /// reuse; ASAN re-poisons the released range).
  void Rewind(Mark mark);

  /// Releases everything; keeps the blocks for reuse.
  void Reset();

  /// Bytes handed out since the last Reset (excludes block slack).
  size_t bytes_used() const;

  /// Total capacity of all blocks ever grown.
  size_t bytes_reserved() const;

 private:
  struct Block {
    char* data = nullptr;
    size_t capacity = 0;
    size_t used = 0;
  };

  Block* GrowAndAlign(size_t bytes, size_t alignment);

  std::vector<Block> blocks_;
  size_t current_ = 0;  // blocks_[current_] receives allocations.
  size_t initial_capacity_;
};

/// RAII frame: rewinds the arena to its construction point on destruction.
class ArenaFrame {
 public:
  explicit ArenaFrame(Arena& arena)
      : arena_(arena), mark_(arena.Position()) {}
  ~ArenaFrame() { arena_.Rewind(mark_); }

  ArenaFrame(const ArenaFrame&) = delete;
  ArenaFrame& operator=(const ArenaFrame&) = delete;

  Arena& arena() const { return arena_; }

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

/// The calling thread's scratch arena. Executor morsels, featurization and
/// sampling buffers allocate here inside an ArenaFrame; the arena lives for
/// the thread, so steady-state queries allocate zero heap.
Arena& ThreadLocalArena();

}  // namespace cardbench

#endif  // CARDBENCH_COMMON_ARENA_H_
