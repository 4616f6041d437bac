#ifndef CARDBENCH_COMMON_HASH_H_
#define CARDBENCH_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace cardbench {

/// Shared 64-bit integer hash of the storage and execution layers: the
/// splitmix64 finalizer (Stafford variant 13). Full-width mixing means any
/// bit window of the result is usable; KeyCountTable, and with it
/// HashIndex, takes its slot from the low bits, so a value hashes
/// identically in every table of the system. std::hash<int64_t> is the
/// identity on most standard libraries, which would put sequential keys in
/// sequential slots; the finalizer spreads them. Cheap enough (2
/// multiplies, 3 shifts) to recompute rather than cache.
inline uint64_t HashMix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace cardbench

#endif  // CARDBENCH_COMMON_HASH_H_
