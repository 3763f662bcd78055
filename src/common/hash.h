// Hash functions used by the far-memory hash tables. Self-contained (no
// std::hash, whose quality is implementation-defined) so bucket distributions
// are reproducible across platforms.
#ifndef FMDS_SRC_COMMON_HASH_H_
#define FMDS_SRC_COMMON_HASH_H_

#include <cstdint>
#include <cstring>
#include <string_view>

namespace fmds {

// Fibonacci / xor-shift finalizer (splittable-random style). Good avalanche
// for 64-bit integer keys; this is the default key hash in the maps.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// FNV-1a for byte strings.
inline uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace fmds

#endif  // FMDS_SRC_COMMON_HASH_H_
