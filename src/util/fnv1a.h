// FNV-1a, 64-bit: the non-cryptographic hash behind the prediction cache's
// fingerprints, the fleet's consistent-hash ring (rack::FleetHash) and the
// description parser's key table. Equal bytes always hash equal, and a
// change in any byte changes the hash with overwhelming probability.
#ifndef PANDIA_SRC_UTIL_FNV1A_H_
#define PANDIA_SRC_UTIL_FNV1A_H_

#include <cstdint>
#include <string_view>

namespace pandia {

// The standard 64-bit offset basis: the hash of no bytes.
inline constexpr uint64_t kFnv1a64Offset = 14695981039346656037ull;

// Folds `bytes` into `hash`.
inline uint64_t Fnv1a64(std::string_view bytes, uint64_t hash = kFnv1a64Offset) {
  for (const char c : bytes) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return hash;
}

}  // namespace pandia

#endif  // PANDIA_SRC_UTIL_FNV1A_H_
