#include "src/util/crc32c.h"

#include <array>

namespace pandia {
namespace {

using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8 tables for the reflected Castagnoli polynomial: tables[0] is
// the byte-at-a-time table, and tables[k][b] is the CRC contribution of byte
// b followed by k zero bytes, so eight input bytes fold in with eight
// independent lookups.
constexpr Crc32cTables MakeCrc32cTables() {
  constexpr uint32_t kPolynomial = 0x82F63B78u;  // reflected 0x1EDC6F41
  Crc32cTables tables{};
  for (uint32_t byte = 0; byte < 256; ++byte) {
    uint32_t crc = byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolynomial : 0u);
    }
    tables[0][byte] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t byte = 0; byte < 256; ++byte) {
      const uint32_t previous = tables[k - 1][byte];
      tables[k][byte] = (previous >> 8) ^ tables[0][previous & 0xFFu];
    }
  }
  return tables;
}

constexpr Crc32cTables kTables = MakeCrc32cTables();

// Little-endian load assembled from bytes, so the code path is the same on
// every byte order (compilers fuse it into one load where they can).
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t ExtendCrc32c(uint32_t crc, std::string_view data) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t low = crc ^ LoadLe32(p);
    const uint32_t high = LoadLe32(p + 4);
    crc = kTables[7][low & 0xFFu] ^ kTables[6][(low >> 8) & 0xFFu] ^
          kTables[5][(low >> 16) & 0xFFu] ^ kTables[4][low >> 24] ^
          kTables[3][high & 0xFFu] ^ kTables[2][(high >> 8) & 0xFFu] ^
          kTables[1][(high >> 16) & 0xFFu] ^ kTables[0][high >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(std::string_view data) { return ExtendCrc32c(0, data); }

}  // namespace pandia
