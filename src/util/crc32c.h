// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum guarding the
// placement service's journal records (src/serve/journal.h). Chosen over
// CRC32 (zlib) for its better error-detection properties on short records;
// this is the same polynomial used by ext4, btrfs, and leveldb.
//
// Portable software implementation, slicing-by-8: eight table lookups fold
// in eight bytes at a time. Journal appends checksum every record with it
// and replay verifies every record, so it runs on every mutation's path.
#ifndef PANDIA_SRC_UTIL_CRC32C_H_
#define PANDIA_SRC_UTIL_CRC32C_H_

#include <cstdint>
#include <string_view>

namespace pandia {

// CRC32C of `data`. Crc32c("") == 0; the RFC 3720 check value is
// Crc32c("123456789") == 0xE3069283.
uint32_t Crc32c(std::string_view data);

// Incremental form: extends a running checksum with more bytes.
// Crc32c(a + b) == ExtendCrc32c(Crc32c(a), b).
uint32_t ExtendCrc32c(uint32_t crc, std::string_view data);

}  // namespace pandia

#endif  // PANDIA_SRC_UTIL_CRC32C_H_
