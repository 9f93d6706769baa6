// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for framing
// durable checkpoint chunks and manifests. Table-driven, no
// dependencies; slicing-by-8 (eight bytes per table step). The
// incremental form lets callers checksum a frame while streaming it.
#ifndef SRC_COMMON_CRC32_H_
#define SRC_COMMON_CRC32_H_

#include <cstdint>
#include <span>

namespace proteus {

// One-shot CRC-32 of `data`. Matches zlib's crc32(): Crc32 of "123456789"
// is 0xCBF43926.
std::uint32_t Crc32(std::span<const std::uint8_t> data);

// Incremental form: feed the previous return value back as `crc` (start
// from Crc32Init()) and finish with Crc32Final().
std::uint32_t Crc32Init();
std::uint32_t Crc32Update(std::uint32_t crc, std::span<const std::uint8_t> data);
std::uint32_t Crc32Final(std::uint32_t crc);

// CRC-32 of any frame whose last four bytes are the little-endian CRC-32
// of the bytes before them. A writer that appends such a trailer knows
// the whole frame's CRC without a second pass, and for a frame of at
// least four bytes Crc32(frame) == kCrc32Residue holds exactly when the
// trailer is right.
inline constexpr std::uint32_t kCrc32Residue = 0x2144DF1Cu;

}  // namespace proteus

#endif  // SRC_COMMON_CRC32_H_
