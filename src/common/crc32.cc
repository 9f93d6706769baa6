#include "src/common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace proteus {
namespace {

// Slicing-by-8 folds eight input bytes into the CRC per step. It loads
// them as one little-endian word, so the byte order of the host matters.
static_assert(std::endian::native == std::endian::little,
              "Crc32Update loads input words in little-endian order");

constexpr std::uint32_t kPoly = 0xEDB88320u;

using Table = std::array<std::uint32_t, 256>;

// kTables[0] is the classic byte-at-a-time table. kTables[k][b] is the
// CRC contribution of byte b followed by k zero bytes, so the eight
// bytes of one word can be looked up independently and XORed together.
constexpr std::array<Table, 8> MakeTables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr std::array<Table, 8> kTables = MakeTables();

}  // namespace

std::uint32_t Crc32Init() { return 0xFFFFFFFFu; }

std::uint32_t Crc32Update(std::uint32_t crc, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    word ^= crc;
    crc = kTables[7][word & 0xFFu] ^ kTables[6][(word >> 8) & 0xFFu] ^
          kTables[5][(word >> 16) & 0xFFu] ^ kTables[4][(word >> 24) & 0xFFu] ^
          kTables[3][(word >> 32) & 0xFFu] ^ kTables[2][(word >> 40) & 0xFFu] ^
          kTables[1][(word >> 48) & 0xFFu] ^ kTables[0][word >> 56];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

std::uint32_t Crc32Final(std::uint32_t crc) { return crc ^ 0xFFFFFFFFu; }

std::uint32_t Crc32(std::span<const std::uint8_t> data) {
  return Crc32Final(Crc32Update(Crc32Init(), data));
}

}  // namespace proteus
