// Unit tests for src/common/crc32: published check values, agreement
// with a bit-at-a-time reference at every length and alignment the
// word-at-a-time loop can see, incremental == one-shot, and the residue
// identity the checkpoint store relies on for chunk_crc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/crc32.h"

namespace proteus {
namespace {

// The oracle: reflected CRC-32 one bit at a time, straight from the
// polynomial, sharing no table or code with the implementation.
std::uint32_t ReferenceCrc32(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::span<const std::uint8_t> Bytes(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

std::vector<std::uint8_t> RandomBytes(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
  return bytes;
}

// `body` followed by the little-endian CRC-32 of `body`.
std::vector<std::uint8_t> Framed(std::vector<std::uint8_t> body) {
  const std::uint32_t crc = Crc32(body);
  std::uint8_t trailer[4];
  std::memcpy(trailer, &crc, sizeof(trailer));
  body.insert(body.end(), trailer, trailer + sizeof(trailer));
  return body;
}

TEST(Crc32Test, MatchesPublishedCheckValues) {
  EXPECT_EQ(Crc32(Bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0u);
  // Values from zlib's crc32().
  EXPECT_EQ(Crc32(Bytes("a")), 0xE8B7BE43u);
  EXPECT_EQ(Crc32(Bytes("abc")), 0x352441C2u);
  EXPECT_EQ(Crc32(Bytes("message digest")), 0x20159D7Fu);
  EXPECT_EQ(Crc32(Bytes("The quick brown fox jumps over the lazy dog")), 0x414FA339u);
  EXPECT_EQ(Crc32(std::vector<std::uint8_t>(32, 0x00)), 0x190A55ADu);
  EXPECT_EQ(Crc32(std::vector<std::uint8_t>(32, 0xFF)), 0xFF6CAB0Bu);
}

TEST(Crc32Test, MatchesReferenceAtEveryLengthAndAlignment) {
  const std::vector<std::uint8_t> buffer = RandomBytes(64 + 8, 1);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const auto slice = std::span<const std::uint8_t>(buffer).subspan(offset, length);
      EXPECT_EQ(Crc32(slice), ReferenceCrc32(slice))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, MatchesReferenceOnLargeBuffers) {
  for (const std::size_t n : std::vector<std::size_t>{4099, 1 << 16, (1 << 20) + 3}) {
    const std::vector<std::uint8_t> buffer = RandomBytes(n, static_cast<std::uint32_t>(n));
    EXPECT_EQ(Crc32(buffer), ReferenceCrc32(buffer)) << "length " << n;
  }
}

TEST(Crc32Test, IncrementalOverRandomSplitsEqualsOneShot) {
  const std::vector<std::uint8_t> buffer = RandomBytes(4096, 7);
  const std::uint32_t want = Crc32(buffer);
  std::mt19937 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint32_t crc = Crc32Init();
    std::size_t at = 0;
    while (at < buffer.size()) {
      // Mostly short pieces (odd lengths exercise the tail loop), now
      // and then a long one.
      const std::size_t piece = (rng() % 4 == 0) ? rng() % 1024 : rng() % 13;
      const std::size_t n = std::min(piece, buffer.size() - at);
      crc = Crc32Update(crc, std::span<const std::uint8_t>(buffer).subspan(at, n));
      at += n;
    }
    ASSERT_EQ(Crc32Final(crc), want) << "trial " << trial;
  }
}

TEST(Crc32Test, FramedBufferHasConstantResidue) {
  for (const std::size_t n : std::vector<std::size_t>{0, 1, 3, 8, 63, 1000, 9001}) {
    std::vector<std::uint8_t> frame = Framed(RandomBytes(n, static_cast<std::uint32_t>(n) + 3));
    EXPECT_EQ(Crc32(frame), kCrc32Residue) << "body length " << n;
    // Any other trailer gives another CRC: the residue identifies a
    // correct trailer exactly.
    frame.back() ^= 0x10;
    EXPECT_NE(Crc32(frame), kCrc32Residue) << "body length " << n;
  }
}

}  // namespace
}  // namespace proteus
