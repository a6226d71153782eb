#include "common/crc32.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"

namespace fairjob {
namespace {

// Bit-at-a-time CRC-32 (reflected 0xEDB88320): the definition, slow enough
// to be obviously right.
uint32_t BitwiseCrc32(uint32_t crc, const unsigned char* p, size_t bytes) {
  crc = ~crc;
  for (size_t i = 0; i < bytes; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.NextBelow(256));
  }
  return bytes;
}

constexpr uint32_t kSeeds[] = {0u, 1u, 0xCBF43926u, 0xFFFFFFFFu, 0x80000000u};

TEST(Crc32Test, CheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32UpdateTable(0, check, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(check, 0), 0u);
}

TEST(Crc32Test, FoldedCheckValue) {
  if (!Crc32FoldedAvailable()) GTEST_SKIP() << "no PCLMULQDQ on this host";
  // Short inputs take the table path inside the folded variant; 64 copies
  // of the check string exercise the fold itself.
  EXPECT_EQ(Crc32UpdateFolded(0, "123456789", 9), 0xCBF43926u);
  std::string repeated;
  for (int i = 0; i < 64; ++i) repeated += "123456789";
  EXPECT_EQ(Crc32UpdateFolded(0, repeated.data(), repeated.size()),
            Crc32UpdateTable(0, repeated.data(), repeated.size()));
}

// The table variant runs on every host: it is the fallback and defines
// the on-disk checksums.
TEST(Crc32Test, TableMatchesBitwiseDefinition) {
  const std::vector<unsigned char> buffer = RandomBytes(1100 + 16, 7);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 1100; len += (len < 80 ? 1 : 37)) {
      for (uint32_t seed : kSeeds) {
        ASSERT_EQ(Crc32UpdateTable(seed, buffer.data() + offset, len),
                  BitwiseCrc32(seed, buffer.data() + offset, len))
            << "offset " << offset << " len " << len << " seed " << seed;
      }
    }
  }
}

TEST(Crc32Test, FoldedMatchesTableOnEveryLengthOffsetAndSeed) {
  if (!Crc32FoldedAvailable()) GTEST_SKIP() << "no PCLMULQDQ on this host";
  const std::vector<unsigned char> buffer = RandomBytes(1100 + 16, 11);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
      for (uint32_t seed : kSeeds) {
        const unsigned char* p = buffer.data() + offset;
        ASSERT_EQ(Crc32UpdateFolded(seed, p, len),
                  Crc32UpdateTable(seed, p, len))
            << "offset " << offset << " len " << len << " seed " << seed;
      }
    }
  }
}

TEST(Crc32Test, FoldedMatchesTableOnStructuredInputs) {
  if (!Crc32FoldedAvailable()) GTEST_SKIP() << "no PCLMULQDQ on this host";
  // All zeros, all ones and one set bit: the patterns a sparse cube file is
  // made of (ftruncate zeros, presence words).
  for (size_t len : {size_t{64}, size_t{65}, size_t{127}, size_t{128},
                     size_t{4096}, size_t{1 << 20}}) {
    std::vector<unsigned char> zeros(len, 0);
    std::vector<unsigned char> ones(len, 0xff);
    std::vector<unsigned char> single(len, 0);
    single[len / 2] = 0x01;
    for (const auto* bytes : {&zeros, &ones, &single}) {
      for (uint32_t seed : kSeeds) {
        ASSERT_EQ(Crc32UpdateFolded(seed, bytes->data(), len),
                  Crc32UpdateTable(seed, bytes->data(), len))
            << "len " << len << " seed " << seed;
      }
    }
  }
}

TEST(Crc32Test, UpdateChainsAcrossSplits) {
  const std::vector<unsigned char> buffer = RandomBytes(3000, 13);
  const uint32_t whole = Crc32(buffer.data(), buffer.size());
  EXPECT_EQ(whole, Crc32UpdateTable(0, buffer.data(), buffer.size()));
  for (size_t split : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                       size_t{1000}, size_t{2999}, size_t{3000}}) {
    uint32_t crc = Crc32Update(0, buffer.data(), split);
    crc = Crc32Update(crc, buffer.data() + split, buffer.size() - split);
    EXPECT_EQ(crc, whole) << "split " << split;
  }
}

TEST(Crc32Test, ConcatMatchesChecksumOfConcatenation) {
  const std::vector<unsigned char> buffer = RandomBytes(4096, 19);
  for (size_t b_len : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                       size_t{64}, size_t{952}, size_t{1000}, size_t{2048}}) {
    const Crc32Concat concat(b_len);
    for (size_t a_len : {size_t{0}, size_t{1}, size_t{13}, size_t{500}}) {
      const unsigned char* a = buffer.data();
      const unsigned char* b = buffer.data() + a_len;
      EXPECT_EQ(concat(Crc32(a, a_len), Crc32(b, b_len)),
                Crc32(buffer.data(), a_len + b_len))
          << "a " << a_len << " b " << b_len;
    }
  }
  // Chaining equal-length blocks, some all zero, as the column writer does.
  const size_t block = 24;
  const Crc32Concat after_block(block);
  std::vector<unsigned char> file(block * 50, 0);
  for (size_t i = 0; i < file.size(); ++i) {
    if ((i / block) % 3 != 1) file[i] = buffer[i];
  }
  uint32_t crc = Crc32(file.data(), 0);
  for (size_t i = 0; i < 50; ++i) {
    crc = after_block(crc, Crc32(file.data() + i * block, block));
  }
  EXPECT_EQ(crc, Crc32(file.data(), file.size()));
}

TEST(Crc32Test, DispatchedMatchesTable) {
  const std::vector<unsigned char> buffer = RandomBytes(1 << 16, 17);
  for (size_t len : {size_t{0}, size_t{15}, size_t{64}, size_t{1000},
                     size_t{1 << 16}}) {
    EXPECT_EQ(Crc32Update(0x1234u, buffer.data(), len),
              Crc32UpdateTable(0x1234u, buffer.data(), len));
  }
}

}  // namespace
}  // namespace fairjob
