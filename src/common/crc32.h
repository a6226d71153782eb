#ifndef FAIRJOB_COMMON_CRC32_H_
#define FAIRJOB_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace fairjob {

// CRC-32 with the reflected polynomial 0xEDB88320 (the zlib/PNG/gzip one):
// Crc32("123456789") == 0xCBF43926. `crc` is a previous result (0 to
// start), so Crc32Update(Crc32Update(0, a), b) == Crc32(a ++ b).
//
// Two implementations produce identical checksums:
//  * Table — slicing-by-8 lookup tables, portable, always available;
//  * Folded — carry-less multiplication (PCLMULQDQ) folding four 128-bit
//    lanes at a time, then a Barrett reduction (Intel, "Fast CRC
//    Computation for Generic Polynomials Using PCLMULQDQ Instruction"),
//    about 3x the table's throughput on a multi-hundred-MB cube payload.
// Crc32Update dispatches to the folded one when the CPU reports PCLMULQDQ
// at runtime (checked once), and to the table otherwise.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t bytes);
inline uint32_t Crc32(const void* data, size_t bytes) {
  return Crc32Update(0, data, bytes);
}

uint32_t Crc32UpdateTable(uint32_t crc, const void* data, size_t bytes);

// Concatenation without the bytes: Crc32Concat(n)(Crc32(a), Crc32(b)) ==
// Crc32(a ++ b) for any `b` of `n` bytes (zlib's crc32_combine with the
// shift by n bytes precomputed), about 32 shift-and-xor steps per call.
// Lets a writer checksum blocks as it writes them, in any order, and
// chain them in file order afterwards.
class Crc32Concat {
 public:
  explicit Crc32Concat(size_t bytes_b);
  uint32_t operator()(uint32_t crc_a, uint32_t crc_b) const;

 private:
  uint32_t shift_;  // x^(8 · bytes_b) mod P, bit-reflected
};

// Whether Crc32UpdateFolded may be called on this host.
bool Crc32FoldedAvailable();
// Requires Crc32FoldedAvailable(). Inputs shorter than 64 bytes, and the
// last `bytes % 16`, go through the table.
uint32_t Crc32UpdateFolded(uint32_t crc, const void* data, size_t bytes);

}  // namespace fairjob

#endif  // FAIRJOB_COMMON_CRC32_H_
