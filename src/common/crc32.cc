#include "common/crc32.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FAIRJOB_CRC32_FOLDED 1
#include <immintrin.h>
#endif

namespace fairjob {
namespace {

// Slicing-by-8: eight lookup tables let the hot loop fold 8 bytes per
// iteration.
using Crc32Tables = uint32_t[8][256];

const Crc32Tables& Tables() {
  static const Crc32Tables& tables = []() -> const Crc32Tables& {
    static Crc32Tables t;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (size_t s = 1; s < 8; ++s) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xffu];
      }
    }
    return t;
  }();
  return tables;
}

// a(x) · b(x) mod P for bit-reflected polynomials (bit 31 is x^0).
uint32_t MultiplyModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1) != 0 ? (b >> 1) ^ 0xEDB88320u : b >> 1;
  }
  return product;
}

#if defined(FAIRJOB_CRC32_FOLDED)

inline __m128i Load128(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// `x` carried over the distance the constants encode and added to `next`:
// (x_lo ⊗ k_lo) ^ (x_hi ⊗ k_hi) ^ next.
__attribute__((target("pclmul"))) inline __m128i Fold128(__m128i x, __m128i k,
                                                         __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Folds `bytes` (a multiple of 16, at least 64) into the raw CRC register
// `state` (the complemented running CRC) and returns the new register.
// Constants are x^k mod P in the bit-reflected domain, from the paper's
// appendix for P = 0x104C11DB7: k1/k2 fold 512 bits ahead (four lanes),
// k3/k4 fold 128 bits ahead, k5 folds 64 -> 32 bits, and P' / mu drive the
// Barrett reduction.
__attribute__((target("pclmul"))) uint32_t FoldPclmul(uint32_t state,
                                                       const unsigned char* p,
                                                       size_t bytes) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_set_epi32(0, ~0, 0, ~0);
  __m128i x0 = _mm_xor_si128(Load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  p += 64;
  bytes -= 64;
  for (; bytes >= 64; p += 64, bytes -= 64) {
    x0 = Fold128(x0, k1k2, Load128(p));
    x1 = Fold128(x1, k1k2, Load128(p + 16));
    x2 = Fold128(x2, k1k2, Load128(p + 32));
    x3 = Fold128(x3, k1k2, Load128(p + 48));
  }
  __m128i x = Fold128(x0, k3k4, x1);
  x = Fold128(x, k3k4, x2);
  x = Fold128(x, k3k4, x3);
  for (; bytes >= 16; p += 16, bytes -= 16) {
    x = Fold128(x, k3k4, Load128(p));
  }

  // 128 -> 64 bits, then 64 -> 32 bits (each step appends 32 zero bits).
  x = _mm_xor_si128(_mm_srli_si128(x, 8),
                    _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  x = _mm_xor_si128(x, t);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x, 4)));
}

#endif  // FAIRJOB_CRC32_FOLDED

}  // namespace

uint32_t Crc32UpdateTable(uint32_t crc, const void* data, size_t bytes) {
  const Crc32Tables& t = Tables();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (bytes >= 8) {
    uint32_t lo = (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                   uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24) ^
                  crc;
    uint32_t hi = uint32_t{p[4]} | uint32_t{p[5]} << 8 |
                  uint32_t{p[6]} << 16 | uint32_t{p[7]} << 24;
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    p += 8;
    bytes -= 8;
  }
  for (size_t i = 0; i < bytes; ++i) {
    crc = t[0][(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

Crc32Concat::Crc32Concat(size_t bytes_b) : shift_(1u << 31) {
  // x^(8n) by square-and-multiply over the bits of n, starting from x^8.
  uint32_t power = 1u << 23;  // x^8
  for (size_t n = bytes_b; n != 0; n >>= 1) {
    if ((n & 1) != 0) shift_ = MultiplyModP(power, shift_);
    power = MultiplyModP(power, power);
  }
}

uint32_t Crc32Concat::operator()(uint32_t crc_a, uint32_t crc_b) const {
  return MultiplyModP(shift_, crc_a) ^ crc_b;
}

bool Crc32FoldedAvailable() {
#if defined(FAIRJOB_CRC32_FOLDED)
  static const bool available = __builtin_cpu_supports("pclmul");
  return available;
#else
  return false;
#endif
}

uint32_t Crc32UpdateFolded(uint32_t crc, const void* data, size_t bytes) {
#if defined(FAIRJOB_CRC32_FOLDED)
  if (bytes >= 64) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    const size_t folded = bytes & ~size_t{15};
    crc = ~FoldPclmul(~crc, p, folded);
    return Crc32UpdateTable(crc, p + folded, bytes - folded);
  }
#endif
  return Crc32UpdateTable(crc, data, bytes);
}

uint32_t Crc32Update(uint32_t crc, const void* data, size_t bytes) {
  if (Crc32FoldedAvailable()) return Crc32UpdateFolded(crc, data, bytes);
  return Crc32UpdateTable(crc, data, bytes);
}

}  // namespace fairjob
