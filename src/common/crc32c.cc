// Copyright (c) 2026 The plastream Authors. MIT license.

#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace plastream {
namespace {

// Byte-at-a-time table for the reflected Castagnoli polynomial, built at
// compile time.
constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#if defined(__x86_64__)
// SSE4.2 `crc32` computes exactly this polynomial: 8 bytes per
// instruction over the bulk, then a 4-, 2- and 1-byte step for the tail.
// Compiled for SSE4.2 regardless of the build's -march; only called once
// CPUID has confirmed the instruction exists.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(
    std::span<const uint8_t> data, uint32_t crc) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t state = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    state = _mm_crc32_u64(state, word);
  }
  auto state32 = static_cast<uint32_t>(state);
  if ((n & 4) != 0) {
    uint32_t word;
    std::memcpy(&word, p, sizeof(word));
    state32 = _mm_crc32_u32(state32, word);
    p += 4;
  }
  if ((n & 2) != 0) {
    uint16_t word;
    std::memcpy(&word, p, sizeof(word));
    state32 = _mm_crc32_u16(state32, word);
    p += 2;
  }
  if ((n & 1) != 0) state32 = _mm_crc32_u8(state32, *p);
  return ~state32;
}

using Crc32cFn = uint32_t (*)(std::span<const uint8_t>, uint32_t);

Crc32cFn SelectCrc32c() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") ? Crc32cSse42 : Crc32cPortable;
}
#endif

}  // namespace

uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t crc) {
  crc = ~crc;
  for (const uint8_t byte : data) {
    crc = (crc >> 8) ^ kTable[(crc ^ byte) & 0xFFu];
  }
  return ~crc;
}

uint32_t Crc32c(std::span<const uint8_t> data, uint32_t crc) {
#if defined(__x86_64__)
  static const Crc32cFn impl = SelectCrc32c();
  return impl(data, crc);
#else
  return Crc32cPortable(data, crc);
#endif
}

}  // namespace plastream
