// Copyright (c) 2026 The plastream Authors. MIT license.
//
// CRC32C (Castagnoli, reflected polynomial 0x82F63B78): the integrity
// checksum of wire frames and archive records. Chosen over the previous
// XOR byte because its Hamming distance is >= 4 for every frame length the
// codecs produce, so any 1-, 2- or 3-bit corruption is always detected —
// in particular the XOR checksum's blind spot, two flips of the same bit
// position in different bytes, cannot cancel.
//
// Dispatch: on x86-64 CPUs with SSE4.2 (probed once, on first use, with
// CPUID — no build flag, option or environment variable involved),
// Crc32c runs the hardware `crc32` instruction, 8 bytes per step. Every
// other CPU and architecture runs the byte-at-a-time table walk, which is
// also exposed as Crc32cPortable: the reference the tests hold the
// hardware path to. Both return identical checksums for every input.

#ifndef PLASTREAM_COMMON_CRC32C_H_
#define PLASTREAM_COMMON_CRC32C_H_

#include <cstdint>
#include <span>

namespace plastream {

/// CRC32C of `data`, continuing from `crc` (pass 0 for a fresh checksum).
/// Chain calls to checksum discontiguous buffers:
/// `Crc32c(b, Crc32c(a))  ==  Crc32c(a ++ b)`.
uint32_t Crc32c(std::span<const uint8_t> data, uint32_t crc = 0);

/// The table-walk CRC32C every CPU can run: Crc32c's fallback and the
/// tests' reference for its hardware path. Same contract as Crc32c.
uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t crc = 0);

}  // namespace plastream

#endif  // PLASTREAM_COMMON_CRC32C_H_
