// CRC32C (Castagnoli) and the self-verifying frame trailer.
//
// Every byte run this system persists or transmits — wire frames between
// ranks, view frames, MANIFEST lines, a build's input record — is
// covered by a CRC32C so that silent corruption (bit flips, torn writes
// that still deserialize) is *detected* rather than aggregated into a wrong
// cube. CRC32C is the storage-engine standard (iSCSI, ext4, Btrfs,
// LevelDB/RocksDB blocks): a 32-bit CRC over the Castagnoli polynomial
// 0x1EDC6F41, with strictly better burst-error detection than CRC32/IEEE.
//
// The implementation is slice-by-8: eight table lookups per 8-byte chunk,
// no carry chains, ~1 byte/cycle on era hardware without SSE4.2. Tables are
// generated once at static-init time from the polynomial, and the whole
// layer is self-tested against the RFC 3720 known vectors in common_test.
//
// Frame trailer (`SealFrame`/`VerifyFrame`): a sealed buffer is
//
//     payload .. | u64 payload_len | u32 crc32c(payload) | u32 'SNFR'
//
// (all little-endian, 16 bytes total — kFrameTrailerBytes). Verification
// checks magic, length and checksum and throws SncubeCorruptionError on any
// mismatch, so a truncated, extended, or bit-flipped frame can never be
// mistaken for a shorter-but-valid one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sncube {

// CRC32C of `bytes` (one-shot).
std::uint32_t Crc32c(std::span<const std::byte> bytes);

// Incremental form: extends `crc` (the running checksum of everything seen
// so far; start from kCrc32cInit == 0) with `bytes`. Crc32c(a ++ b) ==
// Crc32cExtend(Crc32cExtend(0, a), b).
inline constexpr std::uint32_t kCrc32cInit = 0;
std::uint32_t Crc32cExtend(std::uint32_t crc, std::span<const std::byte> bytes);

// ---------------------------------------------------------------------------
// Frame trailer.

inline constexpr std::size_t kFrameTrailerBytes = 16;
inline constexpr std::uint32_t kFrameMagic = 0x524E4653;  // "SNFR" LE

// Appends the integrity trailer to `buf` in place.
void SealFrame(std::vector<std::byte>& buf);

// Validates the trailer of a sealed buffer and returns the payload length.
// Throws SncubeCorruptionError when the buffer is too short, the magic or
// length disagree, or the checksum does not match the payload.
std::size_t VerifyFrame(std::span<const std::byte> sealed);

// VerifyFrame + removal of the trailer, leaving only the payload in `buf`.
void VerifyAndStripFrame(std::vector<std::byte>& buf);

}  // namespace sncube
