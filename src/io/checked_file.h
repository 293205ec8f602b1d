// The checksummed file layer: the one sanctioned path through which code
// persists durable artifacts (view frames, MANIFEST lines) to the real
// filesystem.
//
// Every write is covered by a CRC32C — whole files get the 16-byte frame
// trailer of common/crc32c.h, manifest lines get a textual " crc <8-hex>"
// suffix — and every write passes through the owning rank's DiskModel, which
// both charges the simulated clock and injects the plan's silent-corruption
// faults (bit flips, torn writes) *after* the checksum is computed. That
// ordering is the point: corruption strikes below the software, and the
// checksum is what makes it detectable on the read path instead of
// aggregating into a wrong cube.
//
// A lint rule (tools/lint/sncheck.py, raw-file-write) bans direct
// std::ofstream / fopen writes in src/core|io|net outside this layer, so
// future code cannot quietly bypass integrity framing.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>

#include "io/disk.h"
#include "relation/serialize.h"

namespace sncube {

// Writes `payload` plus its integrity trailer to `path` (truncating any
// previous contents) and returns the sealed size. Charges the disk for the
// sealed size up front — a transient injected failure
// (SncubeTransientIoError) means nothing was written and the caller may
// retry the whole call — then applies any injected write fault to the
// sealed bytes before they land. Filesystem failures throw SncubeIoError.
std::uint64_t WriteSealedFile(const std::filesystem::path& path,
                              std::span<const std::byte> payload,
                              DiskModel& disk);

// Reads `path`, charges the disk, verifies and strips the trailer, and
// returns the payload. Missing or unreadable files throw SncubeIoError;
// damaged contents (bit flip, truncation, bad trailer) throw
// SncubeCorruptionError.
ByteBuffer ReadSealedFile(const std::filesystem::path& path, DiskModel& disk);

// A file of sealed frames back to back: AppendSealedFrame appends `payload`
// plus its trailer to `path` (creating it) with WriteSealedFile's charge-
// first / corrupt-after contract and returns the sealed size;
// ReadSealedRange reads the `bytes` bytes at `offset` as one sealed frame
// and returns its payload, throwing as ReadSealedFile does (a range past
// the end of the file is a truncation).
std::uint64_t AppendSealedFrame(const std::filesystem::path& path,
                                std::span<const std::byte> payload,
                                DiskModel& disk);
ByteBuffer ReadSealedRange(const std::filesystem::path& path,
                           std::uint64_t offset, std::uint64_t bytes,
                           DiskModel& disk);

// Textual line integrity: returns `text` with a " crc <8-hex>" suffix
// covering it. `text` must not contain '\n'.
std::string SealLine(const std::string& text);

// Verifies a sealed line and returns the payload text, or std::nullopt when
// the suffix is missing, malformed, or disagrees with the text — a torn or
// damaged line is indistinguishable from an unfinished one by design.
std::optional<std::string> VerifySealedLine(const std::string& line);

// Appends SealLine(text) + '\n' to `path`, with the same charge-first /
// corrupt-after contract as WriteSealedFile. A torn append leaves a partial
// line that VerifySealedLine later rejects.
void AppendSealedLine(const std::filesystem::path& path,
                      const std::string& text, DiskModel& disk);

}  // namespace sncube
