#include "io/checked_file.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#include "common/crc32c.h"
#include "common/status.h"

namespace sncube {
namespace {

// Applies an injected write fault to a staged buffer; returns the number of
// bytes that actually land (== buf.size() except for a torn write).
std::size_t ApplyWriteFault(const WriteFault& fault,
                            std::vector<std::byte>& buf) {
  switch (fault.kind) {
    case WriteFault::Kind::kBitFlip:
      buf[static_cast<std::size_t>(fault.offset / 8)] ^=
          static_cast<std::byte>(1u << (fault.offset % 8));
      return buf.size();
    case WriteFault::Kind::kTornWrite:
      return static_cast<std::size_t>(fault.offset);
    case WriteFault::Kind::kNone:
      break;
  }
  return buf.size();
}

// Seals `payload` and lands it at `path` (truncated or appended to, per
// `mode`): the write is charged first, and an injected fault strikes the
// sealed bytes. Returns the sealed size.
std::uint64_t LandSealed(const std::filesystem::path& path,
                         std::span<const std::byte> payload, DiskModel& disk,
                         std::ios::openmode mode) {
  // Sized for the trailer up front, so sealing appends in place instead of
  // reallocating (and copying) the payload a second time.
  std::vector<std::byte> sealed;
  sealed.reserve(payload.size() + kFrameTrailerBytes);
  sealed.assign(payload.begin(), payload.end());
  SealFrame(sealed);
  // Charge first: a transient failure means the op never happened.
  disk.ChargeWrite(sealed.size());
  const std::size_t landing = ApplyWriteFault(disk.TakeWriteFault(sealed.size()), sealed);
  std::ofstream out(path, std::ios::binary | mode);
  if (!out.good()) {
    throw SncubeIoError("checked io: cannot open " + path.string() +
                        " for writing");
  }
  out.write(reinterpret_cast<const char*>(sealed.data()),
            static_cast<std::streamsize>(landing));
  out.flush();
  if (!out.good()) {
    throw SncubeIoError("checked io: short write to " + path.string());
  }
  return sealed.size();
}

// Reads `bytes` bytes at `offset` of `path`, charged to `disk`; the result
// is short if the file ends first.
ByteBuffer ReadRange(const std::filesystem::path& path, std::uint64_t offset,
                     std::uint64_t bytes, DiskModel& disk) {
  disk.ChargeRead(bytes);
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw SncubeIoError("checked io: cannot open " + path.string());
  }
  ByteBuffer buf(bytes);
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(bytes));
  buf.resize(static_cast<std::size_t>(std::max<std::streamsize>(in.gcount(), 0)));
  return buf;
}

}  // namespace

std::uint64_t WriteSealedFile(const std::filesystem::path& path,
                              std::span<const std::byte> payload,
                              DiskModel& disk) {
  return LandSealed(path, payload, disk, std::ios::trunc);
}

ByteBuffer ReadSealedFile(const std::filesystem::path& path, DiskModel& disk) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) {
    throw SncubeIoError("checked io: missing file " + path.string());
  }
  ByteBuffer bytes = ReadRange(path, 0, size, disk);
  if (bytes.size() != size) {
    throw SncubeIoError("checked io: short read from " + path.string());
  }
  VerifyAndStripFrame(bytes);
  return bytes;
}

std::uint64_t AppendSealedFrame(const std::filesystem::path& path,
                                std::span<const std::byte> payload,
                                DiskModel& disk) {
  return LandSealed(path, payload, disk, std::ios::app);
}

ByteBuffer ReadSealedRange(const std::filesystem::path& path,
                           std::uint64_t offset, std::uint64_t bytes,
                           DiskModel& disk) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) {
    throw SncubeIoError("checked io: missing file " + path.string());
  }
  // The range comes from an index that is outside input: bound it by the
  // file before allocating for it.
  if (offset > size || bytes > size - offset) {
    throw SncubeCorruptionError("checked io: " + path.string() +
                                " ends before the frame at offset " +
                                std::to_string(offset));
  }
  ByteBuffer frame = ReadRange(path, offset, bytes, disk);
  VerifyAndStripFrame(frame);
  return frame;
}

std::string SealLine(const std::string& text) {
  SNCUBE_CHECK_MSG(text.find('\n') == std::string::npos,
                   "sealed lines must be single lines");
  const std::uint32_t crc =
      Crc32c(std::span<const std::byte>(
          reinterpret_cast<const std::byte*>(text.data()), text.size()));
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), " crc %08x", crc);
  return text + suffix;
}

std::optional<std::string> VerifySealedLine(const std::string& line) {
  // " crc " + 8 hex digits.
  constexpr std::size_t kSuffixLen = 5 + 8;
  if (line.size() < kSuffixLen) return std::nullopt;
  const std::size_t split = line.size() - kSuffixLen;
  if (line.compare(split, 5, " crc ") != 0) return std::nullopt;
  std::uint32_t want = 0;
  for (std::size_t i = split + 5; i < line.size(); ++i) {
    const char c = line[i];
    std::uint32_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint32_t>(c - 'a') + 10;
    } else {
      return std::nullopt;
    }
    want = (want << 4) | digit;
  }
  const std::string text = line.substr(0, split);
  const std::uint32_t got =
      Crc32c(std::span<const std::byte>(
          reinterpret_cast<const std::byte*>(text.data()), text.size()));
  if (got != want) return std::nullopt;
  return text;
}

void AppendSealedLine(const std::filesystem::path& path,
                      const std::string& text, DiskModel& disk) {
  const std::string line = SealLine(text) + '\n';
  disk.ChargeWrite(line.size());
  std::vector<std::byte> staged(line.size());
  for (std::size_t i = 0; i < line.size(); ++i) {
    staged[i] = static_cast<std::byte>(line[i]);
  }
  const std::size_t landing = ApplyWriteFault(disk.TakeWriteFault(staged.size()), staged);
  std::ofstream out(path, std::ios::app | std::ios::binary);
  if (!out.good()) {
    throw SncubeIoError("checked io: cannot append to " + path.string());
  }
  out.write(reinterpret_cast<const char*>(staged.data()),
            static_cast<std::streamsize>(landing));
  out.flush();
  if (!out.good()) {
    throw SncubeIoError("checked io: short append to " + path.string());
  }
}

}  // namespace sncube
