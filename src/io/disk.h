// Per-processor local-disk model.
//
// The paper's machine model (Section 2) charges a linear scan of a size-n
// file O(n/B) block transfers and an external sort O((n/B)·log_{m/B}(n/B)),
// after Vitter [22]. DiskModel is the accounting side of that model: every
// byte staged to or from a processor's local disk is charged in whole blocks
// of `block_bytes`, against a working memory of `memory_bytes`. The cost
// model in src/net converts block counts into simulated seconds.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sncube {

struct DiskParams {
  // Block transfer size B. 8 KiB keeps the per-view block-rounding floor
  // proportionally small at bench scale; together with disk_block_s (see
  // net/params.h) it models the same ~40 MB/s IDE-era bandwidth a larger
  // block would.
  std::size_t block_bytes = 8 * 1024;
  // Working memory m available for sorting/merging per processor.
  std::size_t memory_bytes = 64 * 1024 * 1024;
};

// A corruption fault to apply to the bytes of a write that *succeeds*:
// silent damage the device acknowledges, as opposed to the transient errors
// it reports. Detected only because every persisted frame carries a CRC32C
// trailer (common/crc32c.h).
struct WriteFault {
  enum class Kind {
    kNone,       // write lands faithfully
    kBitFlip,    // one bit inverted; offset is the bit index
    kTornWrite,  // write truncated; offset is the byte count that landed
  };
  Kind kind = Kind::kNone;
  std::uint64_t offset = 0;
};

// Decides whether a given disk operation fails transiently. Implemented by
// the fault injector in src/net; the hook lives here so the io layer stays
// free of net dependencies. A firing hook makes ChargeRead/ChargeWrite throw
// SncubeTransientIoError before any blocks are accounted — the op did not
// happen, and the caller may retry it.
class DiskFaultHook {
 public:
  virtual ~DiskFaultHook() = default;
  virtual bool NextOpFails(bool is_write) = 0;
  // Silent-corruption decision for a write of `bytes` bytes. The default
  // keeps hand-written test hooks source-compatible: no corruption.
  virtual WriteFault NextWriteFault(std::size_t bytes) {
    (void)bytes;
    return {};
  }
};

// Running totals of block transfers on one processor's local disk.
class DiskModel {
 public:
  explicit DiskModel(DiskParams params = {}) : params_(params) {}

  const DiskParams& params() const { return params_; }

  // Installs (or with nullptr removes) a transient-fault hook. Not owned;
  // must outlive the model or be cleared first.
  void set_fault_hook(DiskFaultHook* hook) { fault_hook_ = hook; }

  // Charges a read/write of `bytes` rounded up to whole blocks. Throws
  // SncubeTransientIoError, charging nothing, when the fault hook fires.
  void ChargeRead(std::size_t bytes);
  void ChargeWrite(std::size_t bytes);

  // Draws the silent-corruption decision for a write of `bytes` bytes.
  // Callers that physically persist bytes (the checksummed io layer) must
  // apply the returned fault to the buffer *after* computing its checksum —
  // corruption strikes below the CRC, that is what makes it detectable.
  WriteFault TakeWriteFault(std::size_t bytes);

  std::uint64_t blocks_read() const { return blocks_read_; }
  std::uint64_t blocks_written() const { return blocks_written_; }
  std::uint64_t blocks_total() const { return blocks_read_ + blocks_written_; }

  void Reset() { blocks_read_ = blocks_written_ = 0; }

 private:
  DiskParams params_;
  DiskFaultHook* fault_hook_ = nullptr;
  std::uint64_t blocks_read_ = 0;
  std::uint64_t blocks_written_ = 0;
};

}  // namespace sncube
