#include "io/disk.h"

#include "common/status.h"

namespace sncube {
namespace {

std::uint64_t Blocks(std::size_t bytes, std::size_t block_bytes) {
  return (bytes + block_bytes - 1) / block_bytes;
}

}  // namespace

void DiskModel::ChargeRead(std::size_t bytes) {
  if (fault_hook_ != nullptr && fault_hook_->NextOpFails(/*is_write=*/false)) {
    throw SncubeTransientIoError("injected transient disk read error");
  }
  blocks_read_ += Blocks(bytes, params_.block_bytes);
}

void DiskModel::ChargeWrite(std::size_t bytes) {
  if (fault_hook_ != nullptr && fault_hook_->NextOpFails(/*is_write=*/true)) {
    throw SncubeTransientIoError("injected transient disk write error");
  }
  blocks_written_ += Blocks(bytes, params_.block_bytes);
}

WriteFault DiskModel::TakeWriteFault(std::size_t bytes) {
  if (fault_hook_ == nullptr || bytes == 0) return {};
  return fault_hook_->NextWriteFault(bytes);
}

}  // namespace sncube
