#include "io/external_sort.h"

#include <algorithm>
#include <vector>

#include "exec/parallel_algo.h"
#include "obs/trace.h"

namespace sncube {
namespace {

std::size_t CeilDiv(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

// Charges the block transfers of an external sort of `rows` rows of
// `row_bytes` each that do not fit in working memory, one op per run read
// or written. The runs are tracked by their sizes only: no row moves.
void ChargeSpill(DiskModel& disk, std::size_t rows, std::size_t row_bytes) {
  const std::size_t block = disk.params().block_bytes;
  const std::size_t memory = disk.params().memory_bytes;
  // A run is read in refills of one block's worth of whole rows (at least
  // one row), each refill costing its own whole blocks.
  const std::size_t refill =
      std::max<std::size_t>(1, block / row_bytes) * row_bytes;
  const auto read_run = [&](std::size_t bytes) {
    disk.ChargeRead((bytes / refill * CeilDiv(refill, block) +
                     CeilDiv(bytes % refill, block)) *
                    block);
  };

  // Run formation: each memory-load of rows is read, sorted and written
  // back as one run.
  const std::size_t run_rows = std::max<std::size_t>(1, memory / row_bytes);
  std::vector<std::size_t> runs;
  for (std::size_t begin = 0; begin < rows; begin += run_rows) {
    const std::size_t bytes = std::min(run_rows, rows - begin) * row_bytes;
    disk.ChargeRead(bytes);
    disk.ChargeWrite(bytes);
    runs.push_back(bytes);
  }

  // Merge passes: m/B - 1 input blocks and one output block fill memory,
  // and each merge takes at least two runs.
  const std::size_t fan_in = std::max<std::size_t>(3, memory / block) - 1;
  while (runs.size() > 1) {
    std::vector<std::size_t> merged;
    for (std::size_t g = 0; g < runs.size(); g += fan_in) {
      std::size_t bytes = 0;
      for (std::size_t i = g; i < std::min(runs.size(), g + fan_in); ++i) {
        read_run(runs[i]);
        bytes += runs[i];
      }
      disk.ChargeWrite(bytes);
      merged.push_back(bytes);
    }
    runs.swap(merged);
  }
  read_run(runs[0]);  // the consumer's read of the sorted output
}

}  // namespace

Relation ExternalSort(const Relation& input, std::span<const int> cols,
                      DiskModel& disk) {
  SNCUBE_TRACE_SPAN("external-sort");
  const std::size_t bytes = input.ByteSize();
  if (bytes <= disk.params().memory_bytes) {
    disk.ChargeRead(bytes);
    disk.ChargeWrite(bytes);
  } else {
    ChargeSpill(disk, input.size(), input.RowBytes());
  }
  return exec::SortRelationAuto(input, cols);
}

}  // namespace sncube
