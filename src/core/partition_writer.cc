#include "core/partition_writer.h"

#include <utility>

#include "common/status.h"
#include "lattice/lattice.h"

namespace sncube {

PartitionWriter::Written PartitionWriter::FindWritten(
    const ViewStore& store, const std::vector<ViewId>& selected, int d) {
  Written written;
  const auto partitions = PartitionViews(selected, d);
  for (int i = 0; i < d; ++i) {
    std::vector<ViewEntry> entries;
    for (const ViewId id : partitions[i]) {
      const auto entry = store.VerifyBuildFile(id);
      if (!entry.has_value()) break;
      entries.push_back(*entry);
    }
    if (entries.empty() || entries.size() != partitions[i].size()) continue;
    written.partitions.insert(i);
    written.entries.insert(written.entries.end(), entries.begin(),
                           entries.end());
  }
  return written;
}

PartitionWriter::PartitionWriter(const ViewStore& store, const Schema& schema,
                                 const std::vector<ViewId>& selected,
                                 int procs, bool resume)
    : PartitionWriter(store, schema, procs,
                      resume ? FindWritten(store, selected, schema.dims())
                             : Written{}) {}

PartitionWriter::PartitionWriter(const ViewStore& store, const Schema& schema,
                                 int procs, Written written)
    : procs_(procs),
      kept_(std::move(written.partitions)),
      writer_(store, schema, written.entries) {
  SNCUBE_CHECK(procs_ >= 1);
  for (const ViewEntry& entry : written.entries) rows_ += entry.rows;
}

void PartitionWriter::Attach(ParallelCubeOptions& opts) {
  opts.partition_sink = [this](int partition, int rank, CubeResult part) {
    Deliver(partition, rank, std::move(part));
  };
  opts.skip_partitions = kept_;
}

void PartitionWriter::Deliver(int partition, int rank, CubeResult part) {
  SNCUBE_CHECK(rank >= 0 && rank < procs_);
  MutexLock lock(mu_);
  Pending& pending = pending_[partition];
  pending.parts.resize(static_cast<std::size_t>(procs_));
  pending.parts[static_cast<std::size_t>(rank)] = std::move(part);
  if (++pending.arrived < procs_) return;
  // The last shard: write the partition, then free it.
  const std::vector<CubeResult> parts = std::move(pending.parts);
  pending_.erase(partition);
  std::vector<const Relation*> rels(parts.size());
  for (const auto& [id, first] : parts[0].views) {
    if (!first.selected) continue;  // auxiliary: not stored
    for (std::size_t r = 0; r < parts.size(); ++r) {
      const auto it = parts[r].views.find(id);
      SNCUBE_CHECK_MSG(it != parts[r].views.end() && it->second.selected &&
                           it->second.order == first.order,
                       "rank shards disagree on a view");
      rels[r] = &it->second.rel;
      rows_ += it->second.rel.size();
    }
    writer_.Write(id, first.order, rels);
  }
}

std::uint64_t PartitionWriter::rows() const {
  MutexLock lock(mu_);
  return rows_;
}

void PartitionWriter::Commit() {
  MutexLock lock(mu_);
  SNCUBE_CHECK_MSG(pending_.empty(), "a partition lacks a rank's shard");
  writer_.Commit();
}

void PartitionWriter::Abandon() {
  MutexLock lock(mu_);
  writer_.Abandon();
}

}  // namespace sncube
