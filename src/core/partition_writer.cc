#include "core/partition_writer.h"

#include <cstdio>
#include <span>
#include <utility>

#include "common/crc32c.h"
#include "common/status.h"
#include "io/checked_file.h"
#include "lattice/lattice.h"

namespace sncube {
namespace {

// The text of a build's input record: the facts' shape and the CRC32Cs of
// their keys and of their measures, read in place, then the selected
// views' masks.
std::string InputRecord(const Relation& facts,
                        const std::vector<ViewId>& selected) {
  const std::span<const Key> keys(
      facts.raw_keys(), facts.size() * static_cast<std::size_t>(facts.width()));
  char text[96];
  std::snprintf(text, sizeof(text), "input %zu %d %08x %08x views",
                facts.size(), facts.width(), Crc32c(std::as_bytes(keys)),
                Crc32c(std::as_bytes(facts.measures())));
  std::string record = text;
  for (const ViewId id : selected) {
    std::snprintf(text, sizeof(text), " %x", id.mask());
    record += text;
  }
  return record;
}

[[noreturn]] void RefuseResume(const ViewStore& store, const std::string& why) {
  throw SncubeError("cannot resume the build in " + store.dir().string() +
                    ": " + why + "; build it again without resuming");
}

}  // namespace

PartitionWriter::Written PartitionWriter::FindWritten(
    const ViewStore& store, std::string input,
    const std::vector<ViewId>& selected, int d) {
  const auto path = store.dir() / ViewStore::kBuildInputName;
  const bool recorded = std::filesystem::exists(path);
  if (recorded) {
    ByteBuffer bytes;
    try {
      DiskModel disk;
      bytes = ReadSealedFile(path, disk);
    } catch (const SncubeCorruptionError& e) {
      RefuseResume(store, "its input record is damaged (" +
                              std::string(e.what()) + ")");
    }
    if (std::string(reinterpret_cast<const char*>(bytes.data()),
                    bytes.size()) != input) {
      RefuseResume(store, "it was started with another input or view "
                          "selection");
    }
  }
  Written written{std::move(input), {}, {}};
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
  if (!recorded && !written.partitions.empty()) {
    RefuseResume(store, "its view files have no input record to check them "
                        "against");
  }
  return written;
}

PartitionWriter::PartitionWriter(const ViewStore& store, const Schema& schema,
                                 const Relation& facts,
                                 const std::vector<ViewId>& selected,
                                 int procs, bool resume)
    : PartitionWriter(
          store, schema, procs,
          resume ? FindWritten(store, InputRecord(facts, selected), selected,
                               schema.dims())
                 : Written{InputRecord(facts, selected), {}, {}}) {}

PartitionWriter::PartitionWriter(const ViewStore& store, const Schema& schema,
                                 int procs, Written written)
    : input_path_(store.dir() / ViewStore::kBuildInputName),
      procs_(procs),
      kept_(std::move(written.partitions)),
      writer_(store, schema, written.entries) {
  SNCUBE_CHECK(procs_ >= 1);
  for (const ViewEntry& entry : written.entries) rows_ += entry.rows;
  // The writer's Clear removed any earlier record.
  DiskModel disk;
  WriteSealedFile(input_path_, std::as_bytes(std::span(written.input)), disk);
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
  std::filesystem::remove(input_path_);
}

void PartitionWriter::Abandon() {
  MutexLock lock(mu_);
  writer_.Abandon();
}

}  // namespace sncube
