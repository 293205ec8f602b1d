// The cube directory as a parallel build's output and its checkpoint.
//
// In the paper each processor writes every view to its local disk as it
// computes it, so a restart of Procedure 1 needs nothing but those files.
// Here BuildParallelCube hands each Di-partition's merged rank shards to a
// partition sink as soon as Merge–Partitions finishes the partition, and
// this writer is that sink for a cube directory: it holds partition i's
// shards until the last rank delivers one, writes each selected view of the
// partition into its epoch-0 file through ViewStore::Writer (the shards in
// rank order are the view, since each rank holds a globally sorted range),
// and frees them. The caller commits once Cluster::Run returns, so the
// MANIFEST appears only with the whole cube.
//
// Before the first partition, the writer names the build's input in a
// sealed file beside the views (ViewStore::kBuildInputName): a checksum of
// the facts, in the build's column order, and the selected views. The
// commit removes it, so a finished directory holds the same files at any
// rank count.
//
// A build that dies leaves that record, the files of its finished
// partitions and no MANIFEST, which readers refuse. A resumed build, at any
// rank count (the bytes do not depend on it), first checks the record: it
// refuses, changing nothing, when the record is damaged, names another
// input or view selection, or is missing while view files it would keep
// verify. Then it keeps every partition whose view files all verify,
// removes every other view file, and skips the kept partitions: each
// partition is computed from the raw input alone, so no later partition
// needs an earlier one's views. The kept files are indexed from their
// frame headers, so the MANIFEST is the one a fresh build writes.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/parallel_cube.h"
#include "seqcube/view_store.h"

namespace sncube {

class PartitionWriter {
 public:
  // Starts epoch 0 of `store` for a `procs`-rank build of `selected` over
  // `facts` (the whole input, in the schema's column order) and writes the
  // input record. With `resume`, the partitions an interrupted build of the
  // same facts and views finished stay; throws SncubeError, leaving the
  // directory as it is, when the record does not tie them to this build.
  PartitionWriter(const ViewStore& store, const Schema& schema,
                  const Relation& facts, const std::vector<ViewId>& selected,
                  int procs, bool resume);
  // The sink Attach installs holds this object's address.
  PartitionWriter(const PartitionWriter&) = delete;
  PartitionWriter& operator=(const PartitionWriter&) = delete;

  // Makes this writer the sink of a build that skips the kept partitions.
  void Attach(ParallelCubeOptions& opts);

  // Rank `rank`'s merged shard of `partition`; the last rank's delivery
  // writes the partition's selected views. The shards must hold the same
  // selected views in the same sort orders.
  void Deliver(int partition, int rank, CubeResult part);

  // The rows of every view written or kept.
  std::uint64_t rows() const;

  // Appends the `prepare` and `commit` records, once every rank has
  // delivered every partition it computed, then removes the input record.
  void Commit();
  // Leaves the written files, the input record and no MANIFEST, as a crash
  // would, so a resumed build can keep them.
  void Abandon();

 private:
  // The build's input record, and the partitions of its views whose files
  // in the store all verify (none for a fresh build).
  struct Written {
    std::string input;
    std::set<int> partitions;
    std::vector<ViewEntry> entries;
  };
  // Checks the store's input record against `input` (throwing as the
  // public constructor documents), then finds the written partitions.
  static Written FindWritten(const ViewStore& store, std::string input,
                             const std::vector<ViewId>& selected, int d);

  PartitionWriter(const ViewStore& store, const Schema& schema, int procs,
                  Written written);

  const std::filesystem::path input_path_;
  const int procs_;
  const std::set<int> kept_;
  mutable Mutex mu_;
  ViewStore::Writer writer_ SNCUBE_GUARDED_BY(mu_);
  // The partitions some rank has not delivered yet.
  struct Pending {
    std::vector<CubeResult> parts;  // in rank order
    int arrived = 0;
  };
  std::map<int, Pending> pending_ SNCUBE_GUARDED_BY(mu_);
  std::uint64_t rows_ SNCUBE_GUARDED_BY(mu_) = 0;
};

}  // namespace sncube
