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
// A build that dies leaves the files of its finished partitions and no
// MANIFEST, which readers refuse. A resumed build, with the same input and
// flags at any rank count (the bytes do not depend on it), keeps every
// partition whose view files all verify, removes every other view file,
// and skips the kept partitions: each partition is computed from the raw
// input alone, so no later partition needs an earlier one's views. The
// kept files are indexed from their frame headers, so the MANIFEST is the
// one a fresh build writes.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/parallel_cube.h"
#include "seqcube/view_store.h"

namespace sncube {

class PartitionWriter {
 public:
  // Starts epoch 0 of `store` for a `procs`-rank build of `selected`. With
  // `resume`, the partitions an interrupted build finished stay.
  PartitionWriter(const ViewStore& store, const Schema& schema,
                  const std::vector<ViewId>& selected, int procs, bool resume);
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
  // delivered every partition it computed.
  void Commit();
  // Leaves the written files and no MANIFEST, as a crash would, so a
  // resumed build can keep them.
  void Abandon();

 private:
  // The partitions of `selected` whose files in `store` all verify.
  struct Written {
    std::set<int> partitions;
    std::vector<ViewEntry> entries;
  };
  static Written FindWritten(const ViewStore& store,
                             const std::vector<ViewId>& selected, int d);

  PartitionWriter(const ViewStore& store, const Schema& schema, int procs,
                  Written written);

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
