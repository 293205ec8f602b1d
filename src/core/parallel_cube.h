// Parallel–Shared–Nothing–Data–Cube (Procedure 1): the paper's primary
// contribution.
//
// For each dimension Di (decreasing cardinality): (1) every rank aggregates
// its raw slice to the local Di-root, the roots are globally sorted by
// Adaptive–Sample–Sort (γ = 1%) and re-aggregated; (2) the schedule tree for
// the Di-partition is built — by rank 0 and broadcast (global tree mode,
// the paper's choice) or independently per rank (local tree mode, the
// Figure 7 ablation) — and executed locally with pipelined scans; (3) the
// per-rank view fragments are merged by Merge–Partitions. On return every
// rank holds its shard of every selected view: globally sorted, duplicate
// groups never straddling ranks, balanced within the γ thresholds.
//
// Runs inside Cluster::Run; all ranks must call it with the same schema,
// selected views and options.
#pragma once

#include <functional>
#include <set>
#include <vector>

#include "core/merge_partitions.h"
#include "net/comm.h"
#include "relation/schema.h"
#include "schedule/partial.h"
#include "seqcube/cube_result.h"
#include "seqcube/pipeline.h"

namespace sncube {

enum class TreeMode {
  kGlobal,  // rank 0 builds Ti and broadcasts it (Section 2.3's winner)
  kLocal,   // every rank builds its own Ti (merge pays for re-sorts)
};

enum class EstimatorKind {
  kAnalytic,  // Cardenas formula from schema cardinalities + row count
  kFm,        // Flajolet–Martin sketches over the builder's local Di-root
};

// Receives rank `rank`'s merged shard of Di-partition `partition` once
// Merge–Partitions has finished it; the shard is the sink's to keep or
// drop. Called on every rank's thread.
using PartitionSink =
    std::function<void(int partition, int rank, CubeResult part)>;

struct ParallelCubeOptions {
  AggFn fn = AggFn::kSum;
  // γ for the data-partitioning sample sort of Step 1b (paper: 1%).
  double gamma_partition = 0.01;
  // γ for Merge–Partitions Case 2/3 and its internal re-sorts (paper: 3%).
  double gamma_merge = 0.03;
  TreeMode tree_mode = TreeMode::kGlobal;
  EstimatorKind estimator = EstimatorKind::kAnalytic;
  PartialStrategy partial_strategy = PartialStrategy::kPrunedPipesort;
  int sample_capacity_factor = 100;
  bool force_case3 = false;  // ablation: disable the Case-2 overlap path
  // When set, each partition's merged shard goes to the sink instead of the
  // returned cube (core/partition_writer.h writes them into a cube
  // directory). Host output: it adds no simulated charge.
  PartitionSink partition_sink;
  // Di-partitions to skip, unread: an earlier run's sink has them. Each
  // partition is computed from the raw input alone, so no later partition
  // needs a skipped one.
  std::set<int> skip_partitions;
};

struct ParallelCubeStats {
  ExecStats exec;        // local cube-construction work
  MergeStats merge;      // Procedure 3 case counts
  int partitions = 0;    // non-empty Di-partitions of the selected views
  int partitions_skipped = 0;  // of those, skipped (skip_partitions)
  int sample_sort_shifts = 0;  // Step 1b global shifts triggered
};

// Builds the selected views (use AllViews(d) for the full cube) of the data
// whose local slice is `local_raw`. Returns this rank's shard of every
// selected view, canonical column layout, rows sorted by each view's order;
// with a partition sink, hands the shards to it and returns an empty cube.
// Every rank must pass the same sink (or none) and skip set.
CubeResult BuildParallelCube(Comm& comm, const Relation& local_raw,
                             const Schema& schema,
                             const std::vector<ViewId>& selected,
                             const ParallelCubeOptions& opts = {},
                             ParallelCubeStats* stats = nullptr);

}  // namespace sncube
