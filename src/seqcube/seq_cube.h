// Sequential cube construction — the paper's baselines.
//
// SequentialPipesortCube is the classic top-down method ([20], the paper's
// speedup reference [3]): one Pipesort schedule tree over the whole lattice,
// executed with pipelined scans. SequentialCube is the per-Di-partition
// variant (exactly what each processor of the parallel algorithm runs
// locally, and the sequential baseline for partial cubes [4]); it accepts an
// arbitrary selected-view subset.
#pragma once

#include <vector>

#include "io/disk.h"
#include "lattice/estimate.h"
#include "relation/schema.h"
#include "schedule/partial.h"
#include "seqcube/cube_result.h"
#include "seqcube/pipeline.h"

namespace sncube {

// Materializes the root view of a (sub-)cube from raw data: sorts `raw` (its
// columns are the full schema, canonically laid out) by `root_order` and
// collapses duplicate root keys. Output: canonical columns, rows sorted by
// root_order — exactly what ExecuteScheduleTree expects. Charges disk/stats
// like the pipeline executor.
Relation ComputeRootData(const Relation& raw, ViewId root,
                         const std::vector<int>& root_order, AggFn fn,
                         DiskModel* disk = nullptr, ExecStats* stats = nullptr);

// Full cube via one lattice-wide Pipesort tree.
CubeResult SequentialPipesortCube(const Relation& raw, const Schema& schema,
                                  AggFn fn = AggFn::kSum,
                                  DiskModel* disk = nullptr,
                                  ExecStats* stats = nullptr);

// Full or partial cube via per-partition schedule trees: `selected` may be
// any subset of views (use AllViews(d) for the full cube). Auxiliary
// intermediates appear in the result flagged selected = false. With a
// `sink`, each partition's tree hands its views to it under
// ExecuteScheduleTree's release rule, partition by partition, and the
// result is empty.
CubeResult SequentialCube(const Relation& raw, const Schema& schema,
                          const std::vector<ViewId>& selected,
                          AggFn fn = AggFn::kSum, DiskModel* disk = nullptr,
                          ExecStats* stats = nullptr,
                          PartialStrategy strategy =
                              PartialStrategy::kPrunedPipesort,
                          const ViewSink& sink = {});

}  // namespace sncube
