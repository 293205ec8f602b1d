// Schedule-tree execution with pipelined aggregation — the second phase of
// every top-down cube method (paper Section 2.1/2.3).
//
// A pipeline is a maximal chain of scan edges. Its head is materialized by
// one (external-memory) sort of the parent's data; one linear scan of the
// sorted rows then emits EVERY view on the chain simultaneously, because
// each chain view's dimensions are a prefix of the head's sort order and its
// groups close exactly when that prefix changes. This is what makes
// Pipesort-style trees cheap: d views for one sort + one scan.
#pragma once

#include <cstdint>
#include <functional>

#include "io/disk.h"
#include "relation/types.h"
#include "schedule/schedule_tree.h"
#include "seqcube/cube_result.h"

namespace sncube {

struct ExecStats {
  std::uint64_t records_scanned = 0;  // rows read by pipeline scans
  std::uint64_t rows_emitted = 0;     // rows written across all views
  std::uint64_t sorts = 0;            // pipeline-head sorts performed
  std::uint64_t scans = 0;            // pipeline scan passes
  // Σ n·log2(max(n,2)) over all sorts — multiply by the CPU sort constant
  // to get simulated seconds.
  double sort_cost_units = 0;

  ExecStats& operator+=(const ExecStats& o) {
    records_scanned += o.records_scanned;
    rows_emitted += o.rows_emitted;
    sorts += o.sorts;
    scans += o.scans;
    sort_cost_units += o.sort_cost_units;
    return *this;
  }

  ExecStats& operator-=(const ExecStats& o) {
    records_scanned -= o.records_scanned;
    rows_emitted -= o.rows_emitted;
    sorts -= o.sorts;
    scans -= o.scans;
    sort_cost_units -= o.sort_cost_units;
    return *this;
  }
};

// Called once per pipeline — the root scan chain first, then each sort-edge
// pipeline in tree order — with the stats increment that pipeline alone
// produced, while its trace span is still open. A caller that converts
// increments to simulated seconds therefore lands each pipeline's cost
// inside that pipeline's span instead of in one batch after the whole tree;
// the increments sum exactly to the final *stats total, so batch and
// per-pipeline charging cost the same simulated time.
using PipelineChargeHook = std::function<void(const ExecStats& delta)>;

// Receives each view of the tree, auxiliaries included, once no later
// pipeline reads it; the view is the sink's to keep or drop.
using ViewSink = std::function<void(ViewResult view)>;

// Materializes every view of `tree` from `root_data`, which must be the root
// view's relation: canonical column layout, rows sorted by tree.root().order
// and already aggregated (one row per distinct root key).
//
// When `disk` is non-null, pipeline sorts run through the external-memory
// sorter against it and view reads/writes are charged to it; otherwise
// everything stays in memory uncharged. Stats accumulate into *stats when
// given.
//
// Without a sink the result contains every tree node (auxiliaries flagged).
// With one the result is empty: every node goes to the sink exactly once, as
// soon as no sort-edge child is left to read it (a scan child is emitted by
// the same pass as its parent, so it never holds a view back):
//   - a view with no sort child right after the pipeline that emits it (the
//     root after the root pipeline), in chain order;
//   - a sort parent right after its last sort child has been sorted from
//     it, before that child's chain scan, which reads the sorted copy.
// Live memory is then the tree's frontier, not the cube. Stats, disk charges
// and on_pipeline calls are the same with and without a sink.
CubeResult ExecuteScheduleTree(const ScheduleTree& tree, Relation root_data,
                               AggFn fn, DiskModel* disk = nullptr,
                               ExecStats* stats = nullptr,
                               const PipelineChargeHook& on_pipeline = {},
                               const ViewSink& sink = {});

}  // namespace sncube
