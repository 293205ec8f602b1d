// Delta ingestion for online cube refresh (DESIGN.md §14).
//
// A DELTA is a relation of newly arrived facts in the schema's canonical
// layout — insert-only, the OLAP-warehouse norm. Because every supported
// aggregate distributes over a disjoint union of fact sets
// (sum/min/max: agg(base ∪ delta) = combine(agg(base), agg(delta))), a
// refresh never re-scans the base facts: it cubes the (small) delta with the
// very same Section 3 machinery the initial build used — partial schedule
// tree over exactly the affected views, Pipesort sort-and-scan per edge —
// and then merges the delta cube into the base cube view by view with one
// linear merge pass per view.
//
// The merge is ORDER-PRESERVING: each merged view keeps the base view's sort
// order (delta rows are re-sorted to it first), so a refreshed cube is
// drop-in for every consumer that relies on view order — slice partitioning
// (serve/shard_set.h keeps slices sorted because the source view is),
// scatter merging (MergeSortedAggregate), and golden byte comparisons.
#pragma once

#include <span>
#include <vector>

#include "io/disk.h"
#include "relation/schema.h"
#include "schedule/partial.h"
#include "seqcube/cube_result.h"
#include "seqcube/pipeline.h"
#include "seqcube/view_store.h"

namespace sncube {

// The views of `base` an insert-only `delta` invalidates. Distributive
// aggregates make every materialized view (auxiliaries included) sensitive
// to any new fact, so this is all of base's views for a non-empty delta and
// none for an empty one. Centralized anyway: finer pruning (e.g. per-view
// delta-key coverage) slots in here without touching callers.
std::vector<ViewId> AffectedViews(const CubeResult& base,
                                  const Relation& delta);
// The same rule over a list of view ids (a cube directory's index).
std::vector<ViewId> AffectedViews(std::vector<ViewId> views,
                                  const Relation& delta);

// Cubes the delta over exactly `affected`, reusing the Section 3 partial
// build (BuildPartialTree + pipelined execution). Costs land on `disk` /
// `stats` like any build.
CubeResult ComputeDeltaCube(const Relation& delta, const Schema& schema,
                            const std::vector<ViewId>& affected,
                            AggFn fn = AggFn::kSum, DiskModel* disk = nullptr,
                            ExecStats* stats = nullptr,
                            PartialStrategy strategy =
                                PartialStrategy::kPrunedPipesort);

// Merges two same-width relations that are BOTH sorted lexicographically by
// column positions `cols`, combining equal-key rows with `fn`, into `out`
// (neither input; its storage is reused). The general-order sibling of
// MergeSortedAggregate (relation/aggregate.h), which only handles the
// all-columns-ascending case — view rows are sorted by the view's own
// order, not the canonical one, so the refresh merge needs the permuted
// comparator. Output stays sorted by `cols`.
void MergeAggregateByOrder(const Relation& a, const Relation& b,
                           std::span<const int> cols, AggFn fn,
                           Relation& out);

// One refreshed view into `out` (not `base`; its storage is reused): `base`
// merged with its counterpart in `delta_cube` (a view the delta cube lacks
// passes through unchanged — an empty delta view contributes nothing). The
// output keeps the BASE view's sort order and selected flag; delta rows are
// re-sorted to it before the merge.
void MergeDeltaView(const ViewResult& base, const CubeResult& delta_cube,
                    AggFn fn, ViewResult& out);

// One refreshed view in the stored encoding: the frame `base`
// (seqcube/view_frame.h) merged with its counterpart in `delta_cube` into a
// frame of epoch `epoch`. The bytes are EncodeViewFrame(MergeDeltaView(
// DecodeViewFrame(base).view, delta_cube, AggFn::kSum), epoch), made
// without unpacking a row: a FrameCursor walks the base, the delta view
// (re-sorted to the base order when its own differs) is packed at the
// merged widths, a two-way merge on packed keys sums rows with equal keys,
// and a FrameEncoder writes the result. A merged column's width is the
// larger of the base's recorded width and the bit width of the OR of the
// delta's column; when the delta widens one, each base key is repacked at
// the new widths inside the same loop. Throws SncubeCorruptionError where
// DecodeViewFrame would, and on a base whose recorded widths are not its
// columns' bit widths (no writer makes one).
ByteBuffer MergeDeltaFrame(std::span<const std::byte> base,
                           const CubeResult& delta_cube, std::uint64_t epoch);

// The refreshed cube: MergeDeltaView over every view of `base`. `base` is
// untouched — the result is a fresh CubeResult, immutable once handed to the
// serving tier like any other (epoch snapshots depend on this).
CubeResult MergeDeltaCube(const CubeResult& base, const CubeResult& delta_cube,
                          AggFn fn = AggFn::kSum);

struct StoreRefreshResult {
  std::size_t views_refreshed = 0;  // AffectedViews of the index
  std::uint64_t merged_rows = 0;    // rows of the refreshed cube
  std::uint64_t epoch = 0;          // the epoch it committed
};

// Refreshes the cube directory of `store`, whose newest committed index is
// `manifest`, one view at a time: cubes `delta` once over the index's
// views, then writes epoch manifest.epoch + 1 beside the committed one
// through one ViewStore::Writer (per index entry: read the base frame,
// merge the delta view into it (MergeDeltaFrame), write the merged frame),
// commits it and removes every older epoch's view files. Peak memory is the
// delta cube plus one base and one merged frame; no view is decoded. The
// view files hold the frames of MergeDeltaCube(LoadCube(),
// ComputeDeltaCube(...)) at the new epoch. Old or new: until the commit
// record lands the directory answers as before, and a failure before it (a
// damaged input view, a failed write) drops the writer, which removes what
// it wrote. An empty delta writes nothing: the result names the committed
// epoch and its row total.
StoreRefreshResult RefreshViewStore(const ViewStore& store,
                                    const CubeManifest& manifest,
                                    const Relation& delta);

}  // namespace sncube
