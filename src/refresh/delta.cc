#include "refresh/delta.h"

#include <utility>

#include "common/status.h"
#include "relation/aggregate.h"
#include "relation/sort.h"
#include "seqcube/seq_cube.h"

namespace sncube {

std::vector<ViewId> AffectedViews(const CubeResult& base,
                                  const Relation& delta) {
  std::vector<ViewId> views;
  views.reserve(base.views.size());
  for (const auto& [id, vr] : base.views) views.push_back(id);
  return AffectedViews(std::move(views), delta);
}

std::vector<ViewId> AffectedViews(std::vector<ViewId> views,
                                  const Relation& delta) {
  if (delta.empty()) views.clear();
  return views;
}

CubeResult ComputeDeltaCube(const Relation& delta, const Schema& schema,
                            const std::vector<ViewId>& affected, AggFn fn,
                            DiskModel* disk, ExecStats* stats,
                            PartialStrategy strategy) {
  if (affected.empty()) return CubeResult{};
  return SequentialCube(delta, schema, affected, fn, disk, stats, strategy);
}

void MergeAggregateByOrder(const Relation& a, const Relation& b,
                           std::span<const int> cols, AggFn fn,
                           Relation& out) {
  SNCUBE_CHECK(a.width() == b.width() && &out != &a && &out != &b);
  out.Reset(a.width());
  out.Reserve(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const int cmp = CompareRows(a, i, cols, b, j, cols);
    if (cmp < 0) {
      out.AppendRow(a, i++);
    } else if (cmp > 0) {
      out.AppendRow(b, j++);
    } else {
      out.Append(a.RowKeys(i), CombineMeasure(fn, a.measure(i), b.measure(j)));
      ++i;
      ++j;
    }
  }
  while (i < a.size()) out.AppendRow(a, i++);
  while (j < b.size()) out.AppendRow(b, j++);
}

void MergeDeltaView(const ViewResult& base, const CubeResult& delta_cube,
                    AggFn fn, ViewResult& out) {
  out.id = base.id;
  out.order = base.order;
  out.selected = base.selected;
  const auto it = delta_cube.views.find(base.id);
  if (it == delta_cube.views.end() || it->second.rel.empty()) {
    out.rel = base.rel;  // untouched view: byte-identical pass-through
    return;
  }
  // The delta build chose its own sort orders (its Pipesort ran on delta
  // statistics); re-sort its rows into the BASE view's order so the merge is
  // a single linear pass and the merged view inherits base order — what
  // keeps refreshed cubes drop-in for slice partitioning and golden
  // comparisons.
  const std::vector<int> cols = ColumnsOf(base.id, base.order);
  const Relation* delta_rows = &it->second.rel;
  Relation resorted;
  if (it->second.order != base.order) {
    resorted = SortRelation(*delta_rows, cols);
    delta_rows = &resorted;
  }
  MergeAggregateByOrder(base.rel, *delta_rows, cols, fn, out.rel);
}

CubeResult MergeDeltaCube(const CubeResult& base, const CubeResult& delta_cube,
                          AggFn fn) {
  CubeResult merged;
  for (const auto& [id, vr] : base.views) {
    MergeDeltaView(vr, delta_cube, fn, merged.views[id]);
  }
  return merged;
}

StoreRefreshResult RefreshViewStore(const ViewStore& store,
                                    const CubeManifest& manifest,
                                    const Relation& delta) {
  StoreRefreshResult result;
  if (delta.empty()) {
    // Nothing to merge: the committed epoch already holds the refreshed
    // cube, so no byte of the directory changes.
    for (const ViewEntry& entry : manifest.views) {
      result.merged_rows += entry.rows;
    }
    result.epoch = manifest.epoch;
    return result;
  }
  std::vector<ViewId> views;
  views.reserve(manifest.views.size());
  for (const ViewEntry& entry : manifest.views) views.push_back(entry.id);
  const std::vector<ViewId> affected = AffectedViews(std::move(views), delta);
  result.views_refreshed = affected.size();
  CubeResult delta_cube = ComputeDeltaCube(delta, manifest.schema, affected);

  ViewStore::Writer writer(store, manifest.schema, manifest.epoch + 1);
  // One base and one merged view serve the whole index, so their storage
  // grows to the largest view once instead of being mapped, faulted in and
  // zeroed again for every view.
  ViewResult base;
  ViewResult merged;
  for (const ViewEntry& entry : manifest.views) {
    store.Load(entry, base);
    MergeDeltaView(base, delta_cube, AggFn::kSum, merged);
    delta_cube.views.erase(entry.id);
    writer.Write(merged);
    result.merged_rows += merged.rel.size();
  }
  writer.Commit();
  store.RemoveEpochsBelow(writer.epoch());
  result.epoch = writer.epoch();
  return result;
}

}  // namespace sncube
