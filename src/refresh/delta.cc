#include "refresh/delta.h"

#include <array>
#include <string>
#include <utility>

#include "common/status.h"
#include "relation/aggregate.h"
#include "relation/sort.h"
#include "seqcube/seq_cube.h"
#include "seqcube/view_frame.h"

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

ByteBuffer MergeDeltaFrame(std::span<const std::byte> base,
                           const CubeResult& delta_cube, std::uint64_t epoch) {
  FrameCursor cursor(base);
  const FrameHeader& in = cursor.header();
  const std::vector<int> cols = ColumnsOf(in.id, in.order);
  const int width = in.id.dim_count();
  // The delta view in the base order, as MergeDeltaView re-sorts it.
  Relation delta(width);
  const auto it = delta_cube.views.find(in.id);
  const Relation* rows = &delta;
  if (it != delta_cube.views.end() && !it->second.rel.empty()) {
    rows = &it->second.rel;
    SNCUBE_CHECK(rows->width() == width);
    if (it->second.order != in.order) {
      delta = SortRelation(*rows, cols);
      rows = &delta;
    }
  }

  // The merged widths: the base's, widened to the delta's observed ones.
  FrameHeader out = in;
  out.epoch = epoch;
  out.rows = in.rows + rows->size();
  FitWidths(*rows, cols, out.widths);
  const bool widen = out.widths != in.widths;
  FrameEncoder encoder(out);
  const KeyLayout& from = cursor.layout();
  const KeyLayout& to = encoder.layout();

  // The base keys' OR checks the recorded widths; a widened key is
  // repacked through `unpacked`, whose zero-width columns stay zero.
  PackedKey seen{};
  const std::size_t seen_words = from.narrow() ? 1 : from.words();
  PackedKey widened{};
  std::array<Key, ViewId::kMaxDims> unpacked{};
  // The next delta row, packed in `d`.
  const std::size_t n = rows->size();
  std::size_t j = 0;
  PackedKey d{};
  if (n > 0) to.Pack(rows->RowKeys(0).data(), d);
  const auto next_delta = [&] {
    if (++j < n) to.Pack(rows->RowKeys(j).data(), d);
  };
  cursor.ForEach([&](const PackedKey& key, Measure m) {
    for (std::size_t k = 0; k < seen_words; ++k) seen[k] |= key[k];
    const PackedKey* b = &key;
    if (widen) {
      from.Unpack(key, unpacked.data());
      to.Pack(unpacked.data(), widened);
      b = &widened;
    }
    int cmp = 1;
    while (j < n && (cmp = to.Compare(d, *b)) < 0) {
      encoder.Put(d, rows->measure(j));
      next_delta();
    }
    if (j < n && cmp == 0) {
      m = CombineMeasure(AggFn::kSum, m, rows->measure(j));
      next_delta();
    }
    encoder.Put(*b, m);
  });
  for (; j < n; next_delta()) encoder.Put(d, rows->measure(j));
  if (!from.Tight(seen)) {
    throw SncubeCorruptionError(
        "view frame: a recorded width is wider than its column");
  }
  return encoder.Finish();
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
  for (const ViewEntry& entry : manifest.views) {
    const ByteBuffer base = store.ReadFrame(entry);
    ByteBuffer merged;
    try {
      merged = MergeDeltaFrame(base, delta_cube, writer.epoch());
    } catch (const SncubeCorruptionError& e) {
      throw SncubeCorruptionError(ViewStore::FileName(entry) + ": " +
                                  e.what());
    }
    delta_cube.views.erase(entry.id);
    result.merged_rows += writer.WriteFrame(merged).rows;
  }
  writer.Commit();
  store.RemoveEpochsBelow(writer.epoch());
  result.epoch = writer.epoch();
  return result;
}

}  // namespace sncube
