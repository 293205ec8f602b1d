#include "seqcube/cube_result.h"

#include <algorithm>

#include "common/status.h"
#include "relation/aggregate.h"
#include "relation/sort.h"

namespace sncube {

std::uint64_t CubeResult::TotalRows(bool selected_only) const {
  std::uint64_t rows = 0;
  for (const auto& [id, vr] : views) {
    if (selected_only && !vr.selected) continue;
    rows += vr.rel.size();
  }
  return rows;
}

std::uint64_t CubeResult::TotalBytes(bool selected_only) const {
  std::uint64_t bytes = 0;
  for (const auto& [id, vr] : views) {
    if (selected_only && !vr.selected) continue;
    bytes += vr.rel.ByteSize();
  }
  return bytes;
}

std::vector<ViewEntry> IndexOf(const CubeResult& cube) {
  std::vector<ViewEntry> index;
  index.reserve(cube.views.size());
  for (const auto& [id, vr] : cube.views) {
    if (vr.selected) index.push_back({id, vr.rel.size()});
  }
  return index;
}

std::vector<int> ColumnsOf(ViewId view, const std::vector<int>& dims) {
  const auto canonical = view.DimList();
  std::vector<int> cols;
  cols.reserve(dims.size());
  for (int dim : dims) {
    const auto it = std::find(canonical.begin(), canonical.end(), dim);
    SNCUBE_CHECK_MSG(it != canonical.end(), "dimension not in view");
    cols.push_back(static_cast<int>(it - canonical.begin()));
  }
  return cols;
}

Relation BruteForceView(const Relation& raw, ViewId view, AggFn fn) {
  const auto dims = view.DimList();
  // The raw relation's columns are the global dimensions in canonical
  // order, so dims double as column positions.
  std::vector<int> cols(dims.begin(), dims.end());
  return SortAndAggregate(raw, cols, fn);
}

Relation CanonicalizeRows(const Relation& rel) {
  return SortRelation(rel, IdentityOrder(rel.width()));
}

}  // namespace sncube
