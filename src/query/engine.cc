#include "query/engine.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "common/status.h"
#include "obs/trace.h"
#include "relation/sort.h"

namespace sncube {

namespace {

// Every dimension a query references: its group-by plus its filters.
ViewId NeededDims(const Query& query) {
  ViewId needed = query.group_by;
  for (const auto& f : query.filters) needed = needed.With(f.dim);
  return needed;
}

// An equality filter on a column of the routed view's canonical layout.
struct ColFilter {
  int col;
  Key value;
};

// The rows of `src` that pass every filter, in stored order.
std::vector<std::uint32_t> KeptRows(const Relation& src,
                                    std::span<const ColFilter> filters) {
  std::vector<std::uint32_t> kept(src.size());
  std::size_t n = 0;
  for (std::size_t row = 0; row < src.size(); ++row) {
    bool keep = true;
    for (const ColFilter& f : filters) keep &= src.key(row, f.col) == f.value;
    kept[n] = static_cast<std::uint32_t>(row);
    n += keep;
  }
  kept.resize(n);
  return kept;
}

// Rows `rows` of `src` (every row in stored order when null), projected on
// `cols`. With `combine` set, a row whose projected keys equal the previous
// row's folds its measure into that row, so rows that arrive grouped leave
// one row per group.
Relation GatherGroups(const Relation& src, std::span<const int> cols,
                      const std::vector<std::uint32_t>* rows,
                      std::optional<AggFn> combine) {
  const std::size_t n_rows = rows == nullptr ? src.size() : rows->size();
  const std::size_t w = cols.size();
  Relation out(static_cast<int>(w));
  out.Resize(n_rows);
  std::size_t n = 0;
  for (std::size_t i = 0; i < n_rows; ++i) {
    const std::size_t row = rows == nullptr ? i : (*rows)[i];
    const std::span<const Key> keys = src.RowKeys(row);
    Key* dst = out.mutable_raw_keys() + n * w;
    if (combine.has_value() && n > 0 &&
        std::equal(cols.begin(), cols.end(), dst - w,
                   [&](int col, Key last) { return keys[col] == last; })) {
      out.measure(n - 1) =
          CombineMeasure(*combine, out.measure(n - 1), src.measure(row));
      continue;
    }
    for (std::size_t c = 0; c < w; ++c) dst[c] = keys[cols[c]];
    out.measure(n++) = src.measure(row);
  }
  out.Resize(n);
  return out;
}

}  // namespace

const ViewEntry& RouteQuery(const Query& query,
                            std::span<const ViewEntry> index) {
  const ViewId needed = NeededDims(query);
  if (query.from_view.has_value()) {
    const auto it =
        std::find_if(index.begin(), index.end(), [&](const ViewEntry& e) {
          return e.id == *query.from_view;
        });
    SNCUBE_CHECK_MSG(it != index.end(), "from_view is not materialized");
    SNCUBE_CHECK_MSG(needed.IsSubsetOf(*query.from_view),
                     "from_view does not cover the query");
    return *it;
  }
  const ViewEntry* best = nullptr;
  for (const ViewEntry& entry : index) {
    if (!needed.IsSubsetOf(entry.id)) continue;
    if (best == nullptr || entry.rows < best->rows ||
        (entry.rows == best->rows && entry.id.mask() < best->id.mask())) {
      best = &entry;
    }
  }
  SNCUBE_CHECK_MSG(best != nullptr, "no materialized view covers the query");
  return *best;
}

CubeQueryEngine::CubeQueryEngine(const CubeResult& cube)
    : cube_(cube), index_(IndexOf(cube)) {}

ViewId CubeQueryEngine::Route(const Query& query) const {
  SNCUBE_TRACE_SPAN("query-route");
  return RouteQuery(query, index_).id;
}

QueryAnswer CubeQueryEngine::Execute(const Query& query) const {
  SNCUBE_TRACE_SPAN("query-exec");
  const ViewId source = Route(query);
  const ViewResult& vr = cube_.views.at(source);

  QueryAnswer answer;
  answer.answered_from = source;
  answer.rows_scanned = vr.rel.size();

  ViewId filtered;
  std::vector<ColFilter> col_filters;
  for (const auto& f : query.filters) {
    filtered = filtered.With(f.dim);
    col_filters.push_back({ColumnsOf(source, {f.dim})[0], f.value});
  }
  const std::vector<int> group_dims = query.group_by.DimList();
  const std::vector<int> group_cols = ColumnsOf(source, group_dims);

  // The view's rows are distinct and sorted by its stored order. The kept
  // rows hold one value in every filtered column, so they are distinct and
  // sorted on the order without those columns. They arrive in answer order
  // when the group-by, ascending, leads that reduced order, and they repeat
  // a group only when the view has a dimension neither grouped nor filtered.
  std::vector<int> reduced;
  for (const int dim : vr.order) {
    if (!filtered.Contains(dim)) reduced.push_back(dim);
  }
  const bool in_order =
      group_dims.size() <= reduced.size() &&
      std::equal(group_dims.begin(), group_dims.end(), reduced.begin());
  const std::optional<AggFn> combine =
      source.IsSubsetOf(query.group_by.Union(filtered))
          ? std::nullopt
          : std::optional<AggFn>(query.fn);

  std::vector<std::uint32_t> kept;
  const std::vector<std::uint32_t>* rows = nullptr;
  if (!col_filters.empty()) {
    kept = KeptRows(vr.rel, col_filters);
    rows = &kept;
  }
  Relation groups;
  if (in_order) {
    groups = GatherGroups(vr.rel, group_cols, rows, combine);
  } else if (rows == nullptr) {
    const auto perm = SortedPermutation(vr.rel, group_cols);
    groups = GatherGroups(vr.rel, group_cols, &perm, combine);
  } else {
    const Relation gathered =
        GatherGroups(vr.rel, group_cols, rows, std::nullopt);
    const std::vector<int> cols = IdentityOrder(gathered.width());
    const auto perm = SortedPermutation(gathered, cols);
    groups = GatherGroups(gathered, cols, &perm, combine);
  }

  // The result cache charges an answer by its rows: keep no spare capacity.
  groups.ShrinkToFit();
  answer.rel = TopKByMeasure(std::move(groups), query.top_k);
  return answer;
}

Relation TopKByMeasure(Relation rel, int k) {
  if (k <= 0 || static_cast<std::size_t>(k) >= rel.size()) return rel;
  // ORDER BY measure DESC LIMIT k (ties by key order for determinism).
  std::vector<std::size_t> rows(rel.size());
  std::iota(rows.begin(), rows.end(), 0u);
  const auto kk = static_cast<std::size_t>(k);
  std::partial_sort(rows.begin(), rows.begin() + kk, rows.end(),
                    [&](std::size_t a, std::size_t b) {
                      if (rel.measure(a) != rel.measure(b)) {
                        return rel.measure(a) > rel.measure(b);
                      }
                      return a < b;
                    });
  Relation top(rel.width());
  top.Reserve(kk);
  for (std::size_t i = 0; i < kk; ++i) top.AppendRow(rel, rows[i]);
  return top;
}

}  // namespace sncube
