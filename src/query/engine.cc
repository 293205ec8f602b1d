#include "query/engine.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/status.h"
#include "obs/trace.h"
#include "relation/aggregate.h"
#include "relation/sort.h"

namespace sncube {

namespace {

// Every dimension a query references: its group-by plus its filters.
ViewId NeededDims(const Query& query) {
  ViewId needed = query.group_by;
  for (const auto& f : query.filters) needed = needed.With(f.dim);
  return needed;
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

  // Filter columns (within the source view's canonical layout).
  struct ColFilter {
    int col;
    Key value;
  };
  std::vector<ColFilter> col_filters;
  for (const auto& f : query.filters) {
    const auto cols = ColumnsOf(source, {f.dim});
    col_filters.push_back({cols[0], f.value});
  }
  const std::vector<int> group_cols =
      ColumnsOf(source, query.group_by.DimList());

  Relation projected(query.group_by.dim_count());
  std::vector<Key> keys(group_cols.size());
  for (std::size_t r = 0; r < vr.rel.size(); ++r) {
    bool keep = true;
    for (const auto& cf : col_filters) {
      if (vr.rel.key(r, cf.col) != cf.value) {
        keep = false;
        break;
      }
    }
    if (!keep) continue;
    for (std::size_t i = 0; i < group_cols.size(); ++i) {
      keys[i] = vr.rel.key(r, group_cols[i]);
    }
    projected.Append(keys, vr.rel.measure(r));
  }
  answer.rel =
      SortAndAggregate(projected, IdentityOrder(projected.width()), query.fn);

  answer.rel = TopKByMeasure(std::move(answer.rel), query.top_k);
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
