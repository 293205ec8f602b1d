// OLAP query answering over a materialized ROLAP cube — the reason the cube
// is precomputed at all (paper Section 1: fast execution of subsequent OLAP
// queries [10]).
//
// A query groups by a set of dimensions, optionally after equality filters
// (slice/dice). The engine routes it to the SMALLEST materialized view
// containing every referenced dimension (group-by ∪ filters) and aggregates
// from there — the standard lattice-routing argument of Harinarayan et
// al. [12]. With a full cube the exact view always exists; with a partial
// cube the router falls back to the cheapest materialized ancestor.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lattice/view_id.h"
#include "relation/relation.h"
#include "relation/types.h"
#include "seqcube/cube_result.h"

namespace sncube {

struct DimFilter {
  int dim = 0;   // global dimension index
  Key value = 0;  // keep rows where dim == value
};

struct Query {
  ViewId group_by;
  std::vector<DimFilter> filters;
  AggFn fn = AggFn::kSum;
  // When > 0: return only the top_k groups by measure, descending (ties by
  // key ascending) — ORDER BY measure DESC LIMIT k. 0 = all groups, key
  // order.
  int top_k = 0;
  // When set, the engine answers from exactly this materialized view
  // instead of routing (it must cover the query and be materialized — a
  // typed error otherwise). The sharded serving tier uses this to pin every
  // shard's sub-query to one view: shard slices are partitioned per view by
  // leading-dimension hash, so partial answers only compose when all slices
  // scan the SAME view (see serve/shard_set.h).
  std::optional<ViewId> from_view;
};

struct QueryAnswer {
  Relation rel;          // canonical columns of group_by, rows sorted
  ViewId answered_from;  // the materialized view the engine scanned
  std::uint64_t rows_scanned = 0;
};

// ORDER BY measure DESC LIMIT k over an aggregated relation (ties broken by
// row order, i.e. key order, for determinism). k <= 0 or k >= size returns
// the input unchanged (moved through). Shared by the engine and the
// scatter/gather router, which must re-apply top-k after merging per-shard
// partials.
Relation TopKByMeasure(Relation rel, int k);

// The routing rule: among the views of `index` (a cube's view index, see
// IndexOf and seqcube/view_store.h) that contain every dimension `query`
// references — group-by and filters — the one with the fewest rows, ties
// broken by the smallest ViewId (mask) so routing is deterministic. A set
// `query.from_view` is taken as is, after checking that the index lists it
// and that it covers the query. Throws when no view covers the query
// (possible for partial cubes) or the pin fails a check. The engine routes
// its in-memory cube with it, the sharded tier routes an epoch's summed
// slice index with it, and `sncube query` routes a cube directory's
// manifest with it before loading the one view it names. Returns that
// view's entry in `index`.
const ViewEntry& RouteQuery(const Query& query,
                            std::span<const ViewEntry> index);

// Thread safety: CubeQueryEngine is logically const. Route and Execute only
// read the referenced CubeResult and allocate their results locally, so any
// number of threads may call them concurrently on one engine — PROVIDED the
// CubeResult is not mutated after the engine is constructed. That
// immutability contract is what makes the lock-free read path of
// serve/server.h sound; see DESIGN.md ("Immutability of CubeResult").
class CubeQueryEngine {
 public:
  // The engine keeps a reference to the cube; it must outlive the engine
  // and must not be mutated while any engine method is executing.
  explicit CubeQueryEngine(const CubeResult& cube);

  // The materialized view a query would be routed to: RouteQuery over the
  // cube's selected views.
  ViewId Route(const Query& query) const;

  // Answers `query` from the routed view's stored sort order (DESIGN.md
  // "How a query is answered"): one pass gathers the kept rows when the
  // group-by leads that order once the filtered dimensions are dropped, one
  // radix sort orders them otherwise, and rows are aggregated only when the
  // view has a dimension neither grouped nor filtered.
  QueryAnswer Execute(const Query& query) const;

 private:
  const CubeResult& cube_;
  const std::vector<ViewEntry> index_;  // IndexOf(cube_), fixed at construction
};

}  // namespace sncube
