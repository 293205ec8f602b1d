// Projection + aggregation: the GROUP-BY primitive the cube is made of.
//
// AggregateSortedPrefix consumes a relation sorted in some column order and
// emits, for a prefix of that order, one row per distinct prefix with
// combined measures — a single linear scan, which is exactly the "scan" edge
// of a schedule tree. SortAndAggregate adds the re-sort, which is the "sort"
// edge.
#pragma once

#include <span>
#include <vector>

#include "relation/relation.h"
#include "relation/sort.h"
#include "relation/types.h"

namespace sncube {

// `sorted` must be sorted by `cols` (prefix of its sort order suffices).
// Produces a relation of width cols.size(): the projected group keys in the
// order given by `cols`, one row per group, measures combined with `fn`.
Relation AggregateSortedPrefix(const Relation& sorted,
                               std::span<const int> cols, AggFn fn);

// Sorts `rel` by `cols` and aggregates; the generic GROUP-BY cols.
Relation SortAndAggregate(const Relation& rel, std::span<const int> cols,
                          AggFn fn);

// Merges two relations of identical width that are BOTH sorted
// lexicographically by column positions `cols`, combining rows with equal
// keys with `fn`, into `out` (neither input; its storage is reused). The
// output stays sorted by `cols`. It merges a delta view into its base view
// in the view's own order (refresh/delta.h) and scatter partials in
// canonical order 0..w-1 (serve/router.h).
void MergeSortedAggregate(const Relation& a, const Relation& b,
                          std::span<const int> cols, AggFn fn, Relation& out);

// In-place duplicate collapse of a fully sorted relation (all columns).
Relation CollapseSorted(const Relation& sorted, AggFn fn);

// Counts distinct `cols` prefixes of a sorted relation without materializing.
std::size_t CountGroups(const Relation& sorted, std::span<const int> cols);

}  // namespace sncube
