// In-memory sorting of relations.
//
// SortedPermutation computes the row order without moving data;
// ApplyPermutation gathers rows into a fresh relation. SortRelation is the
// composition. Sort orders are given as column-position lists so a view can
// be sorted in any attribute permutation (Pipesort pipelines depend on
// re-sorting a view in the order its parent dictates).
//
// Every in-memory relation sort runs the one kernel RadixSortRows, a stable
// LSD radix sort over packed row keys (exec::ParallelSortedPermutation runs
// it per chunk). Stability makes its permutation exactly the one
// std::stable_sort produces under the lexicographic `cols` order.
#pragma once

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "relation/relation.h"

namespace sncube {

// Writes rows [begin, end) of `rel` into `out` (end - begin entries) in
// ascending lexicographic order of columns `cols`; rows with equal keys keep
// ascending row order.
//
// Each sort column gets the bit width of the OR of its values over the
// range, and the columns are packed first-most-significant into one uint64
// with the row's offset in the low bits. A key too wide to share a word
// with the offset is split at column boundaries into several words, sorted
// least significant word first. Row order is carried as uint32 row ids, so
// `rel` may hold at most 2^32 rows (checked). See DESIGN.md §11.
void RadixSortRows(const Relation& rel, std::span<const int> cols,
                   std::size_t begin, std::size_t end,
                   std::span<std::uint32_t> out);

// Row indices of `rel` in ascending lexicographic order of columns `cols`.
// The sort is stable so equal keys keep their input order (determinism).
inline std::vector<std::uint32_t> SortedPermutation(
    const Relation& rel, std::span<const int> cols) {
  std::vector<std::uint32_t> perm(rel.size());
  RadixSortRows(rel, cols, 0, rel.size(), perm);
  return perm;
}

// Gathers rows of `rel` in permutation order into a new relation.
inline Relation ApplyPermutation(const Relation& rel,
                                 std::span<const std::uint32_t> perm) {
  Relation out(rel.width());
  out.Resize(perm.size());
  out.GatherRows(rel, perm, 0);
  return out;
}

// Sorts `rel` by the given column order (all remaining columns are NOT tie
// broken; pass every column when total order matters).
inline Relation SortRelation(const Relation& rel, std::span<const int> cols) {
  return ApplyPermutation(rel, SortedPermutation(rel, cols));
}

// Convenience: identity column order 0..width-1.
inline std::vector<int> IdentityOrder(int width) {
  std::vector<int> cols(static_cast<std::size_t>(width));
  std::iota(cols.begin(), cols.end(), 0);
  return cols;
}

// Reorders columns: output column j = input column perm[j]. Rows keep their
// order and measures. Used to bring a relation produced in some sort order
// back to the canonical column layout.
inline Relation PermuteColumns(const Relation& rel,
                               std::span<const int> perm) {
  Relation out(static_cast<int>(perm.size()));
  out.Reserve(rel.size());
  std::vector<Key> keys(perm.size());
  for (std::size_t row = 0; row < rel.size(); ++row) {
    for (std::size_t j = 0; j < perm.size(); ++j) {
      keys[j] = rel.key(row, perm[j]);
    }
    out.Append(keys, rel.measure(row));
  }
  return out;
}

// True when rows are in ascending lexicographic `cols` order.
inline bool IsSorted(const Relation& rel, std::span<const int> cols) {
  for (std::size_t i = 1; i < rel.size(); ++i) {
    if (CompareRows(rel, i - 1, cols, rel, i, cols) > 0) return false;
  }
  return true;
}

}  // namespace sncube
