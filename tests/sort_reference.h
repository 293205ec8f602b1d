// Test-only reference for the relation sort kernel: a comparator
// std::stable_sort over row ids, independent of the radix kernel in
// src/relation/sort.cc, plus generators of inputs whose sort columns span
// every bit width from 0 to 32.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.h"
#include "relation/relation.h"

namespace sncube::testing {

// Rows begin..end-1 of `rel` stably sorted by `cols` with a plain
// lexicographic comparator.
inline std::vector<std::uint32_t> ReferencePermutation(
    const Relation& rel, std::span<const int> cols, std::size_t begin,
    std::size_t end) {
  std::vector<std::uint32_t> perm(end - begin);
  std::iota(perm.begin(), perm.end(), static_cast<std::uint32_t>(begin));
  std::stable_sort(perm.begin(), perm.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     for (int c : cols) {
                       if (rel.key(a, c) != rel.key(b, c)) {
                         return rel.key(a, c) < rel.key(b, c);
                       }
                     }
                     return false;
                   });
  return perm;
}

inline std::vector<std::uint32_t> ReferencePermutation(
    const Relation& rel, std::span<const int> cols) {
  return ReferencePermutation(rel, cols, 0, rel.size());
}

// `rows` rows whose column c holds values of exactly bits[c] bits (one row
// carries every column's top bit, so the observed width is bits[c]).
// Values are drawn from at most `distinct` choices per column so equal keys
// are common, and measures are row numbers, so any stability error changes
// the output.
inline Relation RandomBitsRelation(std::size_t rows,
                                   const std::vector<int>& bits,
                                   std::uint64_t distinct, Rng& rng) {
  const int width = static_cast<int>(bits.size());
  std::vector<std::vector<Key>> choices(bits.size());
  for (std::size_t c = 0; c < bits.size(); ++c) {
    const std::uint64_t limit = std::uint64_t{1} << bits[c];
    for (std::uint64_t i = 0; i < distinct; ++i) {
      choices[c].push_back(static_cast<Key>(rng.Below(limit)));
    }
    if (bits[c] > 0) choices[c][0] = static_cast<Key>(limit / 2);
  }
  Relation rel(width);
  std::vector<Key> keys(bits.size());
  const std::size_t top_row = rows == 0 ? 0 : rng.Below(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < bits.size(); ++c) {
      keys[c] = choices[c][r == top_row ? 0 : rng.Below(distinct)];
    }
    rel.Append(keys, static_cast<Measure>(r));
  }
  return rel;
}

// A random non-empty subset of 0..width-1 in random order.
inline std::vector<int> RandomColumnOrder(int width, Rng& rng) {
  std::vector<int> cols(static_cast<std::size_t>(width));
  std::iota(cols.begin(), cols.end(), 0);
  for (std::size_t i = cols.size(); i > 1; --i) {
    std::swap(cols[i - 1], cols[rng.Below(i)]);
  }
  cols.resize(1 + rng.Below(cols.size()));
  return cols;
}

}  // namespace sncube::testing
