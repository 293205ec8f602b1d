#include "exec/parallel_algo.h"

#include <algorithm>
#include <utility>

#include "relation/merge.h"
#include "relation/sort.h"

namespace sncube::exec {
namespace {

// Below this row count the fork-join overhead beats the win; the serial
// implementations are used verbatim. Purely a performance threshold — the
// parallel results are identical either way.
constexpr std::size_t kMinParallelRows = 4096;

bool UseSerial(TaskPool* pool, std::size_t rows) {
  return pool == nullptr || pool->threads() <= 1 || rows < kMinParallelRows ||
         TaskPool::OnWorkerThread();
}

// Comparator over permutation entries for the merge rounds: lexicographic
// in `cols`, no tie-break (stability comes from left-first merges).
struct PermLess {
  const Key* keys;
  std::size_t width;
  std::span<const int> cols;

  bool operator()(std::uint32_t a, std::uint32_t b) const {
    const Key* ra = keys + static_cast<std::size_t>(a) * width;
    const Key* rb = keys + static_cast<std::size_t>(b) * width;
    for (int c : cols) {
      if (ra[c] != rb[c]) return ra[c] < rb[c];
    }
    return false;
  }
};

// Schedules the stable merge of src[a0,a1) and src[a1,b1) into dst[a0,b1)
// as up to `segments` key-aligned tasks on `group`. Each cut key k sends
// ALL entries with keys <= k (from both runs, A's equal run before B's) to
// the left of the cut, so concatenating the segment merges reproduces the
// global stable merge exactly.
void MergePairTasks(const std::vector<std::uint32_t>& src, std::size_t a0,
                    std::size_t a1, std::size_t b1, const PermLess& less,
                    std::vector<std::uint32_t>& dst, std::size_t segments,
                    TaskGroup& group) {
  const std::size_t len_a = a1 - a0;
  if (segments <= 1 || (b1 - a0) < kMinParallelRows || len_a == 0 ||
      b1 == a1) {
    group.Run([&src, a0, a1, b1, less, &dst] {
      std::merge(src.begin() + static_cast<std::ptrdiff_t>(a0),
                 src.begin() + static_cast<std::ptrdiff_t>(a1),
                 src.begin() + static_cast<std::ptrdiff_t>(a1),
                 src.begin() + static_cast<std::ptrdiff_t>(b1),
                 dst.begin() + static_cast<std::ptrdiff_t>(a0), less);
    });
    return;
  }
  std::vector<std::size_t> acut{a0};
  std::vector<std::size_t> bcut{a1};
  for (std::size_t s = 1; s < segments; ++s) {
    std::size_t ai = a0 + len_a * s / segments;
    ai = std::max(ai, acut.back());
    if (ai >= a1) {
      acut.push_back(a1);
      bcut.push_back(bcut.back());
      continue;
    }
    const std::uint32_t pivot = src[ai];
    const auto a_begin = src.begin() + static_cast<std::ptrdiff_t>(ai);
    const auto a_end = src.begin() + static_cast<std::ptrdiff_t>(a1);
    const std::size_t ai2 = static_cast<std::size_t>(
        std::upper_bound(a_begin, a_end, pivot, less) - src.begin());
    const auto b_begin = src.begin() + static_cast<std::ptrdiff_t>(bcut.back());
    const auto b_end = src.begin() + static_cast<std::ptrdiff_t>(b1);
    const std::size_t bi = static_cast<std::size_t>(
        std::upper_bound(b_begin, b_end, pivot, less) - src.begin());
    acut.push_back(ai2);
    bcut.push_back(bi);
  }
  acut.push_back(a1);
  bcut.push_back(b1);
  for (std::size_t s = 0; s + 1 < acut.size(); ++s) {
    if (acut[s] == acut[s + 1] && bcut[s] == bcut[s + 1]) continue;
    const std::size_t out = a0 + (acut[s] - a0) + (bcut[s] - a1);
    group.Run([&src, &dst, less, out, ab = acut[s], ae = acut[s + 1],
               bb = bcut[s], be = bcut[s + 1]] {
      std::merge(src.begin() + static_cast<std::ptrdiff_t>(ab),
                 src.begin() + static_cast<std::ptrdiff_t>(ae),
                 src.begin() + static_cast<std::ptrdiff_t>(bb),
                 src.begin() + static_cast<std::ptrdiff_t>(be),
                 dst.begin() + static_cast<std::ptrdiff_t>(out), less);
    });
  }
}

// First row in rel[lo,hi) whose key (restricted to `cols`) exceeds
// pivot_rel's pivot_row.
std::size_t UpperBoundRows(const Relation& rel, std::size_t lo, std::size_t hi,
                           std::span<const int> cols, const Relation& pivot_rel,
                           std::size_t pivot_row) {
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (CompareRows(rel, mid, cols, pivot_rel, pivot_row, cols) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Serial stable two-run merge (ties take `a` first), appended to `out`.
void MergeRowsInto(const Relation& a, std::size_t ab, std::size_t ae,
                   const Relation& b, std::size_t bb, std::size_t be,
                   std::span<const int> cols, Relation& out) {
  out.Reserve(out.size() + (ae - ab) + (be - bb));
  while (ab < ae && bb < be) {
    if (CompareRows(a, ab, cols, b, bb, cols) <= 0) {
      out.AppendRow(a, ab++);
    } else {
      out.AppendRow(b, bb++);
    }
  }
  while (ab < ae) out.AppendRow(a, ab++);
  while (bb < be) out.AppendRow(b, bb++);
}

Relation MergeTwoRuns(const Relation& a, const Relation& b,
                      std::span<const int> cols, int width, TaskPool* pool) {
  Relation out(width);
  const std::size_t total = a.size() + b.size();
  const std::size_t segments = static_cast<std::size_t>(pool->threads());
  if (total < kMinParallelRows || segments <= 1 || a.empty() || b.empty()) {
    MergeRowsInto(a, 0, a.size(), b, 0, b.size(), cols, out);
    return out;
  }
  // Key-aligned cuts, same scheme as the permutation merge above.
  std::vector<std::size_t> acut{0};
  std::vector<std::size_t> bcut{0};
  for (std::size_t s = 1; s < segments; ++s) {
    std::size_t ai = a.size() * s / segments;
    ai = std::max(ai, acut.back());
    if (ai >= a.size()) {
      acut.push_back(a.size());
      bcut.push_back(bcut.back());
      continue;
    }
    acut.push_back(UpperBoundRows(a, ai, a.size(), cols, a, ai));
    bcut.push_back(UpperBoundRows(b, bcut.back(), b.size(), cols, a, ai));
  }
  acut.push_back(a.size());
  bcut.push_back(b.size());

  std::vector<Relation> pieces;
  pieces.reserve(acut.size() - 1);
  for (std::size_t s = 0; s + 1 < acut.size(); ++s) pieces.emplace_back(width);
  {
    TaskGroup group(pool);
    for (std::size_t s = 0; s + 1 < acut.size(); ++s) {
      if (acut[s] == acut[s + 1] && bcut[s] == bcut[s + 1]) continue;
      group.Run([&a, &b, &pieces, &acut, &bcut, cols, s] {
        MergeRowsInto(a, acut[s], acut[s + 1], b, bcut[s], bcut[s + 1], cols,
                      pieces[s]);
      });
    }
    group.Wait();
  }
  out.Reserve(total);
  for (auto& piece : pieces) out.Concat(std::move(piece));
  return out;
}

}  // namespace

std::vector<std::uint32_t> ParallelSortedPermutation(const Relation& rel,
                                                     std::span<const int> cols,
                                                     TaskPool* pool) {
  const std::size_t n = rel.size();
  if (UseSerial(pool, n)) return SortedPermutation(rel, cols);

  const std::size_t contexts = static_cast<std::size_t>(pool->threads());
  std::vector<std::uint32_t> perm(n);
  const PermLess less{rel.raw_keys(), static_cast<std::size_t>(rel.width()),
                      cols};

  // Chunk sorts with the serial kernel: boundaries depend only on
  // (n, threads), and chunk c sorts exactly rows [b, e).
  std::vector<std::size_t> runs;
  runs.reserve(contexts + 1);
  for (std::size_t c = 0; c <= contexts; ++c) runs.push_back(n * c / contexts);
  {
    TaskGroup group(pool);
    for (std::size_t c = 0; c + 1 < runs.size(); ++c) {
      const std::size_t b = runs[c];
      const std::size_t e = runs[c + 1];
      if (b == e) continue;
      group.Run([&rel, cols, &perm, b, e] {
        RadixSortRows(rel, cols, b, e, {perm.data() + b, e - b});
      });
    }
    group.Wait();
  }

  // Pairwise merge rounds over adjacent runs until one remains; each round
  // ping-pongs between perm and scratch.
  std::vector<std::uint32_t> scratch(n);
  std::vector<std::uint32_t>* src = &perm;
  std::vector<std::uint32_t>* dst = &scratch;
  while (runs.size() > 2) {
    const std::size_t pairs = (runs.size() - 1) / 2;
    const std::size_t segments =
        std::max<std::size_t>(1, (contexts * 2) / pairs);
    std::vector<std::size_t> next;
    next.reserve(pairs + 2);
    next.push_back(runs.front());
    TaskGroup group(pool);
    std::size_t r = 0;
    for (; r + 2 < runs.size(); r += 2) {
      MergePairTasks(*src, runs[r], runs[r + 1], runs[r + 2], less, *dst,
                     segments, group);
      next.push_back(runs[r + 2]);
    }
    if (r + 1 < runs.size()) {
      // Odd run out: carried over verbatim this round.
      const std::size_t b = runs[r];
      const std::size_t e = runs[r + 1];
      group.Run([src, dst, b, e] {
        std::copy(src->begin() + static_cast<std::ptrdiff_t>(b),
                  src->begin() + static_cast<std::ptrdiff_t>(e),
                  dst->begin() + static_cast<std::ptrdiff_t>(b));
      });
      next.push_back(runs[r + 1]);
    }
    group.Wait();
    runs = std::move(next);
    std::swap(src, dst);
  }
  if (src != &perm) perm = std::move(scratch);
  return perm;
}

Relation ParallelSortRelation(const Relation& rel, std::span<const int> cols,
                              TaskPool* pool) {
  if (UseSerial(pool, rel.size())) return SortRelation(rel, cols);
  const std::vector<std::uint32_t> perm =
      ParallelSortedPermutation(rel, cols, pool);

  // Parallel gather: the output is sized once and each context fills the
  // rows of one contiguous slice of the permutation, which yields exactly
  // ApplyPermutation(rel, perm).
  const std::size_t contexts = static_cast<std::size_t>(pool->threads());
  const std::size_t n = perm.size();
  Relation out(rel.width());
  out.Resize(n);
  TaskGroup group(pool);
  for (std::size_t c = 0; c < contexts; ++c) {
    const std::size_t b = n * c / contexts;
    const std::size_t e = n * (c + 1) / contexts;
    if (b == e) continue;
    group.Run([&rel, &perm, &out, b, e] {
      const std::span<const std::uint32_t> slice(perm.data() + b, e - b);
      out.GatherRows(rel, slice, b);
    });
  }
  group.Wait();
  return out;
}

Relation ParallelMergeSortedRuns(const std::vector<Relation>& runs,
                                 std::span<const int> cols, TaskPool* pool) {
  int width = 0;
  std::size_t total = 0;
  for (const auto& r : runs) {
    if (r.width() > width) width = r.width();
    total += r.size();
  }
  if (UseSerial(pool, total) || runs.size() <= 1) {
    return MergeSortedRuns(runs, cols);
  }

  // Balanced tournament of pairwise merges over the run list in order: run
  // i meets run j>i only with i in the left subtree, so ties resolve to the
  // lower run index — the same order MergeSortedRuns' heap produces.
  std::vector<Relation> level;
  level.reserve((runs.size() + 1) / 2);
  for (std::size_t r = 0; r + 1 < runs.size(); r += 2) {
    level.push_back(MergeTwoRuns(runs[r], runs[r + 1], cols, width, pool));
  }
  if (runs.size() % 2 == 1) level.push_back(runs.back());

  while (level.size() > 1) {
    std::vector<Relation> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t r = 0; r + 1 < level.size(); r += 2) {
      next.push_back(MergeTwoRuns(level[r], level[r + 1], cols, width, pool));
    }
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level = std::move(next);
  }
  return std::move(level.front());
}

Relation SortRelationAuto(const Relation& rel, std::span<const int> cols) {
  TaskPool* pool = CurrentPool();
  if (pool == nullptr || pool->threads() <= 1) return SortRelation(rel, cols);
  return ParallelSortRelation(rel, cols, pool);
}

Relation MergeSortedRunsAuto(const std::vector<Relation>& runs,
                             std::span<const int> cols) {
  TaskPool* pool = CurrentPool();
  if (pool == nullptr || pool->threads() <= 1) {
    return MergeSortedRuns(runs, cols);
  }
  return ParallelMergeSortedRuns(runs, cols, pool);
}

}  // namespace sncube::exec
