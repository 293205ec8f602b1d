// Deterministic divide-and-conquer sort/merge over Relations, built on
// exec::TaskPool.
//
// ParallelSortedPermutation is a chunked sort-then-merge: the rows are
// split into `threads` contiguous chunks (boundaries a pure function of n
// and the thread count), each chunk is sorted in parallel by the stable
// radix kernel RadixSortRows (relation/sort.h), then adjacent runs are
// merged pairwise; each pair merge is itself split into key-aligned
// segments merged concurrently into disjoint output ranges. Every merge
// takes the left run first on equal keys and chunks hold ascending row
// indices, so the result equals std::stable_sort — i.e. relation/sort.h's
// SortedPermutation — exactly, for every thread count.
//
// ParallelMergeSortedRuns merges k sorted runs as a balanced tournament of
// pairwise merges over the run list in order; ties go to the lower run
// index (left subtree), matching relation/merge.h's MergeSortedRuns
// byte-for-byte.
//
// The *Auto variants dispatch on exec::CurrentPool(): with no pool
// installed (or a single-threaded one) they call the serial implementations
// directly, so the serial path — control flow, allocation pattern, result —
// is untouched when threads_per_rank == 1.
//
// Cost model: the simulated clock counts records, not cycles. Both
// algorithms move the records their serial counterparts do, plus log2(W)
// merge rounds of n each, so callers keep charging the serial work formula
// (n·log2 n records for a sort) and divide by the thread count for the
// span — see Comm::ChargeParallelCpu.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/task_pool.h"
#include "relation/relation.h"

namespace sncube::exec {

// Row order of `rel` ascending-lexicographic in `cols`; equals
// SortedPermutation(rel, cols) for every pool/thread count.
std::vector<std::uint32_t> ParallelSortedPermutation(const Relation& rel,
                                                     std::span<const int> cols,
                                                     TaskPool* pool);

// Sorted copy of `rel`; equals SortRelation(rel, cols) byte-for-byte.
Relation ParallelSortRelation(const Relation& rel, std::span<const int> cols,
                              TaskPool* pool);

// Merge of sorted runs; equals MergeSortedRuns(runs, cols) byte-for-byte.
Relation ParallelMergeSortedRuns(const std::vector<Relation>& runs,
                                 std::span<const int> cols, TaskPool* pool);

// Dispatch-on-CurrentPool() conveniences for the per-rank kernels.
Relation SortRelationAuto(const Relation& rel, std::span<const int> cols);
Relation MergeSortedRunsAuto(const std::vector<Relation>& runs,
                             std::span<const int> cols);

}  // namespace sncube::exec
