// Tests for the intra-rank execution runtime (src/exec/): pool mechanics,
// byte-exact agreement of the parallel sort/merge with their serial
// counterparts for every thread count, and the span-based cost accounting
// (simulated time never grows with threads-per-rank, results never change).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/parallel_cube.h"
#include "data/generator.h"
#include "exec/parallel_algo.h"
#include "exec/task_pool.h"
#include "lattice/lattice.h"
#include "net/cluster.h"
#include "relation/merge.h"
#include "relation/serialize.h"
#include "relation/sort.h"
#include "sort_reference.h"

namespace sncube {
namespace {

// ---------------------------------------------------------------------------
// TaskPool mechanics

TEST(TaskPool, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 2, 4, 8}) {
    exec::TaskPool pool(threads);
    const std::size_t n = 10007;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(n, 16, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(TaskPool, ParallelForEmptyAndTiny) {
  exec::TaskPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, 8, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<std::size_t> covered{0};
  pool.ParallelFor(3, 1024, [&](std::size_t begin, std::size_t end) {
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(covered.load(), 3u);
}

TEST(TaskPool, TaskGroupRunsEveryTask) {
  exec::TaskPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  exec::TaskGroup group(&pool);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    group.Run([&hits, i] { hits[i].fetch_add(1); });
  }
  group.Wait();
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskPool, TaskGroupRethrowsLowestSubmissionIndex) {
  exec::TaskPool pool(4);
  exec::TaskGroup group(&pool);
  for (int i = 0; i < 16; ++i) {
    group.Run([i] {
      if (i == 3 || i == 11) {
        throw SncubeError("task " + std::to_string(i));
      }
    });
  }
  try {
    group.Wait();
    FAIL() << "expected SncubeError";
  } catch (const SncubeError& e) {
    // Deterministic: always the error from the lowest submission index,
    // regardless of which worker hit which task first.
    EXPECT_STREQ(e.what(), "task 3");
  }
}

TEST(TaskPool, NestedParallelismRunsInline) {
  exec::TaskPool pool(4);
  std::atomic<std::size_t> covered{0};
  EXPECT_FALSE(exec::TaskPool::OnWorkerThread());
  pool.ParallelFor(64, 1, [&](std::size_t begin, std::size_t end) {
    // A nested region must not deadlock or re-enter the deques; it runs
    // serially on whichever context hit it.
    pool.ParallelFor(end - begin, 1, [&](std::size_t b, std::size_t e) {
      covered.fetch_add(e - b);
    });
  });
  EXPECT_EQ(covered.load(), 64u);
}

TEST(TaskPool, CurrentPoolFollowsScope) {
  EXPECT_EQ(exec::CurrentPool(), nullptr);
  exec::TaskPool pool(2);
  {
    exec::PoolScope scope(&pool);
    EXPECT_EQ(exec::CurrentPool(), &pool);
  }
  EXPECT_EQ(exec::CurrentPool(), nullptr);
}

TEST(TaskPool, StealSmoke) {
  // Ragged tasks from one submitter: with 4 contexts and round-robin push,
  // finishing requires other slots' deques to be drained — via the
  // submitting thread's own scan or idle workers stealing. Either way every
  // task runs exactly once; steal_count is informational.
  exec::TaskPool pool(4);
  std::atomic<int> ran{0};
  std::atomic<std::uint64_t> benchmark_sink{0};
  exec::TaskGroup group(&pool);
  for (int i = 0; i < 256; ++i) {
    group.Run([&ran, &benchmark_sink, i] {
      std::uint64_t x = 0;
      for (int k = 0; k < (i % 7) * 1000; ++k) x += static_cast<std::uint64_t>(k);
      benchmark_sink.fetch_add(x);
      ran.fetch_add(1);
    });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 256);
  EXPECT_GE(pool.steal_count(), 0u);
}

// ---------------------------------------------------------------------------
// Parallel sort / merge == serial, byte for byte

Relation RandomRelation(std::size_t rows, int width, std::uint64_t seed,
                        std::uint64_t key_range) {
  Rng rng(seed);
  Relation rel(width);
  std::vector<Key> keys(static_cast<std::size_t>(width));
  for (std::size_t r = 0; r < rows; ++r) {
    for (auto& k : keys) k = static_cast<Key>(rng.Below(key_range));
    rel.Append(keys, static_cast<Measure>(r));  // unique measures expose
                                                // any stability violation
  }
  return rel;
}

TEST(ParallelAlgo, SortMatchesSerialAcrossThreadCounts) {
  const std::vector<int> cols = {0, 2, 1};
  // key_range 6 forces long runs of duplicates; the distinct measures make
  // stable order fully observable.
  const Relation rel = RandomRelation(20000, 3, 17, 6);
  const Relation expected = SortRelation(rel, cols);
  for (int threads : {1, 2, 3, 4, 8}) {
    exec::TaskPool pool(threads);
    const Relation got = exec::ParallelSortRelation(rel, cols, &pool);
    ASSERT_EQ(SerializeRelation(got), SerializeRelation(expected))
        << "threads=" << threads;
  }
}

TEST(ParallelAlgo, SortSmallAndEdgeSizes) {
  const std::vector<int> cols = {0};
  for (std::size_t rows : {0u, 1u, 2u, 5u, 4095u, 4096u, 4097u}) {
    const Relation rel = RandomRelation(rows, 1, rows + 3, 10);
    const Relation expected = SortRelation(rel, cols);
    exec::TaskPool pool(4);
    const Relation got = exec::ParallelSortRelation(rel, cols, &pool);
    ASSERT_EQ(SerializeRelation(got), SerializeRelation(expected))
        << "rows=" << rows;
  }
}

TEST(ParallelAlgo, PermutationMatchesSerial) {
  const std::vector<int> cols = {1, 0};
  const Relation rel = RandomRelation(12345, 2, 99, 4);
  const auto expected = SortedPermutation(rel, cols);
  for (int threads : {2, 4, 7}) {
    exec::TaskPool pool(threads);
    EXPECT_EQ(exec::ParallelSortedPermutation(rel, cols, &pool), expected)
        << "threads=" << threads;
  }
}

// The pooled sort against the test's own comparator reference (not the
// serial kernel, which runs inside every chunk): full permutations and
// gathered bytes, over key shapes below, at and above one 64-bit word.
TEST(SortKernel, PooledMatchesStableSortReference) {
  Rng rng(31);
  const std::vector<std::vector<int>> shapes = {
      {8, 7, 6, 5, 4, 3, 3, 2}, {0, 20, 1}, {32, 32, 32, 17}};
  for (const auto& bits : shapes) {
    for (const std::size_t rows : {0u, 1u, 2u, 4095u, 4096u, 4097u, 100003u}) {
      const Relation rel = testing::RandomBitsRelation(rows, bits, 40, rng);
      const auto cols = testing::RandomColumnOrder(rel.width(), rng);
      const auto expected = testing::ReferencePermutation(rel, cols);
      Relation gathered(rel.width());
      for (const std::uint32_t row : expected) gathered.AppendRow(rel, row);
      for (int threads : {1, 2, 3, 4, 8}) {
        exec::TaskPool pool(threads);
        ASSERT_EQ(exec::ParallelSortedPermutation(rel, cols, &pool), expected)
            << "rows=" << rows << " threads=" << threads;
        ASSERT_EQ(exec::ParallelSortRelation(rel, cols, &pool), gathered)
            << "rows=" << rows << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelAlgo, MergeMatchesSerialWithDuplicates) {
  const std::vector<int> cols = {0, 1};
  std::vector<Relation> runs;
  for (std::uint64_t s = 0; s < 5; ++s) {
    runs.push_back(
        SortRelation(RandomRelation(3000 + 700 * s, 2, s, 8), cols));
  }
  const Relation expected = MergeSortedRuns(runs, cols);
  for (int threads : {1, 2, 4, 8}) {
    exec::TaskPool pool(threads);
    const Relation got = exec::ParallelMergeSortedRuns(runs, cols, &pool);
    ASSERT_EQ(SerializeRelation(got), SerializeRelation(expected))
        << "threads=" << threads;
  }
}

TEST(ParallelAlgo, MergeEdgeCases) {
  const std::vector<int> cols = {0};
  exec::TaskPool pool(4);
  EXPECT_TRUE(exec::ParallelMergeSortedRuns({}, cols, &pool).empty());
  std::vector<Relation> one;
  one.push_back(SortRelation(RandomRelation(5000, 1, 1, 3), cols));
  EXPECT_EQ(SerializeRelation(exec::ParallelMergeSortedRuns(one, cols, &pool)),
            SerializeRelation(one[0]));
}

TEST(ParallelAlgo, AutoVariantsDispatchOnCurrentPool) {
  const std::vector<int> cols = {0};
  const Relation rel = RandomRelation(9000, 1, 5, 7);
  const Relation expected = SortRelation(rel, cols);
  // No pool installed: serial path.
  EXPECT_EQ(SerializeRelation(exec::SortRelationAuto(rel, cols)),
            SerializeRelation(expected));
  // Pool installed: parallel path, same bytes.
  exec::TaskPool pool(4);
  exec::PoolScope scope(&pool);
  EXPECT_EQ(SerializeRelation(exec::SortRelationAuto(rel, cols)),
            SerializeRelation(expected));
}

// ---------------------------------------------------------------------------
// End-to-end: byte-identical cube and monotone simulated time

DatasetSpec ExecSpec(std::int64_t rows) {
  DatasetSpec spec;
  spec.rows = rows;
  spec.cardinalities = {40, 12, 6, 4};
  spec.seed = 777;
  return spec;
}

// Runs the full parallel cube at p ranks with W threads per rank; returns
// (per-view serialized bytes keyed by (rank, view), simulated seconds).
std::pair<std::map<std::pair<int, std::uint32_t>, ByteBuffer>, double>
RunCubeAt(int p, int threads_per_rank, const DatasetSpec& spec) {
  const Schema schema = spec.MakeSchema();
  const auto selected = AllViews(static_cast<int>(spec.cardinalities.size()));
  Cluster cluster(p);
  cluster.set_threads_per_rank(threads_per_rank);
  std::map<std::pair<int, std::uint32_t>, ByteBuffer> bytes;
  Mutex mu;
  cluster.Run([&](Comm& comm) {
    const Relation raw = GenerateSlice(spec, p, comm.rank());
    const CubeResult cube = BuildParallelCube(comm, raw, schema, selected);
    MutexLock lock(mu);
    for (const auto& [id, vr] : cube.views) {
      bytes[{comm.rank(), id.mask()}] = SerializeRelation(vr.rel);
    }
  });
  return {std::move(bytes), cluster.SimTimeSeconds()};
}

TEST(ExecEndToEnd, CubeBytesIdenticalAcrossThreadCounts) {
  const DatasetSpec spec = ExecSpec(8000);
  const auto [serial_bytes, serial_time] = RunCubeAt(2, 1, spec);
  for (int threads : {2, 4}) {
    const auto [bytes, time] = RunCubeAt(2, threads, spec);
    ASSERT_EQ(bytes.size(), serial_bytes.size()) << "W=" << threads;
    for (const auto& [key, buf] : serial_bytes) {
      ASSERT_EQ(bytes.at(key), buf)
          << "W=" << threads << " rank=" << key.first
          << " view mask=" << key.second;
    }
    // Span charging: parallel regions charge work/W <= work, never more.
    EXPECT_LE(time, serial_time + 1e-9) << "W=" << threads;
  }
}

TEST(ExecEndToEnd, SimulatedTimeMonotoneInThreadsPerRank) {
  // Balanced workload (alpha = 0): span charging is exactly work/W for the
  // sort regions, so more threads per rank can only shrink the clock.
  const DatasetSpec spec = ExecSpec(12000);
  double prev = -1;
  for (int threads : {1, 2, 4, 8}) {
    const auto [bytes, time] = RunCubeAt(2, threads, spec);
    (void)bytes;
    if (prev >= 0) {
      EXPECT_LE(time, prev + 1e-9) << "W=" << threads;
    }
    prev = time;
  }
}

TEST(ExecEndToEnd, SpanStatsRecorded) {
  const DatasetSpec spec = ExecSpec(6000);
  const Schema schema = spec.MakeSchema();
  const auto selected = AllViews(4);
  Cluster cluster(2);
  cluster.set_threads_per_rank(4);
  cluster.Run([&](Comm& comm) {
    const Relation raw = GenerateSlice(spec, 2, comm.rank());
    BuildParallelCube(comm, raw, schema, selected);
  });
  double work = 0;
  double span = 0;
  for (const auto& rs : cluster.stats()) {
    const PhaseStats total = rs.Total();
    work += total.par_work_s;
    span += total.par_span_s;
  }
  EXPECT_GT(work, 0.0);
  EXPECT_GT(span, 0.0);
  // Brent: span <= work, and with uniform W=4 regions span == work/4 up to
  // the ragged external-sort regions, so it must be well under the work.
  EXPECT_LT(span, work);
}

}  // namespace
}  // namespace sncube
