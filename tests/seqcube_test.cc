#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "data/generator.h"
#include "exec/task_pool.h"
#include "lattice/lattice.h"
#include "query/greedy_select.h"
#include "relation/sort.h"
#include "schedule/pipesort.h"
#include "seqcube/cube_result.h"
#include "seqcube/pipeline.h"
#include "seqcube/seq_cube.h"

namespace sncube {
namespace {

// Compares a computed view against the brute-force group-by, ignoring row
// order.
void ExpectViewCorrect(const Relation& raw, const ViewResult& vr, AggFn fn) {
  const Relation expected = BruteForceView(raw, vr.id, fn);
  const Relation actual = CanonicalizeRows(vr.rel);
  ASSERT_EQ(actual.size(), expected.size()) << "view mask=" << vr.id.mask();
  EXPECT_EQ(actual, expected) << "view mask=" << vr.id.mask();
}

DatasetSpec SmallSpec(std::int64_t rows, std::uint64_t seed = 5) {
  DatasetSpec spec;
  spec.rows = rows;
  spec.cardinalities = {16, 8, 4, 3};
  spec.seed = seed;
  return spec;
}

TEST(ComputeRootData, FullRootEqualsBruteForce) {
  const auto spec = SmallSpec(5000);
  const Relation raw = GenerateDataset(spec);
  const ViewId root = ViewId::Full(4);
  Relation data = ComputeRootData(raw, root, root.DimList(), AggFn::kSum);
  EXPECT_EQ(CanonicalizeRows(data), BruteForceView(raw, root, AggFn::kSum));
  EXPECT_TRUE(IsSorted(data, IdentityOrder(4)));
}

TEST(ComputeRootData, SubsetRootInPermutedOrder) {
  const auto spec = SmallSpec(3000);
  const Relation raw = GenerateDataset(spec);
  const ViewId root = ViewId::FromDims({1, 3});
  const std::vector<int> order{3, 1};  // sort by D3 then D1
  Relation data = ComputeRootData(raw, root, order, AggFn::kSum);
  EXPECT_EQ(data.width(), 2);
  // Canonical layout: column 0 = dim 1, column 1 = dim 3; sorted by (3,1) =
  // columns (1,0).
  EXPECT_TRUE(IsSorted(data, std::vector<int>{1, 0}));
  EXPECT_EQ(CanonicalizeRows(data), BruteForceView(raw, root, AggFn::kSum));
}

TEST(ComputeRootData, EmptyRootTotalsEverything) {
  const auto spec = SmallSpec(1000);
  const Relation raw = GenerateDataset(spec);
  Relation data =
      ComputeRootData(raw, ViewId::Empty(), {}, AggFn::kSum);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data.measure(0), 1000);  // measures are all 1
}

TEST(Pipeline, ExecutesAPartitionCorrectly) {
  const auto spec = SmallSpec(4000);
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  const auto parts = PartitionViews(AllViews(4), 4);
  const ViewId root = PartitionRoot(parts[0]);
  AnalyticEstimator est(schema, 4000);
  const ScheduleTree tree =
      BuildPipesortTree(parts[0], root, root.DimList(), est);

  Relation root_data =
      ComputeRootData(raw, root, root.DimList(), AggFn::kSum);
  ExecStats stats;
  const CubeResult cube = ExecuteScheduleTree(tree, std::move(root_data),
                                              AggFn::kSum, nullptr, &stats);
  ASSERT_EQ(cube.views.size(), 8u);
  for (const auto& [id, vr] : cube.views) {
    ExpectViewCorrect(raw, vr, AggFn::kSum);
    // Rows must be sorted in the view's declared order.
    EXPECT_TRUE(IsSorted(vr.rel, ColumnsOf(vr.id, vr.order)));
  }
  EXPECT_GT(stats.scans, 0u);
  EXPECT_GT(stats.rows_emitted, 0u);
}

// The release rule of pipeline.h replayed from the tree alone: the views in
// the order the executor hands them to a sink.
std::vector<ViewId> ReleaseOrder(const ScheduleTree& tree) {
  std::vector<int> readers(static_cast<std::size_t>(tree.size()), 0);
  for (int i = 1; i < tree.size(); ++i) {
    if (tree.node(i).edge == EdgeKind::kSort) ++readers[tree.node(i).parent];
  }
  std::vector<ViewId> order;
  const auto chain = [&](int head) {
    for (int node = head; node >= 0; node = tree.ScanChild(node)) {
      if (readers[node] == 0) order.push_back(tree.node(node).view);
    }
  };
  chain(ScheduleTree::kRootIndex);
  for (int i = 1; i < tree.size(); ++i) {
    const ScheduleNode& n = tree.node(i);
    if (n.edge != EdgeKind::kSort) continue;
    if (--readers[n.parent] == 0) order.push_back(tree.node(n.parent).view);
    chain(i);
  }
  return order;
}

std::vector<ViewId> IdsOf(const std::vector<ViewResult>& views) {
  std::vector<ViewId> ids;
  for (const ViewResult& vr : views) ids.push_back(vr.id);
  return ids;
}

// With a sink the executor streams the very views it would collect, in the
// release rule's order, and charges stats, disk and on_pipeline the same.
TEST(Pipeline, SinkStreamsTheCollectedViewsWithTheSameCharges) {
  const auto spec = SmallSpec(4000, 3);
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  const ViewId root = ViewId::Full(4);
  AnalyticEstimator est(schema, 4000);
  const ScheduleTree tree =
      BuildPipesortTree(AllViews(4), root, root.DimList(), est);
  const Relation root_data =
      ComputeRootData(raw, root, root.DimList(), AggFn::kSum);

  struct Run {
    DiskModel disk{{.block_bytes = 4096, .memory_bytes = 64 << 10}};
    ExecStats stats;
    std::vector<double> pipeline_sorts;
    std::vector<ViewResult> streamed;
    CubeResult cube;
  };
  const auto execute = [&](Run& run, bool with_sink) {
    ViewSink sink;
    if (with_sink) {
      sink = [&run](ViewResult view) {
        run.streamed.push_back(std::move(view));
      };
    }
    run.cube = ExecuteScheduleTree(
        tree, root_data, AggFn::kSum, &run.disk, &run.stats,
        [&run](const ExecStats& d) {
          run.pipeline_sorts.push_back(d.sort_cost_units);
        },
        sink);
  };
  Run collected;
  Run streamed;
  execute(collected, false);
  execute(streamed, true);

  EXPECT_TRUE(streamed.cube.views.empty());
  ASSERT_EQ(collected.cube.views.size(), static_cast<std::size_t>(tree.size()));
  EXPECT_EQ(IdsOf(streamed.streamed), ReleaseOrder(tree));
  for (const ViewResult& vr : streamed.streamed) {
    const ViewResult& want = collected.cube.views.at(vr.id);
    EXPECT_EQ(vr.order, want.order);
    EXPECT_EQ(vr.selected, want.selected);
    EXPECT_EQ(vr.rel, want.rel);
  }
  EXPECT_EQ(streamed.stats.records_scanned, collected.stats.records_scanned);
  EXPECT_EQ(streamed.stats.rows_emitted, collected.stats.rows_emitted);
  EXPECT_EQ(streamed.stats.sorts, collected.stats.sorts);
  EXPECT_EQ(streamed.stats.scans, collected.stats.scans);
  EXPECT_EQ(streamed.stats.sort_cost_units, collected.stats.sort_cost_units);
  EXPECT_EQ(streamed.pipeline_sorts, collected.pipeline_sorts);
  EXPECT_EQ(streamed.disk.blocks_read(), collected.disk.blocks_read());
  EXPECT_EQ(streamed.disk.blocks_written(), collected.disk.blocks_written());
  EXPECT_GT(collected.disk.blocks_written(), 0u);
}

TEST(Pipeline, RejectsUnsortedRootData) {
  const Schema schema({8, 4});
  AnalyticEstimator est(schema, 100);
  const ViewId root = ViewId::Full(2);
  const ScheduleTree tree =
      BuildPipesortTree(AllViews(2), root, root.DimList(), est);
  Relation unsorted(2);
  unsorted.Append(std::vector<Key>{5, 0}, 1);
  unsorted.Append(std::vector<Key>{1, 0}, 1);
  EXPECT_THROW(
      ExecuteScheduleTree(tree, std::move(unsorted), AggFn::kSum),
      SncubeError);
}

TEST(Pipeline, EmptyRootDataYieldsEmptyViews) {
  const Schema schema({8, 4});
  AnalyticEstimator est(schema, 0);
  const ViewId root = ViewId::Full(2);
  const ScheduleTree tree =
      BuildPipesortTree(AllViews(2), root, root.DimList(), est);
  const CubeResult cube =
      ExecuteScheduleTree(tree, Relation(2), AggFn::kSum);
  for (const auto& [id, vr] : cube.views) EXPECT_TRUE(vr.rel.empty());
}

TEST(SequentialPipesort, FullCubeMatchesBruteForce) {
  const auto spec = SmallSpec(6000, 11);
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  ExecStats stats;
  const CubeResult cube =
      SequentialPipesortCube(raw, schema, AggFn::kSum, nullptr, &stats);
  ASSERT_EQ(cube.views.size(), 16u);
  for (const auto& [id, vr] : cube.views) {
    ExpectViewCorrect(raw, vr, AggFn::kSum);
  }
  // The pipelined execution must sort far fewer times than one sort per
  // view.
  EXPECT_LT(stats.sorts, 16u);
}

TEST(SequentialPipesort, WithDiskAccounting) {
  const auto spec = SmallSpec(2000);
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  DiskModel disk({.block_bytes = 4096, .memory_bytes = 1 << 20});
  const CubeResult cube =
      SequentialPipesortCube(raw, schema, AggFn::kSum, &disk);
  EXPECT_EQ(cube.views.size(), 16u);
  EXPECT_GT(disk.blocks_read(), 0u);
  EXPECT_GT(disk.blocks_written(), 0u);
}

TEST(SequentialCube, PartitionedFullCubeMatchesPipesort) {
  const auto spec = SmallSpec(3000, 21);
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  const CubeResult a = SequentialPipesortCube(raw, schema);
  const CubeResult b = SequentialCube(raw, schema, AllViews(4));
  ASSERT_EQ(a.views.size(), b.views.size());
  for (const auto& [id, vr] : a.views) {
    const auto it = b.views.find(id);
    ASSERT_NE(it, b.views.end());
    EXPECT_EQ(CanonicalizeRows(vr.rel), CanonicalizeRows(it->second.rel));
  }
}

TEST(SequentialCube, PartialSelection) {
  const auto spec = SmallSpec(3000, 31);
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  const std::vector<ViewId> selected{
      ViewId::FromDims({0, 1}), ViewId::FromDims({1, 2}),
      ViewId::FromDims({3}), ViewId::Empty()};
  for (auto strategy : {PartialStrategy::kPrunedPipesort,
                        PartialStrategy::kGreedyLattice}) {
    const CubeResult cube = SequentialCube(raw, schema, selected,
                                           AggFn::kSum, nullptr, nullptr,
                                           strategy);
    for (ViewId v : selected) {
      const auto it = cube.views.find(v);
      ASSERT_NE(it, cube.views.end()) << "missing selected view";
      EXPECT_TRUE(it->second.selected);
      ExpectViewCorrect(raw, it->second, AggFn::kSum);
    }
    // Auxiliaries, when present, are flagged and also correct.
    for (const auto& [id, vr] : cube.views) {
      if (std::find(selected.begin(), selected.end(), id) == selected.end()) {
        EXPECT_FALSE(vr.selected);
        ExpectViewCorrect(raw, vr, AggFn::kSum);
      }
    }
  }
}

TEST(SequentialCube, MinAndMaxAggregates) {
  DatasetSpec spec = SmallSpec(2000, 41);
  Relation raw = GenerateDataset(spec);
  // Give rows distinguishable measures.
  for (std::size_t r = 0; r < raw.size(); ++r) {
    raw.measure(r) = static_cast<Measure>(r % 97) - 48;
  }
  const Schema schema = spec.MakeSchema();
  for (AggFn fn : {AggFn::kMin, AggFn::kMax}) {
    const CubeResult cube = SequentialCube(raw, schema, AllViews(4), fn);
    for (const auto& [id, vr] : cube.views) {
      ExpectViewCorrect(raw, vr, fn);
    }
  }
}

// SequentialCube with a sink hands over every node of every partition's
// tree exactly once, equal to the collecting run's view, in the order the
// release rule computes from the trees; the returned cube is empty. Full,
// HRU-greedy partial (with auxiliaries) and single-view selections, for
// sum/min/max, serial and on a 4-thread pool.
TEST(SequentialCube, SinkStreamsEveryTreeNodeOnceInReleaseOrder) {
  DatasetSpec spec;
  spec.rows = 12000;
  spec.cardinalities = {40, 16, 8, 5, 3};
  spec.alphas = {1.5, 0, 1, 0, 0};
  spec.seed = 17;
  Relation raw = GenerateDataset(spec);
  for (std::size_t r = 0; r < raw.size(); ++r) {
    raw.measure(r) = static_cast<Measure>(r % 97) - 48;
  }
  const Schema schema = spec.MakeSchema();
  const int d = schema.dims();
  const AnalyticEstimator est(schema, static_cast<double>(raw.size()));
  const std::vector<std::vector<ViewId>> selections = {
      AllViews(d),
      GreedySelectViews(d, 9, est),
      {ViewId::FromDims({1, 3})},
      {ViewId::Full(d)},
      {ViewId::Empty()}};

  bool saw_auxiliary = false;
  for (const int threads : {1, 4}) {
    exec::TaskPool pool(threads);
    const exec::PoolScope scope(&pool);
    for (const auto& selected : selections) {
      std::vector<ViewId> release_order;
      for (const auto& partition : PartitionViews(selected, d)) {
        if (partition.empty()) continue;
        const ViewId root = PartitionRoot(partition);
        const auto order = ReleaseOrder(BuildPartialTree(
            partition, root, root.DimList(), est,
            PartialStrategy::kPrunedPipesort));
        release_order.insert(release_order.end(), order.begin(), order.end());
      }
      for (const AggFn fn : {AggFn::kSum, AggFn::kMin, AggFn::kMax}) {
        const CubeResult collected = SequentialCube(raw, schema, selected, fn);
        std::vector<ViewResult> streamed;
        const CubeResult rest = SequentialCube(
            raw, schema, selected, fn, nullptr, nullptr,
            PartialStrategy::kPrunedPipesort,
            [&](ViewResult view) { streamed.push_back(std::move(view)); });
        EXPECT_TRUE(rest.views.empty());
        EXPECT_EQ(IdsOf(streamed), release_order);
        ASSERT_EQ(streamed.size(), collected.views.size());
        std::set<ViewId> seen;
        for (const ViewResult& vr : streamed) {
          EXPECT_TRUE(seen.insert(vr.id).second) << "mask " << vr.id.mask();
          const ViewResult& want = collected.views.at(vr.id);
          EXPECT_EQ(vr.order, want.order);
          EXPECT_EQ(vr.selected, want.selected);
          EXPECT_EQ(vr.rel, want.rel);
          saw_auxiliary |= !vr.selected;
        }
      }
    }
  }
  EXPECT_TRUE(saw_auxiliary);
}

TEST(SequentialCube, HeadlineRowCountsScale) {
  // Sanity: the cube is much bigger than the input (the paper's 2M rows →
  // ≈227M cube rows at d = 8; here a scaled-down shape check).
  DatasetSpec spec = DatasetSpec::PaperDefault(20000);
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  const CubeResult cube = SequentialCube(raw, schema, AllViews(8));
  EXPECT_EQ(cube.views.size(), 256u);
  EXPECT_GT(cube.TotalRows(), raw.size() * 10);
}

}  // namespace
}  // namespace sncube
