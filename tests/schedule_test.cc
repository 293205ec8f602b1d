#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

#include "common/rng.h"
#include "lattice/lattice.h"
#include "schedule/matching.h"
#include "schedule/partial.h"
#include "schedule/pipesort.h"
#include "schedule/schedule_tree.h"

namespace sncube {
namespace {

// Exhaustive min-cost assignment for cross-checking (rows <= cols <= 8).
double BruteForceMinCost(const std::vector<std::vector<double>>& cost) {
  const int n = static_cast<int>(cost.size());
  const int m = static_cast<int>(cost[0].size());
  std::vector<int> cols(m);
  std::iota(cols.begin(), cols.end(), 0);
  double best = std::numeric_limits<double>::infinity();
  do {
    double total = 0;
    for (int i = 0; i < n; ++i) total += cost[i][cols[i]];
    best = std::min(best, total);
  } while (std::next_permutation(cols.begin(), cols.end()));
  return best;
}

double AssignmentCost(const std::vector<std::vector<double>>& cost,
                      const std::vector<int>& assignment) {
  double total = 0;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    total += cost[i][assignment[i]];
  }
  return total;
}

TEST(Hungarian, TinyKnownCase) {
  const std::vector<std::vector<double>> cost{{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  const auto a = HungarianMinCost(cost);
  EXPECT_DOUBLE_EQ(AssignmentCost(cost, a), 5.0);  // 1 + 2 + 2
}

TEST(Hungarian, RectangularUsesBestColumns) {
  const std::vector<std::vector<double>> cost{{10, 1, 10, 10},
                                              {10, 10, 2, 10}};
  const auto a = HungarianMinCost(cost);
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(a[1], 2);
}

TEST(Hungarian, ColumnsAreDistinct) {
  const std::vector<std::vector<double>> cost{{1, 1}, {1, 1}};
  const auto a = HungarianMinCost(cost);
  EXPECT_NE(a[0], a[1]);
}

TEST(Hungarian, RandomizedMatchesBruteForce) {
  Rng rng(321);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 + static_cast<int>(rng.Below(4));
    const int m = n + static_cast<int>(rng.Below(3));
    std::vector<std::vector<double>> cost(n, std::vector<double>(m));
    for (auto& row : cost) {
      for (auto& c : row) c = static_cast<double>(rng.Below(20));
    }
    const auto a = HungarianMinCost(cost);
    std::set<int> used(a.begin(), a.end());
    EXPECT_EQ(used.size(), a.size());  // distinct columns
    EXPECT_DOUBLE_EQ(AssignmentCost(cost, a), BruteForceMinCost(cost))
        << "trial " << trial;
  }
}

TEST(MaxWeightMatching, IgnoresNonPositiveEdges) {
  const std::vector<std::vector<double>> w{{-5, 0}, {0, -1}};
  const auto m = MaxWeightBipartiteMatching(w);
  EXPECT_EQ(m[0], -1);
  EXPECT_EQ(m[1], -1);
}

TEST(MaxWeightMatching, PrefersHeavierCombination) {
  // Row 0 would take column 0 greedily (9), but the optimum gives column 0
  // to row 1 (8) and column 1 to row 0 (7): 15 > 9 + nothing.
  const std::vector<std::vector<double>> w{{9, 7}, {8, 0}};
  const auto m = MaxWeightBipartiteMatching(w);
  EXPECT_EQ(m[0], 1);
  EXPECT_EQ(m[1], 0);
}

TEST(MaxWeightMatching, LeavesRowUnmatchedWhenColumnsScarce) {
  const std::vector<std::vector<double>> w{{5}, {3}};
  const auto m = MaxWeightBipartiteMatching(w);
  EXPECT_EQ(m[0], 0);
  EXPECT_EQ(m[1], -1);
}

// ---------------------------------------------------------------------------

Schema FourDims() { return Schema({256, 128, 64, 32}); }

TEST(ScheduleTree, BuildValidateRoundTrip) {
  ScheduleTree tree;
  const ViewId abcd = ViewId::Full(4);
  tree.AddRoot(abcd, abcd.DimList(), 1000.0);
  const int abc = tree.AddChild(0, ViewId::FromDims({0, 1, 2}),
                                EdgeKind::kScan, 500.0);
  tree.AddChild(0, ViewId::FromDims({0, 2, 3}), EdgeKind::kSort, 400.0);
  tree.AddChild(abc, ViewId::FromDims({0, 1}), EdgeKind::kScan, 100.0);
  tree.ResolveOrders();
  tree.Validate();

  EXPECT_EQ(tree.size(), 4);
  EXPECT_EQ(tree.ScanChild(0), abc);
  EXPECT_TRUE(tree.node(abc).order_fixed);
  EXPECT_EQ(tree.node(abc).order, (std::vector<int>{0, 1, 2}));

  const ByteBuffer bytes = tree.Serialize();
  const ScheduleTree back = ScheduleTree::Deserialize(bytes);
  back.Validate();
  ASSERT_EQ(back.size(), tree.size());
  for (int i = 0; i < tree.size(); ++i) {
    EXPECT_EQ(back.node(i).view, tree.node(i).view);
    EXPECT_EQ(back.node(i).parent, tree.node(i).parent);
    EXPECT_EQ(back.node(i).edge, tree.node(i).edge);
    EXPECT_EQ(back.node(i).order, tree.node(i).order);
    EXPECT_EQ(back.node(i).selected, tree.node(i).selected);
    EXPECT_EQ(back.node(i).order_fixed, tree.node(i).order_fixed);
    EXPECT_DOUBLE_EQ(back.node(i).est_rows, tree.node(i).est_rows);
  }
}

TEST(ScheduleTree, RejectsSecondScanChild) {
  ScheduleTree tree;
  tree.AddRoot(ViewId::Full(3), ViewId::Full(3).DimList(), 10.0);
  tree.AddChild(0, ViewId::FromDims({0, 1}), EdgeKind::kScan, 5.0);
  EXPECT_THROW(tree.AddChild(0, ViewId::FromDims({0}), EdgeKind::kScan, 1.0),
               SncubeError);
}

TEST(ScheduleTree, RejectsNonSubsetChild) {
  ScheduleTree tree;
  tree.AddRoot(ViewId::FromDims({0, 1}), std::vector<int>{0, 1}, 10.0);
  EXPECT_THROW(
      tree.AddChild(0, ViewId::FromDims({2}), EdgeKind::kSort, 1.0),
      SncubeError);
}

TEST(ScheduleTree, RejectsNonPrefixScanFromFixedParent) {
  ScheduleTree tree;
  tree.AddRoot(ViewId::Full(3), std::vector<int>{0, 1, 2}, 10.0);
  // {0,2} is not a prefix of order (0,1,2).
  EXPECT_THROW(
      tree.AddChild(0, ViewId::FromDims({0, 2}), EdgeKind::kScan, 1.0),
      SncubeError);
}

TEST(ScheduleTree, ResolveOrdersPropagatesScanChains) {
  ScheduleTree tree;
  tree.AddRoot(ViewId::Full(4), std::vector<int>{0, 1, 2, 3}, 100.0);
  // Sort child BCD (free order), whose scan child is BD: BCD's order must
  // begin with BD's dims.
  const int bcd =
      tree.AddChild(0, ViewId::FromDims({1, 2, 3}), EdgeKind::kSort, 50.0);
  tree.AddChild(bcd, ViewId::FromDims({1, 3}), EdgeKind::kScan, 20.0);
  tree.ResolveOrders();
  tree.Validate();
  EXPECT_EQ(tree.node(bcd).order, (std::vector<int>{1, 3, 2}));
}

TEST(ScheduleTree, ToDotRendersEdgesAndAux) {
  const Schema schema = FourDims();
  ScheduleTree tree;
  tree.AddRoot(ViewId::Full(4), ViewId::Full(4).DimList(), 100.0);
  tree.AddChild(0, ViewId::FromDims({0, 1, 2}), EdgeKind::kScan, 50.0);
  tree.AddChild(0, ViewId::FromDims({0, 3}), EdgeKind::kSort, 20.0, false);
  tree.ResolveOrders();
  const std::string dot = tree.ToDot(schema);
  EXPECT_NE(dot.find("digraph schedule"), std::string::npos);
  EXPECT_NE(dot.find("style=bold, label=\"scan\""), std::string::npos);
  EXPECT_NE(dot.find("label=\"sort\""), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // aux node
  EXPECT_NE(dot.find("ABCD"), std::string::npos);
}

TEST(ScheduleTree, EstimatedCostCountsScanVsSort) {
  ScheduleTree tree;
  tree.AddRoot(ViewId::Full(2), std::vector<int>{0, 1}, 16.0);
  tree.AddChild(0, ViewId::FromDims({0}), EdgeKind::kScan, 4.0);
  tree.AddChild(0, ViewId::FromDims({1}), EdgeKind::kSort, 4.0);
  tree.ResolveOrders();
  // scan = 16, sort = 16·log2(16) = 64.
  EXPECT_DOUBLE_EQ(tree.EstimatedCost(), 16.0 + 64.0);
}

// ---------------------------------------------------------------------------

TEST(Pipesort, FullAPartitionMatchesFigure1b) {
  const Schema schema = FourDims();
  const auto parts = PartitionViews(AllViews(4), 4);
  const ViewId root = PartitionRoot(parts[0]);  // ABCD
  AnalyticEstimator est(schema, 100000);

  const ScheduleTree tree =
      BuildPipesortTree(parts[0], root, root.DimList(), est);
  tree.Validate();

  // All 8 views of the A-partition appear exactly once.
  std::set<std::uint32_t> seen;
  for (int i = 0; i < tree.size(); ++i) {
    EXPECT_TRUE(seen.insert(tree.node(i).view.mask()).second);
    EXPECT_TRUE(tree.node(i).selected);
  }
  EXPECT_EQ(seen.size(), 8u);

  // The root's scan child must be its canonical prefix ABC (order is fixed
  // by the global sort).
  const int sc = tree.ScanChild(0);
  ASSERT_GE(sc, 0);
  EXPECT_EQ(tree.node(sc).view, ViewId::FromDims({0, 1, 2}));

  // Pipesort must beat the all-sort tree.
  double all_sort = 0;
  for (int i = 1; i < tree.size(); ++i) {
    all_sort += SortCost(tree.node(tree.node(i).parent).est_rows);
  }
  EXPECT_LT(tree.EstimatedCost(), all_sort);
}

TEST(Pipesort, EveryLevelFullyScanMatchedWhenPossible) {
  // In the A-partition of a 4-cube, levels 3→2 and 2→1 have equal node
  // counts, so a perfect scan matching exists for the middle levels.
  const Schema schema = FourDims();
  const auto parts = PartitionViews(AllViews(4), 4);
  AnalyticEstimator est(schema, 50000);
  const ViewId root = PartitionRoot(parts[0]);
  const ScheduleTree tree =
      BuildPipesortTree(parts[0], root, root.DimList(), est);

  int scan_edges = 0;
  for (int i = 1; i < tree.size(); ++i) {
    scan_edges += (tree.node(i).edge == EdgeKind::kScan) ? 1 : 0;
  }
  // 3 three-dim views each scan one two-dim view, plus root→ABC and one
  // scan into A: at least 5 of 7 edges are scans.
  EXPECT_GE(scan_edges, 5);
}

TEST(Pipesort, LastPartitionIsRootPlusAll) {
  const Schema schema = FourDims();
  const auto parts = PartitionViews(AllViews(4), 4);
  AnalyticEstimator est(schema, 1000);
  const ViewId root = PartitionRoot(parts[3]);  // D
  const ScheduleTree tree =
      BuildPipesortTree(parts[3], root, root.DimList(), est);
  tree.Validate();
  ASSERT_EQ(tree.size(), 2);
  EXPECT_EQ(tree.node(1).view, ViewId::Empty());
  EXPECT_EQ(tree.node(1).edge, EdgeKind::kScan);  // prefix of anything
}

TEST(Pipesort, AllPartitionsCoverEveryViewOnce) {
  for (int d : {3, 4, 5, 6, 8}) {
    std::vector<std::uint32_t> cards;
    for (int i = 0; i < d; ++i) cards.push_back(1u << (d - i));
    const Schema schema(cards);
    AnalyticEstimator est(schema, 200000);
    const auto parts = PartitionViews(AllViews(d), d);

    std::set<std::uint32_t> seen;
    for (const auto& part : parts) {
      if (part.empty()) continue;
      const ViewId root = PartitionRoot(part);
      const ScheduleTree tree =
          BuildPipesortTree(part, root, root.DimList(), est);
      tree.Validate();
      for (int i = 0; i < tree.size(); ++i) {
        EXPECT_TRUE(seen.insert(tree.node(i).view.mask()).second)
            << "d=" << d;
      }
    }
    EXPECT_EQ(seen.size(), 1u << d) << "d=" << d;
  }
}

TEST(Pipesort, RejectsLevelGaps) {
  const Schema schema = FourDims();
  AnalyticEstimator est(schema, 1000);
  const ViewId root = ViewId::Full(4);
  // AB (level 2) with no level-3 parent present.
  const std::vector<ViewId> gapped{root, ViewId::FromDims({0, 1})};
  EXPECT_THROW(BuildPipesortTree(gapped, root, root.DimList(), est),
               SncubeError);
}

// ---------------------------------------------------------------------------

TEST(Partial, PrunedKeepsSelectedAndPathIntermediates) {
  const Schema schema = FourDims();
  AnalyticEstimator est(schema, 100000);
  const ViewId root = ViewId::Full(4);
  // Figure 1c flavour: select ABCD, AB, AC, A within the A-partition.
  const std::vector<ViewId> selected{root, ViewId::FromDims({0, 1}),
                                     ViewId::FromDims({0, 2}),
                                     ViewId::FromDims({0})};
  const ScheduleTree tree = BuildPartialTree(
      selected, root, root.DimList(), est, PartialStrategy::kPrunedPipesort);
  tree.Validate();

  for (ViewId v : selected) {
    const int i = tree.Find(v);
    ASSERT_GE(i, 0) << "selected view missing";
    EXPECT_TRUE(tree.node(i).selected);
  }
  // Intermediates (if any) are marked auxiliary.
  for (int i = 0; i < tree.size(); ++i) {
    const bool is_selected =
        std::find(selected.begin(), selected.end(), tree.node(i).view) !=
        selected.end();
    EXPECT_EQ(tree.node(i).selected, is_selected);
  }
}

TEST(Partial, GreedyBuildsValidTreeWithoutIntermediates) {
  const Schema schema = FourDims();
  AnalyticEstimator est(schema, 100000);
  const ViewId root = ViewId::Full(4);
  const std::vector<ViewId> selected{root, ViewId::FromDims({0, 1}),
                                     ViewId::FromDims({0, 3}),
                                     ViewId::FromDims({0})};
  const ScheduleTree tree = BuildPartialTree(
      selected, root, root.DimList(), est, PartialStrategy::kGreedyLattice);
  tree.Validate();
  EXPECT_EQ(tree.size(), 4);  // no extra nodes
  for (int i = 0; i < tree.size(); ++i) EXPECT_TRUE(tree.node(i).selected);
}

TEST(Partial, GreedyScanEdgesMaySkipLevels) {
  const Schema schema = FourDims();
  AnalyticEstimator est(schema, 100000);
  const ViewId root = ViewId::Full(4);
  // Only ABCD and A: greedy should hang A off the root directly — and since
  // A is a prefix of the root's order, by scan.
  const std::vector<ViewId> selected{root, ViewId::FromDims({0})};
  const ScheduleTree tree = BuildPartialTree(
      selected, root, root.DimList(), est, PartialStrategy::kGreedyLattice);
  tree.Validate();
  ASSERT_EQ(tree.size(), 2);
  EXPECT_EQ(tree.node(1).edge, EdgeKind::kScan);
}

TEST(Partial, BestPicksCheaper) {
  const Schema schema = FourDims();
  AnalyticEstimator est(schema, 100000);
  const ViewId root = ViewId::Full(4);
  const std::vector<ViewId> selected{root, ViewId::FromDims({0, 1}),
                                     ViewId::FromDims({0})};
  const ScheduleTree best =
      BuildBestPartialTree(selected, root, root.DimList(), est);
  const ScheduleTree pruned = BuildPartialTree(
      selected, root, root.DimList(), est, PartialStrategy::kPrunedPipesort);
  const ScheduleTree greedy = BuildPartialTree(
      selected, root, root.DimList(), est, PartialStrategy::kGreedyLattice);
  EXPECT_DOUBLE_EQ(
      best.EstimatedCost(),
      std::min(pruned.EstimatedCost(), greedy.EstimatedCost()));
}

TEST(Partial, SingleEmptyViewPartition) {
  const Schema schema = FourDims();
  AnalyticEstimator est(schema, 1000);
  const std::vector<ViewId> selected{ViewId::Empty()};
  for (auto strategy : {PartialStrategy::kPrunedPipesort,
                        PartialStrategy::kGreedyLattice}) {
    const ScheduleTree tree = BuildPartialTree(selected, ViewId::Empty(), {},
                                               est, strategy);
    tree.Validate();
    EXPECT_EQ(tree.size(), 1);
  }
}

TEST(Partial, FullSelectionEqualsPipesortCost) {
  // Selecting every view of a partition: the pruned strategy degenerates to
  // plain Pipesort.
  const Schema schema = FourDims();
  AnalyticEstimator est(schema, 100000);
  const auto parts = PartitionViews(AllViews(4), 4);
  const ViewId root = PartitionRoot(parts[0]);
  const ScheduleTree full =
      BuildPipesortTree(parts[0], root, root.DimList(), est);
  const ScheduleTree pruned = BuildPartialTree(
      parts[0], root, root.DimList(), est, PartialStrategy::kPrunedPipesort);
  EXPECT_DOUBLE_EQ(full.EstimatedCost(), pruned.EstimatedCost());
  EXPECT_EQ(full.size(), pruned.size());
}

}  // namespace
}  // namespace sncube
