#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <optional>
#include <string>

#include "common/rng.h"
#include "data/generator.h"
#include "lattice/lattice.h"
#include "query/engine.h"
#include "query/greedy_select.h"
#include "relation/aggregate.h"
#include "seqcube/seq_cube.h"
#include "seqcube/view_store.h"
#include "serve/shard_set.h"

namespace sncube {
namespace {

struct QueryFixture : ::testing::Test {
  void SetUp() override {
    spec.rows = 4000;
    spec.cardinalities = {20, 10, 5, 3};
    spec.seed = 9;
    raw = GenerateDataset(spec);
    schema = spec.MakeSchema();
    cube = SequentialCube(raw, schema, AllViews(4));
  }

  DatasetSpec spec;
  Relation raw;
  Schema schema;
  CubeResult cube;
};

TEST_F(QueryFixture, RoutesToExactViewWhenMaterialized) {
  CubeQueryEngine engine(cube);
  Query q;
  q.group_by = ViewId::FromDims({1, 3});
  EXPECT_EQ(engine.Route(q), ViewId::FromDims({1, 3}));
}

TEST_F(QueryFixture, GroupByMatchesBruteForce) {
  CubeQueryEngine engine(cube);
  for (ViewId v : AllViews(4)) {
    Query q;
    q.group_by = v;
    const auto answer = engine.Execute(q);
    EXPECT_EQ(answer.rel, BruteForceView(raw, v, AggFn::kSum))
        << "view mask=" << v.mask();
  }
}

TEST_F(QueryFixture, FilterRoutesToCoveringView) {
  CubeQueryEngine engine(cube);
  Query q;
  q.group_by = ViewId::FromDims({1});
  q.filters = {{.dim = 0, .value = 3}};
  const ViewId routed = engine.Route(q);
  EXPECT_TRUE(ViewId::FromDims({0, 1}).IsSubsetOf(routed));

  const auto answer = engine.Execute(q);
  // Brute force: filter raw rows on D0 == 3, then group by D1.
  Relation filtered(raw.width());
  for (std::size_t r = 0; r < raw.size(); ++r) {
    if (raw.key(r, 0) == 3) filtered.AppendRow(raw, r);
  }
  EXPECT_EQ(answer.rel,
            BruteForceView(filtered, ViewId::FromDims({1}), AggFn::kSum));
}

TEST_F(QueryFixture, PartialCubeFallsBackToAncestor) {
  const std::vector<ViewId> selected{ViewId::Full(4),
                                     ViewId::FromDims({0, 1})};
  const CubeResult partial = SequentialCube(raw, schema, selected);
  CubeQueryEngine engine(partial);
  Query q;
  q.group_by = ViewId::FromDims({1});
  // D1 alone is not materialized; the smallest cover is AB.
  EXPECT_EQ(engine.Route(q), ViewId::FromDims({0, 1}));
  const auto answer = engine.Execute(q);
  EXPECT_EQ(answer.rel,
            BruteForceView(raw, ViewId::FromDims({1}), AggFn::kSum));
}

TEST_F(QueryFixture, RouteTieBreaksOnSmallestViewId) {
  // Two covering views with EQUAL row counts: routing must deterministically
  // pick the smaller ViewId (mask), independent of hash-map iteration order.
  const std::vector<ViewId> selected{ViewId::Full(4),
                                     ViewId::FromDims({0, 3}),
                                     ViewId::FromDims({1, 3})};
  CubeResult partial = SequentialCube(raw, schema, selected);
  // Force the tie regardless of data: trim both candidates to the same
  // row count (the engine only compares sizes, not contents, when routing).
  ViewResult& a = partial.views.at(ViewId::FromDims({0, 3}));
  ViewResult& b = partial.views.at(ViewId::FromDims({1, 3}));
  const std::size_t n = std::min(a.rel.size(), b.rel.size());
  const auto trim = [&](ViewResult& vr) {
    Relation t(vr.rel.width());
    for (std::size_t r = 0; r < n; ++r) t.AppendRow(vr.rel, r);
    vr.rel = std::move(t);
  };
  trim(a);
  trim(b);

  CubeQueryEngine engine(partial);
  Query q;
  q.group_by = ViewId::FromDims({3});
  // Both AD (mask 0b1001) and BD (mask 0b1010) cover {3} with equal rows;
  // the smaller mask (AD) must win, every time.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(engine.Route(q), ViewId::FromDims({0, 3}));
  }
}

TEST_F(QueryFixture, ThrowsWhenNothingCovers) {
  const std::vector<ViewId> selected{ViewId::FromDims({0, 1})};
  const CubeResult partial = SequentialCube(raw, schema, selected);
  CubeQueryEngine engine(partial);
  Query q;
  q.group_by = ViewId::FromDims({3});
  EXPECT_THROW(engine.Route(q), SncubeError);
}

std::optional<ViewId> RouteOrNone(const auto& route) {
  try {
    return route();
  } catch (const SncubeError&) {
    return std::nullopt;
  }
}

// `sncube query` routes on a cube directory's manifest and loads only the
// routed view; that route must be the engine's route on the loaded cube for
// every group-by, with and without a filter, on a full cube and on greedy
// partial cubes.
TEST_F(QueryFixture, IndexRouteMatchesEngineRouteOnStoredCubes) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sncube_route_test_" + std::to_string(::getpid()));
  const AnalyticEstimator est(schema, static_cast<double>(raw.size()));
  std::vector<std::vector<ViewId>> selections{AllViews(4)};
  for (const int count : {1, 2, 4, 7, 11}) {
    selections.push_back(GreedySelectViews(4, count, est));
  }
  int fallbacks = 0;
  for (const auto& selected : selections) {
    std::filesystem::remove_all(dir);
    const ViewStore store(dir);
    store.SaveCube(SequentialCube(raw, schema, selected), schema);
    const CubeManifest manifest = store.LoadManifest();
    const CubeResult loaded = store.LoadCube();
    const CubeQueryEngine engine(loaded);
    for (const ViewId v : AllViews(4)) {
      for (int filter = -1; filter < 4; ++filter) {
        Query q;
        q.group_by = v;
        if (filter >= 0) q.filters = {{.dim = filter, .value = 1}};
        const auto want = RouteOrNone([&] { return engine.Route(q); });
        const auto got =
            RouteOrNone([&] { return RouteQuery(q, manifest.views).id; });
        EXPECT_EQ(got, want) << selected.size() << " views, group-by mask "
                             << v.mask() << ", filter dim " << filter;
        fallbacks += want.has_value() && want->dim_count() >
                                              v.dim_count() + (filter >= 0);
      }
    }
  }
  std::filesystem::remove_all(dir);
  EXPECT_GT(fallbacks, 0);  // the partial cubes exercised ancestor routing
}

TEST_F(QueryFixture, EmptyGroupByGivesGrandTotal) {
  CubeQueryEngine engine(cube);
  Query q;
  q.group_by = ViewId::Empty();
  const auto answer = engine.Execute(q);
  ASSERT_EQ(answer.rel.size(), 1u);
  EXPECT_EQ(answer.rel.measure(0), static_cast<Measure>(spec.rows));
}

TEST_F(QueryFixture, TopKReturnsLargestGroups) {
  CubeQueryEngine engine(cube);
  Query q;
  q.group_by = ViewId::FromDims({0});
  q.top_k = 3;
  const auto top = engine.Execute(q);
  ASSERT_EQ(top.rel.size(), 3u);
  // Descending measures.
  EXPECT_GE(top.rel.measure(0), top.rel.measure(1));
  EXPECT_GE(top.rel.measure(1), top.rel.measure(2));
  // The top measure equals the true maximum over all groups.
  q.top_k = 0;
  const auto all = engine.Execute(q);
  Measure best = all.rel.measure(0);
  for (std::size_t r = 1; r < all.rel.size(); ++r) {
    best = std::max(best, all.rel.measure(r));
  }
  EXPECT_EQ(top.rel.measure(0), best);
}

TEST_F(QueryFixture, TopKLargerThanGroupsReturnsAll) {
  CubeQueryEngine engine(cube);
  Query q;
  q.group_by = ViewId::FromDims({3});  // 3 distinct values
  q.top_k = 100;
  EXPECT_EQ(engine.Execute(q).rel.size(), 3u);
}

// Execute answers from the routed view's stored order: it gathers the kept
// rows when the group-by leads the order without the filtered dimensions,
// sorts them otherwise, and aggregates only when the view has a dimension
// neither grouped nor filtered. Over randomized queries on a full cube and
// two partial ones, for sum, min and max, every answer must equal a
// brute-force reference (filter the facts, project them, SortAndAggregate,
// top-k), and the fold of the answers pinned to the same view on every
// serving slice must equal it too, as the router assumes.
TEST(QueryProperty, ExecuteMatchesBruteForceOnEveryPath) {
  DatasetSpec spec;
  spec.rows = 3000;
  spec.cardinalities = {12, 6, 4, 3, 2};
  spec.seed = 41;
  const int d = static_cast<int>(spec.cardinalities.size());
  const Schema schema = spec.MakeSchema();
  Relation facts = GenerateDataset(spec);
  Rng rng(2024);
  for (std::size_t r = 0; r < facts.size(); ++r) {
    facts.measure(r) = static_cast<Measure>(rng.Below(2001)) - 1000;
  }
  const AnalyticEstimator est(schema, static_cast<double>(facts.size()));
  const std::vector<std::vector<ViewId>> selections{
      AllViews(d), GreedySelectViews(d, 4, est), GreedySelectViews(d, 9, est)};

  // Paths taken, judged from each routed view's stored order.
  int in_stored_order = 0;
  int out_of_order = 0;
  int filter_in_front = 0;
  int rows_repeat = 0;
  // Query shapes the paths must stay right on.
  int grouped_filter = 0;
  int twice_filtered = 0;
  int keeps_nothing = 0;
  int empty_group_by = 0;
  int top_k = 0;

  for (const auto& selected : selections) {
    for (const AggFn fn : {AggFn::kSum, AggFn::kMin, AggFn::kMax}) {
      const CubeResult cube = SequentialCube(facts, schema, selected, fn);
      const CubeQueryEngine engine(cube);
      const std::vector<CubeResult> slices = PartitionCubeForServing(cube, 3);
      for (int i = 0; i < 120; ++i) {
        Query q;
        q.fn = fn;
        q.group_by = ViewId(static_cast<std::uint32_t>(rng.Below(1u << d)));
        const int n_filters = static_cast<int>(rng.Below(3));
        for (int f = 0; f < n_filters; ++f) {
          const int dim = static_cast<int>(rng.Below(d));
          // Mostly a value some fact holds; sometimes one no fact holds.
          const Key value =
              rng.Below(5) == 0
                  ? spec.cardinalities[static_cast<std::size_t>(dim)] + 1
                  : facts.key(rng.Below(facts.size()), dim);
          q.filters.push_back({.dim = dim, .value = value});
        }
        const int ks[] = {0, 0, 0, 1, 3, 1000};
        q.top_k = ks[rng.Below(6)];

        Relation kept(facts.width());
        for (std::size_t r = 0; r < facts.size(); ++r) {
          if (std::all_of(q.filters.begin(), q.filters.end(),
                          [&](const DimFilter& f) {
                            return facts.key(r, f.dim) == f.value;
                          })) {
            kept.AppendRow(facts, r);
          }
        }
        const std::vector<int> group_dims = q.group_by.DimList();
        const Relation all = SortAndAggregate(kept, group_dims, fn);
        const Relation want = TopKByMeasure(all, q.top_k);

        const QueryAnswer got = engine.Execute(q);
        const ViewId view = got.answered_from;
        const std::string what = "view mask " + std::to_string(view.mask()) +
                                 ", group-by mask " +
                                 std::to_string(q.group_by.mask()) + ", " +
                                 std::to_string(n_filters) + " filters";
        ASSERT_EQ(view, engine.Route(q)) << what;
        ASSERT_EQ(got.rows_scanned, cube.views.at(view).rel.size()) << what;
        ASSERT_EQ(got.rel, want) << what;

        Query sub = q;
        sub.from_view = view;
        sub.top_k = 0;
        Relation folded;
        Relation next;
        for (std::size_t sl = 0; sl < slices.size(); ++sl) {
          const QueryAnswer part = CubeQueryEngine(slices[sl]).Execute(sub);
          ASSERT_EQ(part.answered_from, view) << what;
          if (sl == 0) {
            folded = part.rel;
            continue;
          }
          std::vector<int> cols(static_cast<std::size_t>(folded.width()));
          std::iota(cols.begin(), cols.end(), 0);
          MergeSortedAggregate(folded, part.rel, cols, fn, next);
          std::swap(folded, next);
        }
        ASSERT_EQ(TopKByMeasure(std::move(folded), q.top_k), want) << what;

        ViewId filtered;
        for (const auto& f : q.filters) {
          twice_filtered += filtered.Contains(f.dim);
          filtered = filtered.With(f.dim);
          grouped_filter += q.group_by.Contains(f.dim);
        }
        const std::vector<int>& order = cube.views.at(view).order;
        std::vector<int> reduced;
        for (const int dim : order) {
          if (!filtered.Contains(dim)) reduced.push_back(dim);
        }
        const auto leads = [&](const std::vector<int>& dims) {
          return group_dims.size() <= dims.size() &&
                 std::equal(group_dims.begin(), group_dims.end(),
                            dims.begin());
        };
        in_stored_order += leads(order);
        out_of_order += !leads(reduced);
        filter_in_front += leads(reduced) && !leads(order);
        rows_repeat += !view.IsSubsetOf(q.group_by.Union(filtered));
        keeps_nothing += kept.empty();
        empty_group_by += q.group_by.empty();
        top_k += want.size() < all.size();
      }
    }
  }
  EXPECT_GT(in_stored_order, 0);
  EXPECT_GT(out_of_order, 0);
  EXPECT_GT(filter_in_front, 0);
  EXPECT_GT(rows_repeat, 0);
  EXPECT_GT(grouped_filter, 0);
  EXPECT_GT(twice_filtered, 0);
  EXPECT_GT(keeps_nothing, 0);
  EXPECT_GT(empty_group_by, 0);
  EXPECT_GT(top_k, 0);
}

TEST(GreedySelect, AlwaysIncludesFullView) {
  Schema schema({16, 8, 4});
  AnalyticEstimator est(schema, 10000);
  const auto selected = GreedySelectViews(3, 1, est);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0], ViewId::Full(3));
}

TEST(GreedySelect, PicksHighBenefitViewsFirst) {
  // A dense cube: small views save the most per query and get picked early.
  Schema schema({100, 100, 100});
  AnalyticEstimator est(schema, 1000000);
  const auto selected = GreedySelectViews(3, 4, est);
  ASSERT_EQ(selected.size(), 4u);
  // After the full view, greedy picks 2-dim views (each ~10k rows vs the
  // ~630k of the full view, each covering 4 sub-views).
  for (std::size_t i = 1; i < selected.size(); ++i) {
    EXPECT_EQ(selected[i].dim_count(), 2) << "pick " << i;
  }
}

TEST(GreedySelect, CountAndUniqueness) {
  Schema schema({64, 32, 16, 8, 4});
  AnalyticEstimator est(schema, 500000);
  const auto selected = GreedySelectViews(5, 20, est);
  EXPECT_EQ(selected.size(), 20u);
  std::vector<std::uint32_t> masks;
  for (ViewId v : selected) masks.push_back(v.mask());
  std::sort(masks.begin(), masks.end());
  EXPECT_EQ(std::unique(masks.begin(), masks.end()), masks.end());
}

TEST(GreedySelect, FractionRounds) {
  Schema schema({16, 8, 4});
  AnalyticEstimator est(schema, 10000);
  EXPECT_EQ(GreedySelectFraction(3, 0.5, est).size(), 4u);
  EXPECT_EQ(GreedySelectFraction(3, 1.0, est).size(), 8u);
  EXPECT_EQ(GreedySelectFraction(3, 0.01, est).size(), 1u);
}

TEST(GreedySelect, BenefitNeverBelowMaterializingEverything) {
  // Selecting all views must drive every query cost to its own size.
  Schema schema({8, 4});
  AnalyticEstimator est(schema, 1000);
  const auto selected = GreedySelectViews(2, 4, est);
  EXPECT_EQ(selected.size(), 4u);
}

}  // namespace
}  // namespace sncube
