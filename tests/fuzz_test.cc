// Randomized fuzz suites: seeded random inputs swept through the public
// APIs with the invariants checked on every draw. Complements the
// handcrafted unit tests (exact scenarios) and the parameterized property
// tests (structured grids) with unstructured coverage.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "common/rng.h"
#include "common/status.h"
#include "data/generator.h"
#include "lattice/lattice.h"
#include "net/fault.h"
#include "net/wire.h"
#include "query/engine.h"
#include "refresh/delta.h"
#include "schedule/partial.h"
#include "schedule/pipesort.h"
#include "schedule/schedule_tree.h"
#include "relation/aggregate.h"
#include "seqcube/seq_cube.h"
#include "seqcube/view_frame.h"

namespace sncube {
namespace {

// ---------------------------------------------------------------------------
// Partial-cube scheduler fuzz: any random selection within a partition must
// produce a valid tree containing every selected view.

class PartialTreeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PartialTreeFuzz, RandomSelectionsYieldValidTrees) {
  Rng rng(4000 + static_cast<std::uint64_t>(GetParam()));
  const int d = 3 + static_cast<int>(rng.Below(4));  // 3..6 dims
  std::vector<std::uint32_t> cards;
  for (int i = 0; i < d; ++i) {
    cards.push_back(4u << rng.Below(5));
  }
  const Schema schema(cards);
  const AnalyticEstimator est(schema, 100000);

  // Random subset of the lattice (each view kept with probability ~40%),
  // never empty.
  std::vector<ViewId> selected;
  for (ViewId v : AllViews(d)) {
    if (rng.Below(10) < 4) selected.push_back(v);
  }
  if (selected.empty()) selected.push_back(ViewId::Full(d));

  for (const auto& partition : PartitionViews(selected, d)) {
    if (partition.empty()) continue;
    const ViewId root = PartitionRoot(partition);
    for (auto strategy : {PartialStrategy::kPrunedPipesort,
                          PartialStrategy::kGreedyLattice}) {
      const ScheduleTree tree =
          BuildPartialTree(partition, root, root.DimList(), est, strategy);
      tree.Validate();
      // Every selected view present and flagged; every auxiliary flagged.
      std::set<std::uint32_t> wanted;
      for (ViewId v : partition) wanted.insert(v.mask());
      int found = 0;
      for (int i = 0; i < tree.size(); ++i) {
        const bool is_wanted = wanted.contains(tree.node(i).view.mask());
        EXPECT_EQ(tree.node(i).selected, is_wanted);
        found += is_wanted ? 1 : 0;
      }
      EXPECT_EQ(found, static_cast<int>(partition.size()));
      // The cost estimate is finite and positive for non-trivial trees.
      if (tree.size() > 1) {
        EXPECT_GT(tree.EstimatedCost(), 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartialTreeFuzz, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Pipesort fuzz: the tree's estimated cost never exceeds the all-sort tree
// for any cardinality mix, and orders stay consistent.

class PipesortFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PipesortFuzz, NeverWorseThanAllSort) {
  Rng rng(5000 + static_cast<std::uint64_t>(GetParam()));
  const int d = 4 + static_cast<int>(rng.Below(4));  // 4..7 dims
  std::vector<std::uint32_t> cards;
  for (int i = 0; i < d; ++i) cards.push_back(2u + static_cast<std::uint32_t>(rng.Below(300)));
  const Schema schema(cards);
  const AnalyticEstimator est(schema, 1 + rng.Below(3000000));

  const auto parts = PartitionViews(AllViews(d), d);
  for (const auto& part : parts) {
    const ViewId root = PartitionRoot(part);
    const ScheduleTree tree =
        BuildPipesortTree(part, root, root.DimList(), est);
    tree.Validate();
    double all_sort = 0;
    for (int i = 1; i < tree.size(); ++i) {
      all_sort += SortCost(tree.node(tree.node(i).parent).est_rows);
    }
    EXPECT_LE(tree.EstimatedCost(), all_sort + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipesortFuzz, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Query engine fuzz: random group-bys and filters against brute force.

class QueryFuzz : public ::testing::TestWithParam<int> {};

TEST_P(QueryFuzz, RandomQueriesMatchBruteForce) {
  Rng rng(6000 + static_cast<std::uint64_t>(GetParam()));
  DatasetSpec spec;
  spec.rows = 1500 + static_cast<std::int64_t>(rng.Below(1500));
  spec.cardinalities = {static_cast<std::uint32_t>(4 + rng.Below(20)),
                        static_cast<std::uint32_t>(3 + rng.Below(10)),
                        static_cast<std::uint32_t>(2 + rng.Below(6)),
                        static_cast<std::uint32_t>(2 + rng.Below(4))};
  spec.alphas = {rng.NextDouble() * 2, 0, 0, 0};
  spec.seed = 6100 + static_cast<std::uint64_t>(GetParam());
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  const CubeResult cube = SequentialCube(raw, schema, AllViews(4));
  const CubeQueryEngine engine(cube);

  for (int trial = 0; trial < 8; ++trial) {
    Query q;
    q.group_by = ViewId(static_cast<std::uint32_t>(rng.Below(16)));
    // Random filter on a dimension outside the group-by (when possible).
    Relation filtered(raw.width());
    const int fdim = static_cast<int>(rng.Below(4));
    const bool use_filter = !q.group_by.Contains(fdim) && rng.Below(2) == 0;
    if (use_filter) {
      const Key value = static_cast<Key>(rng.Below(schema.cardinality(fdim)));
      q.filters = {{fdim, value}};
      for (std::size_t r = 0; r < raw.size(); ++r) {
        if (raw.key(r, fdim) == value) filtered.AppendRow(raw, r);
      }
    }
    const Relation& source = use_filter ? filtered : raw;
    const auto answer = engine.Execute(q);
    EXPECT_EQ(answer.rel, BruteForceView(source, q.group_by, AggFn::kSum))
        << "trial " << trial << " mask=" << q.group_by.mask();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzz, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Deserialization fuzz: truncated, bit-flipped, and garbage byte buffers fed
// to every wire-format parser must either parse (mutations can cancel out)
// or throw a typed SncubeError — never crash, loop, or read out of bounds.

class CorruptionFuzz : public ::testing::TestWithParam<int> {};

ByteBuffer Mutate(Rng& rng, ByteBuffer b) {
  switch (rng.Below(3)) {
    case 0:  // truncate
      b.resize(rng.Below(b.size() + 1));
      break;
    case 1:  // flip bits in one byte
      if (!b.empty()) {
        b[rng.Below(b.size())] ^= static_cast<std::byte>(1 + rng.Below(255));
      }
      break;
    default:  // append garbage
      for (std::size_t i = 1 + rng.Below(16); i > 0; --i) {
        b.push_back(static_cast<std::byte>(rng.Below(256)));
      }
      break;
  }
  return b;
}

// The refresh's read path on a possibly damaged frame: MergeDeltaFrame
// throws a typed error wherever DecodeViewFrame does, and otherwise writes
// exactly the frame of the decoded view merged with `delta` — or refuses a
// frame whose recorded widths are not its columns' bit widths (no writer
// makes one, and the merge keeps the recorded widths).
void ExpectMergeMatchesDecodePath(const ByteBuffer& frame,
                                  const CubeResult& delta) {
  std::optional<ViewFrame> decoded;
  try {
    decoded = DecodeViewFrame(frame);
  } catch (const SncubeError&) {
  }
  std::optional<ByteBuffer> merged;
  try {
    merged = MergeDeltaFrame(frame, delta, 5);
  } catch (const SncubeError&) {
  }
  if (!decoded.has_value()) {
    EXPECT_FALSE(merged.has_value());
    return;
  }
  if (!merged.has_value()) {
    EXPECT_NE(FrameCursor(EncodeViewFrame(decoded->view, 0)).header().widths,
              FrameCursor(frame).header().widths);
    return;
  }
  ViewResult want;
  MergeDeltaView(decoded->view, delta, AggFn::kSum, want);
  EXPECT_EQ(*merged, EncodeViewFrame(want, 5));
}

TEST_P(CorruptionFuzz, MutatedBuffersThrowTypedErrors) {
  Rng rng(7000 + static_cast<std::uint64_t>(GetParam()));

  // A genuine schedule-tree buffer to mutate.
  const Schema schema({16, 8, 4, 3});
  const AnalyticEstimator est(schema, 50000);
  const auto parts = PartitionViews(AllViews(4), 4);
  const ViewId root = PartitionRoot(parts[0]);
  const ByteBuffer tree_bytes =
      BuildPipesortTree(parts[0], root, root.DimList(), est).Serialize();

  // A genuine row payload to mutate.
  Relation rel(3);
  for (int i = 0; i < 40; ++i) {
    rel.Append(std::vector<Key>{static_cast<Key>(rng.Below(100)),
                                static_cast<Key>(rng.Below(50)),
                                static_cast<Key>(rng.Below(10))},
               static_cast<Measure>(rng.Below(1000)));
  }
  const ByteBuffer row_bytes = SerializeRelation(rel);

  // Genuine view frames to mutate: `rel` aggregated into view {0, 1, 2}
  // (a 17-bit key), and rows of three full 32-bit columns (a 96-bit key
  // in two words).
  const std::vector<int> cols = {0, 1, 2};
  ViewResult view{ViewId::FromDims(cols), cols,
                  SortAndAggregate(rel, cols, AggFn::kSum)};
  const ByteBuffer narrow_frame = EncodeViewFrame(view, 1);
  Relation wide(3);
  for (int i = 0; i < 40; ++i) {
    wide.Append(std::vector<Key>{static_cast<Key>(rng.Next()),
                                 static_cast<Key>(rng.Next()),
                                 static_cast<Key>(rng.Next())},
                static_cast<Measure>(rng.Next()));
  }
  view.rel = SortAndAggregate(wide, cols, AggFn::kMax);
  const ByteBuffer wide_frame = EncodeViewFrame(view, 2);

  // A small delta view for the merge, in another sort order: three groups
  // of `rel` again and two new ones, one of which widens column 0 of the
  // narrow frame.
  Relation delta_rows(3);
  for (std::size_t r = 0; r < 3; ++r) delta_rows.AppendRow(rel, r);
  delta_rows.Append(std::vector<Key>{150, 7, 2}, -4);
  delta_rows.Append(std::vector<Key>{3, 49, 9}, 11);
  const std::vector<int> delta_order = {2, 0, 1};
  CubeResult delta;
  delta.views[view.id] = {view.id, delta_order,
                          SortAndAggregate(delta_rows, delta_order,
                                           AggFn::kSum)};
  for (const ByteBuffer* frame : {&narrow_frame, &wide_frame}) {
    ExpectMergeMatchesDecodePath(*frame, delta);
  }

  for (int trial = 0; trial < 60; ++trial) {
    try {
      ScheduleTree::Deserialize(Mutate(rng, tree_bytes));
    } catch (const SncubeError&) {
      // Typed rejection is the contract; silence is a lucky benign mutation.
    }
    try {
      Relation out(3);
      DeserializeRows(Mutate(rng, row_bytes), out);
    } catch (const SncubeError&) {
    }
    for (const ByteBuffer* frame : {&narrow_frame, &wide_frame}) {
      ExpectMergeMatchesDecodePath(Mutate(rng, *frame), delta);
    }
    // Pure garbage through the raw wire primitives.
    ByteBuffer garbage;
    for (std::size_t i = rng.Below(64); i > 0; --i) {
      garbage.push_back(static_cast<std::byte>(rng.Below(256)));
    }
    try {
      WireReader r(garbage);
      while (!r.AtEnd()) {
        switch (rng.Below(4)) {
          case 0: r.Get<std::uint64_t>(); break;
          case 1: r.GetVector<std::uint32_t>(); break;
          case 2: r.GetBytes(1 + rng.Below(128)); break;
          default: r.Get<std::uint8_t>(); break;
        }
      }
    } catch (const SncubeError&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionFuzz, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// FaultPlan::Parse fuzz: (1) property — every plan the generator builds from
// in-range values round-trips through ToSpec/Parse; (2) robustness — random
// clause soup either parses to an in-invariant plan or throws a typed
// SncubeError, never crashes or accepts out-of-range values.

class FaultPlanFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FaultPlanFuzz, WellFormedPlansRoundTripThroughToSpec) {
  Rng rng(8000 + static_cast<std::uint64_t>(GetParam()));
  FaultPlan plan;
  plan.seed = rng.Next();
  // Distinct ranks per clause kind (the duplicate rule is per kind).
  for (int rank = 0; rank < 6; ++rank) {
    if (rng.Below(2)) plan.kills.push_back({rank, rng.Below(40)});
    if (rng.Below(2)) {
      plan.stragglers.push_back({rank, 1.0 + rng.NextDouble() * 7});
    }
    if (rng.Below(2)) plan.disk_errors.push_back({rank, rng.NextDouble()});
    if (rng.Below(2)) plan.bit_flips.push_back({rank, rng.NextDouble()});
    if (rng.Below(2)) plan.torn_writes.push_back({rank, rng.NextDouble()});
    // The duplicate rule for refreshkill is per phase; reuse the loop index.
    if (rng.Below(2)) plan.refresh_kills.push_back({rank});
  }
  const std::string spec = plan.ToSpec();
  const FaultPlan reparsed = FaultPlan::Parse(spec);
  EXPECT_EQ(reparsed.ToSpec(), spec);
  EXPECT_EQ(reparsed.kills.size(), plan.kills.size());
  EXPECT_EQ(reparsed.stragglers.size(), plan.stragglers.size());
  EXPECT_EQ(reparsed.disk_errors.size(), plan.disk_errors.size());
  EXPECT_EQ(reparsed.bit_flips.size(), plan.bit_flips.size());
  EXPECT_EQ(reparsed.torn_writes.size(), plan.torn_writes.size());
  EXPECT_EQ(reparsed.refresh_kills.size(), plan.refresh_kills.size());
  EXPECT_EQ(reparsed.seed, plan.seed);
}

TEST_P(FaultPlanFuzz, RandomSpecSoupNeverYieldsAnOutOfRangePlan) {
  Rng rng(8100 + static_cast<std::uint64_t>(GetParam()));
  const char* kinds[] = {"kill",      "slow", "diskerr",     "bitflip",
                         "tornwrite", "seed", "refreshkill", "junk", ""};
  const char* values[] = {"0",    "1",   "0.5", "1.5",  "-1", "2.0",
                          "3",    "nan", "inf", "1e99", "x",  "0.5junk",
                          "18446744073709551615", ""};
  const char seps[] = {'@', 'x', ':', '?'};
  for (int trial = 0; trial < 200; ++trial) {
    std::string spec;
    for (std::size_t c = rng.Below(5); c > 0; --c) {
      if (!spec.empty()) spec += ';';
      spec += kinds[rng.Below(9)];
      if (rng.Below(4) != 0) {
        spec += ':';
        spec += std::to_string(rng.Below(9));
        spec += seps[rng.Below(4)];
        spec += values[rng.Below(14)];
      }
    }
    try {
      const FaultPlan plan = FaultPlan::Parse(spec);
      for (const auto& s : plan.stragglers) EXPECT_GE(s.factor, 1.0) << spec;
      for (const auto& de : plan.disk_errors) {
        EXPECT_GE(de.rate, 0.0) << spec;
        EXPECT_LE(de.rate, 1.0) << spec;
      }
      for (const auto& bf : plan.bit_flips) {
        EXPECT_GE(bf.rate, 0.0) << spec;
        EXPECT_LE(bf.rate, 1.0) << spec;
      }
      for (const auto& tw : plan.torn_writes) {
        EXPECT_GE(tw.rate, 0.0) << spec;
        EXPECT_LE(tw.rate, 1.0) << spec;
      }
      for (const auto& rk : plan.refresh_kills) {
        EXPECT_GE(rk.phase, 0) << spec;
      }
      // What parsed must round-trip: Parse(ToSpec(p)) is total on Parse's
      // own output.
      FaultPlan::Parse(plan.ToSpec());
    } catch (const SncubeError&) {
      // Typed rejection is the other allowed outcome.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultPlanFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace sncube
