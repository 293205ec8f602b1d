// Chaos search tests: the one shrinker reaches every family's floor on a
// synthetic predicate; each tier's smoke search upholds its invariant on the
// hardened code; plan generation is deterministic; and against the serving
// tiers' deliberately re-opened holes (pin_scatter_view, pin_epoch set
// false) the search finds the bug and shrinks it to a minimal plan.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "chaos/explorer.h"
#include "chaos/refresh_chaos.h"
#include "chaos/search.h"
#include "chaos/serve_chaos.h"
#include "common/rng.h"

namespace sncube {
namespace {

// A synthetic bug that needs a kill of rank 1 at superstep >= 3, a
// straggler of factor >= 1.5, any torn write, shard 0 down at request 50,
// shard 0 slowed by >= 2x over a window of >= 4 requests, and a
// coordinator crash at phase 4. Every other clause is irrelevant.
chaos::Verdict SyntheticBug(const FaultPlan& p) {
  bool kill = false, slow = false, shardkill = false, shardslow = false,
       refreshkill = false;
  for (const auto& k : p.kills) kill |= k.rank == 1 && k.at_superstep >= 3;
  for (const auto& s : p.stragglers) slow |= s.factor >= 1.5;
  for (const auto& k : p.shard_kills) {
    shardkill |= k.shard == 0 && k.from <= 50 && 50 < k.until;
  }
  for (const auto& s : p.shard_slows) {
    shardslow |= s.shard == 0 && s.until - s.from >= 4 && s.factor >= 2;
  }
  for (const auto& k : p.refresh_kills) refreshkill |= k.phase == 4;
  if (kill && slow && !p.torn_writes.empty() && shardkill && shardslow &&
      refreshkill) {
    return "bug";
  }
  return std::nullopt;
}

TEST(ChaosShrink, EveryFamilyShrinksToItsFloor) {
  const FaultPlan plan = FaultPlan::Parse(
      "kill:0@20;kill:1@12;slow:0x4;slow:1x2;diskerr:0:0.3;bitflip:0:0.6;"
      "tornwrite:1:0.2;shardkill:0:40;shardkill:1:10-20;"
      "shardslow:0:60-100:8;shardslow:1:5-9:3;refreshkill:2;refreshkill:4;"
      "seed:7");
  ASSERT_TRUE(SyntheticBug(plan).has_value());
  // Irrelevant clauses go; the kill halves 12 -> 6 -> 3; the straggler's
  // excess over 1 halves to 1.5; the torn-write rate halves to the 1e-4
  // floor; the endless shardkill window is cut at the horizon (100) and
  // halved to [40, 55); the shardslow window halves to length 5, its start
  // moves to 0 and its factor halves to 2.75; the refresh kill stays.
  const FaultPlan minimal = chaos::ShrinkPlan(plan, 100, SyntheticBug);
  EXPECT_EQ(minimal.ToSpec(),
            "kill:1@3;slow:1x1.5;tornwrite:1:9.765625e-05;"
            "shardkill:0:40-55;shardslow:0:0-5:2.75;refreshkill:4;seed:7");
}

TEST(ChaosShrink, DropsFamiliesInDeclarationOrder) {
  // Either clause alone reproduces. The earlier family (disk_errors, before
  // shard_kills in FaultPlan and ToSpec) is tried first and goes. (The
  // window is already at its floor, so phase 2 leaves it.)
  const auto either = [](const FaultPlan& p) -> chaos::Verdict {
    if (p.disk_errors.empty() && p.shard_kills.empty()) return std::nullopt;
    return "bug";
  };
  const FaultPlan minimal = chaos::ShrinkPlan(
      FaultPlan::Parse("diskerr:0:0.5;shardkill:1:0-1;seed:1"), 10, either);
  EXPECT_EQ(minimal.ToSpec(), "shardkill:1:0-1;seed:1");
}

TEST(Chaos, RandomPlansAreDeterministicAndNeverEmpty) {
  Rng a(99), b(99);
  for (int i = 0; i < 32; ++i) {
    const FaultPlan pa = chaos::RandomPlan(a, 4);
    const FaultPlan pb = chaos::RandomPlan(b, 4);
    EXPECT_EQ(pa.ToSpec(), pb.ToSpec());
    EXPECT_FALSE(pa.empty());
    // Every generated plan round-trips through the spec grammar.
    EXPECT_EQ(FaultPlan::Parse(pa.ToSpec()).ToSpec(), pa.ToSpec());
    // A build writes nothing that bit flips or torn writes could strike.
    EXPECT_TRUE(pa.bit_flips.empty() && pa.torn_writes.empty());
  }
}

TEST(Chaos, SmokeSearchFindsNoIntegrityViolations) {
  chaos::ChaosOptions opts;
  opts.plans = 8;
  opts.seed = 11;
  opts.procs = {2, 4};
  opts.rows = 400;
  const chaos::ChaosReport report = chaos::RunBuildChaosSearch(opts);
  EXPECT_EQ(report.trials, 16);
  EXPECT_TRUE(report.ok()) << report.ToJson();
  EXPECT_NE(report.ToJson().find("\"failures\":[]"), std::string::npos);
}

std::size_t ServeClauseCount(const FaultPlan& plan) {
  return plan.shard_kills.size() + plan.shard_slows.size();
}

TEST(ServeChaos, RandomServePlansAreDeterministicAndRoundTrip) {
  Rng a(7), b(7);
  for (int i = 0; i < 32; ++i) {
    const FaultPlan pa = chaos::RandomServePlan(a, 4, 200);
    const FaultPlan pb = chaos::RandomServePlan(b, 4, 200);
    EXPECT_EQ(pa.ToSpec(), pb.ToSpec());
    EXPECT_FALSE(pa.empty());
    EXPECT_EQ(FaultPlan::Parse(pa.ToSpec()).ToSpec(), pa.ToSpec());
    for (const auto& k : pa.shard_kills) {
      EXPECT_GE(k.shard, 0);
      EXPECT_LT(k.shard, 4);
      EXPECT_LT(k.from, 200u);
      if (k.until != FaultPlan::kNoEnd) {
        EXPECT_GT(k.until, k.from);
      }
    }
    for (const auto& s : pa.shard_slows) {
      EXPECT_GE(s.factor, 1.5);
      EXPECT_GT(s.until, s.from);
    }
  }
}

TEST(ServeChaos, SmokeSearchFindsNoWrongAnswers) {
  // The serving-tier invariant under randomized kill/slow plans: every OK
  // response bit-equals the golden single-node answer; everything else is a
  // typed error or shed load. No wrong answers, ever.
  chaos::ServeChaosOptions opts;
  opts.plans = 3;
  opts.seed = 5;
  opts.shard_counts = {2, 3};
  opts.rows = 400;
  opts.requests = 80;
  const chaos::ChaosReport report = chaos::RunServeChaosSearch(opts);
  EXPECT_EQ(report.trials, 6);
  EXPECT_TRUE(report.ok()) << report.ToJson();
}

TEST(ServeChaos, UnpinnedScatterIsCaughtAsWrongAnswer) {
  // pin_scatter_view=false re-opens the scatter composition bug: slices
  // route sub-queries independently, and two slices answering the same
  // rollup from DIFFERENT materialized views drop or double-count facts.
  // The harness must catch that as a wrong answer — proving both that the
  // invariant check has teeth and that the from_view pin is load-bearing.
  chaos::ServeChaosOptions opts;
  opts.pin_scatter_view = false;
  // Sparse views are what make local routing diverge: with cardinalities
  // near the row count, a slice can hold fewer rows of a SUPERSET view than
  // of the exact view (hash imbalance over sparse groups), so its local
  // router picks a different view than its siblings and the merged rollup
  // drops or double-counts facts. Dense views never invert that order,
  // which is exactly why this bug survives small smoke tests.
  opts.rows = 200;
  opts.cards = {40, 30, 20};
  opts.requests = 100;
  opts.workload.alpha = 0.0;  // uniform: every pooled rollup gets sampled
  opts.plans = 6;
  opts.seed = 3;
  opts.shard_counts = {4};
  const chaos::ChaosReport report = chaos::RunServeChaosSearch(opts);
  ASSERT_FALSE(report.ok()) << "unpinned scatter produced no wrong answer";
  EXPECT_NE(report.failures[0].reason.find("WRONG"), std::string::npos);
  // The shrunk reproducer is still a valid, replayable spec.
  const FaultPlan& minimal = report.failures[0].plan;
  EXPECT_EQ(FaultPlan::Parse(minimal.ToSpec()).ToSpec(), minimal.ToSpec());
  EXPECT_LE(ServeClauseCount(minimal), ServeClauseCount(report.failures[0].original));
  // Every one of the six failing plans shrinks to no clause at all: the bug
  // needs no fault.
  ASSERT_EQ(report.failures.size(), 6u);
  for (const chaos::ChaosFailure& f : report.failures) {
    EXPECT_EQ(f.plan.ToSpec(), "seed:" + std::to_string(f.original.seed));
  }

  // The identical search with the pin in place is clean.
  chaos::ServeChaosOptions pinned = opts;
  pinned.pin_scatter_view = true;
  EXPECT_TRUE(chaos::RunServeChaosSearch(pinned).ok());
}

std::size_t RefreshClauseCount(const FaultPlan& plan) {
  return plan.refresh_kills.size() + plan.shard_kills.size() +
         plan.shard_slows.size() + plan.disk_errors.size() +
         plan.bit_flips.size() + plan.torn_writes.size();
}

TEST(RefreshChaos, RandomRefreshPlansAreDeterministicAndRoundTrip) {
  Rng a(13), b(13);
  for (int i = 0; i < 32; ++i) {
    const FaultPlan pa = chaos::RandomRefreshPlan(a, 4, 120);
    const FaultPlan pb = chaos::RandomRefreshPlan(b, 4, 120);
    EXPECT_EQ(pa.ToSpec(), pb.ToSpec());
    EXPECT_FALSE(pa.empty());
    EXPECT_EQ(FaultPlan::Parse(pa.ToSpec()).ToSpec(), pa.ToSpec());
    for (const auto& k : pa.refresh_kills) {
      EXPECT_GE(k.phase, 0);
      EXPECT_LE(k.phase, 5);
    }
  }
}

TEST(RefreshChaos, SmokeSearchFindsNoBlends) {
  // The refresh invariant under randomized coordinator kills, store
  // corruption, and shard churn: every OK response — before, during, after
  // the swap, and after crash recovery — is byte-identical to the pre- or
  // post-refresh golden. Old or new, never a blend.
  chaos::RefreshChaosOptions opts;
  opts.plans = 8;
  opts.seed = 21;
  opts.shard_counts = {2, 4};
  opts.rows = 400;
  opts.requests = 100;
  const chaos::ChaosReport report = chaos::RunRefreshChaosSearch(opts);
  EXPECT_EQ(report.trials, 16);
  EXPECT_TRUE(report.ok()) << report.ToJson();
}

TEST(RefreshChaos, UnpinnedEpochBlendIsCaughtAndShrunk) {
  // pin_epoch=false re-opens the naive single-phase swap: mid-commit-loop
  // each shard answers from whatever epoch it last adopted, so a scatter
  // straddling the commit frontier mixes two epochs. The harness must
  // catch that as a blend and shrink the plan — proving the invariant check
  // has teeth and that end-to-end epoch pinning is load-bearing.
  chaos::RefreshChaosOptions opts;
  opts.pin_epoch = false;
  opts.plans = 6;
  opts.seed = 9;
  opts.shard_counts = {2};
  opts.rows = 400;
  opts.requests = 100;
  opts.workload.alpha = 0.0;  // uniform: scatters get sampled mid-swap
  const chaos::ChaosReport report = chaos::RunRefreshChaosSearch(opts);
  ASSERT_FALSE(report.ok()) << "unpinned epochs produced no blend";
  EXPECT_NE(report.failures[0].reason.find("BLEND"), std::string::npos)
      << report.failures[0].reason;
  const FaultPlan& minimal = report.failures[0].plan;
  // The shrunk reproducer round-trips and is no bigger than the original —
  // the bug lives in the swap itself, so ddmin strips the fault clauses
  // down to (near) nothing.
  EXPECT_EQ(FaultPlan::Parse(minimal.ToSpec()).ToSpec(), minimal.ToSpec());
  EXPECT_LE(RefreshClauseCount(minimal),
            RefreshClauseCount(report.failures[0].original));
  ASSERT_EQ(report.failures.size(), 2u);
  for (const chaos::ChaosFailure& f : report.failures) {
    EXPECT_EQ(f.plan.ToSpec(), "seed:" + std::to_string(f.original.seed));
  }

  // The identical search with epoch pinning in place is clean.
  chaos::RefreshChaosOptions pinned = opts;
  pinned.pin_epoch = true;
  EXPECT_TRUE(chaos::RunRefreshChaosSearch(pinned).ok());
}

}  // namespace
}  // namespace sncube
