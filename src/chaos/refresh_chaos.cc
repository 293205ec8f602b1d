#include "chaos/refresh_chaos.h"

#include <memory>
#include <sstream>
#include <utility>

#include "common/status.h"
#include "io/disk.h"
#include "lattice/lattice.h"
#include "refresh/delta.h"
#include "refresh/refresh.h"
#include "seqcube/seq_cube.h"
#include "seqcube/view_store.h"

namespace sncube {
namespace chaos {
namespace {

// The insert-only delta the refresh ingests: same schema, a disjoint seed
// stream, so the post-refresh cube differs from the base on most views.
constexpr std::int64_t kDeltaRows = 200;
constexpr std::uint64_t kDeltaSeed = 61;
// How a trial consumes its request stream: this many requests ahead of the
// refresh, a burst at entry to each swap phase, and the remainder after
// the refresh completes or after crash recovery.
constexpr std::size_t kRequestsBefore = 24;
constexpr std::size_t kRequestsPerPhase = 6;

// Byte-identity over full cubes: same views, same orders, same selected
// flags, same rows. "" on match, else the first divergence.
std::string DiffCubes(const CubeResult& a, const CubeResult& b) {
  if (a.views.size() != b.views.size()) {
    return "view count " + std::to_string(a.views.size()) + " vs " +
           std::to_string(b.views.size());
  }
  auto ia = a.views.begin();
  for (const auto& [id, vb] : b.views) {
    const auto& [ida, va] = *ia++;
    if (ida != id) return "view set mismatch at mask " + std::to_string(id.mask());
    if (va.order != vb.order || va.selected != vb.selected) {
      return "view " + std::to_string(id.mask()) + " metadata mismatch";
    }
    if (!(va.rel == vb.rel)) {
      return "view " + std::to_string(id.mask()) + " rows differ (" +
             std::to_string(va.rel.size()) + " vs " +
             std::to_string(vb.rel.size()) + ")";
    }
  }
  return "";
}

}  // namespace

FaultPlan RandomRefreshPlan(Rng& rng, int shards, std::uint64_t requests) {
  SNCUBE_CHECK(shards >= 1 && requests >= 1);
  FaultPlan plan;
  do {
    plan = FaultPlan{};
    // Coordinator crash at a random swap phase — drawn most often, since
    // crash+recover is the behavior under search.
    if (rng.NextDouble() < 0.6) {
      FaultPlan::RefreshKill k;
      k.phase = static_cast<int>(rng.Below(6));
      plan.refresh_kills.push_back(k);
    }
    // Rank-0 disk clauses: the coordinator is rank 0 of its injector, so
    // these strike the store's view files and MANIFEST appends.
    if (rng.NextDouble() < 0.3) {
      plan.disk_errors.push_back({0, 0.05 + 0.25 * rng.NextDouble()});
    }
    if (rng.NextDouble() < 0.3) {
      plan.bit_flips.push_back({0, 0.2 + 0.8 * rng.NextDouble()});
    }
    if (rng.NextDouble() < 0.3) {
      plan.torn_writes.push_back({0, 0.2 + 0.8 * rng.NextDouble()});
    }
    // Serve-tier churn: the swap must stay old-or-new even while shards
    // die, restart cold, and crawl.
    for (int s = 0; s < shards; ++s) {
      if (rng.NextDouble() < 0.25) {
        FaultPlan::ShardKill k;
        k.shard = s;
        k.from = rng.Below(requests);
        k.until = k.from + 1 + rng.Below(requests - k.from);
        plan.shard_kills.push_back(k);
      }
      if (rng.NextDouble() < 0.25) {
        FaultPlan::ShardSlow sl;
        sl.shard = s;
        sl.from = rng.Below(requests);
        sl.until = sl.from + 1 + rng.Below(requests - sl.from);
        sl.factor = 1.5 + 6.5 * rng.NextDouble();
        plan.shard_slows.push_back(sl);
      }
    }
  } while (plan.empty());
  plan.seed = rng.Next();
  return plan;
}

RefreshChaosTrial::RefreshChaosTrial(const RefreshChaosOptions& opts,
                                     int shards)
    : opts_(opts), shards_(shards), scratch_(opts.scratch_dir) {
  const DatasetSpec spec = TrialDataset(opts_);
  schema_ = spec.MakeSchema();
  pre_cube_ =
      SequentialCube(GenerateSlice(spec, 1, 0), schema_, AllViews(schema_.dims()));

  // The post-refresh golden cube is the fault-free refresh pipeline itself
  // — what any crash-free run must install bit-for-bit.
  DatasetSpec dspec = spec;
  dspec.rows = kDeltaRows;
  dspec.seed = kDeltaSeed;
  delta_ = GenerateSlice(dspec, 1, 0);
  post_cube_ = MergeDeltaCube(
      pre_cube_,
      ComputeDeltaCube(delta_, schema_, AffectedViews(pre_cube_, delta_)));

  // BOTH golden answers per request of the fixed stream.
  requests_ = SampleRequests(pre_cube_, schema_, opts_, 23);
  golden_pre_ = GoldenAnswers(pre_cube_, requests_);
  golden_post_ = GoldenAnswers(post_cube_, requests_);
}

std::string RefreshChaosTrial::MatchesEitherGolden(
    const CubeResult& cube) const {
  const std::string vs_pre = DiffCubes(cube, pre_cube_);
  if (vs_pre.empty()) return "";
  const std::string vs_post = DiffCubes(cube, post_cube_);
  if (vs_post.empty()) return "";
  return "vs pre: " + vs_pre + "; vs post: " + vs_post;
}

Verdict RefreshChaosTrial::Check(const FaultPlan& plan) {
  const std::string dir = scratch_.NextDir();
  Verdict violation;
  std::size_t cursor = 0;
  const RouterOptions ropts = TrialRouterOptions();
  const auto shard_set_options = [&](ManualServeClock& clock) {
    ShardSetOptions sopts = TrialShardSetOptions(shards_, clock);
    sopts.pin_epoch = opts_.pin_epoch;
    return sopts;
  };

  // Drains up to `count` requests from the stream through `router`, holding
  // every OK answer to old-or-new. Typed failures are allowed — refresh
  // churn may retire a pinned epoch (kEpochGone → unavailable) but never
  // corrupt.
  const auto drive = [&](Router& router, ManualServeClock& clock,
                         std::size_t count, const std::string& where) {
    for (std::size_t i = 0; i < count; ++i) {
      if (violation.has_value() || cursor >= requests_.size()) return;
      clock.Advance(200);
      const std::size_t qi = cursor++;
      const RouterResult r = router.Execute(requests_[qi]);
      if (r.outcome != RouterOutcome::kOk) continue;
      if (r.answer == nullptr) {
        violation = "request " + std::to_string(qi) + " (" + where +
                    ") reported ok with no answer";
        return;
      }
      if (!(r.answer->rel == golden_pre_[qi]) &&
          !(r.answer->rel == golden_post_[qi])) {
        std::ostringstream os;
        os << "request " << qi << " (" << where << ", epoch " << r.epoch
           << ", " << (r.scatter ? "scatter" : "point")
           << ") returned a BLEND: " << r.answer->rel.size()
           << " rows match neither pre-refresh golden ("
           << golden_pre_[qi].size() << " rows) nor post-refresh golden ("
           << golden_post_[qi].size() << " rows)";
        violation = os.str();
      }
    }
  };

  bool crashed = false;
  {
    ManualServeClock clock;
    ShardSet shard_set(pre_cube_, shard_set_options(clock), plan);
    Router router(shard_set, ropts);

    drive(router, clock, kRequestsBefore, "pre-refresh");

    FaultInjector injector(plan, /*rank=*/0);
    RefreshOptions refresh_opts;
    refresh_opts.dir = dir;
    refresh_opts.injector = &injector;
    refresh_opts.on_phase = [&](int phase) {
      drive(router, clock, kRequestsPerPhase,
            "swap phase " + std::to_string(phase));
    };
    RefreshCoordinator coordinator(
        shard_set,
        std::shared_ptr<const CubeResult>(&pre_cube_,
                                          [](const CubeResult*) {}),
        schema_, std::move(refresh_opts));
    try {
      coordinator.Refresh(delta_);
    } catch (const InjectedFaultError&) {
      crashed = true;  // refreshkill: the simulated coordinator crash
    } catch (const SncubeIoError&) {
      crashed = true;  // diskerr escalation: a store write never landed
    }

    if (!crashed && !violation.has_value()) {
      // The installed cube must BE the post-refresh golden, and post-swap
      // traffic must keep answering old-or-new while old pins drain.
      const std::string diff = DiffCubes(
          AssembleServingCube(*shard_set.Slices(shard_set.serving_epoch())),
          post_cube_);
      if (!diff.empty()) {
        violation = "completed refresh installed a cube differing from the "
                    "post-refresh golden: " + diff;
      }
      drive(router, clock, requests_.size(), "post-refresh");
    }
    shard_set.Shutdown();
  }

  if (crashed && !violation.has_value()) {
    // Simulated process restart: recover from the store alone; a store
    // with no committed (or no intact) epoch falls back to the pre-refresh
    // base cube, exactly like a restarted server would.
    DiskModel recovery_disk;
    const RecoveredEpoch rec = ViewStore(dir, &recovery_disk).Recover();
    const CubeResult& served = rec.has_cube ? rec.cube : pre_cube_;
    const std::string mismatch = MatchesEitherGolden(served);
    if (!mismatch.empty()) {
      violation = "recovered cube (epoch " + std::to_string(rec.epoch) +
                  ", has_cube=" + (rec.has_cube ? "1" : "0") +
                  ") is a BLEND — " + mismatch;
    } else {
      // The remaining stream replays against the recovered state on a
      // fresh, fault-free serving tier (the plan's windows died with the
      // crashed process).
      ManualServeClock clock;
      ShardSet shard_set(served, shard_set_options(clock));
      Router router(shard_set, ropts);
      drive(router, clock, requests_.size(), "post-recovery");
      shard_set.Shutdown();
    }
  }

  ScratchRoot::Remove(dir);
  return violation;
}

ChaosReport RunRefreshChaosSearch(const RefreshChaosOptions& opts) {
  const auto horizon = static_cast<std::uint64_t>(opts.requests);
  return RunChaosSearch<RefreshChaosTrial>(
      opts, opts.shard_counts,
      {.label = "refresh-chaos shards",
       .salt = 0x5246,
       .horizon = horizon,
       .draw = [horizon](Rng& rng, int shards) {
         return RandomRefreshPlan(rng, shards, horizon);
       }});
}

}  // namespace chaos
}  // namespace sncube
