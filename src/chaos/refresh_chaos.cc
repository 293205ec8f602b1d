#include "chaos/refresh_chaos.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <utility>

#include "common/status.h"
#include "data/generator.h"
#include "io/disk.h"
#include "lattice/lattice.h"
#include "refresh/delta.h"
#include "refresh/refresh.h"
#include "seqcube/seq_cube.h"
#include "seqcube/view_store.h"
#include "serve/retry_policy.h"
#include "serve/router.h"
#include "serve/shard_set.h"

namespace sncube {
namespace chaos {
namespace {

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
    : opts_(opts), shards_(shards) {
  DatasetSpec spec;
  spec.rows = static_cast<std::int64_t>(opts_.rows);
  spec.cardinalities = opts_.cards;
  spec.seed = opts_.data_seed;
  schema_ = spec.MakeSchema();
  pre_cube_ =
      SequentialCube(GenerateSlice(spec, 1, 0), schema_, AllViews(schema_.dims()));

  // The delta: same schema, disjoint seed stream. The post-refresh golden
  // cube is the fault-free refresh pipeline itself — what any crash-free
  // run must install bit-for-bit.
  DatasetSpec dspec = spec;
  dspec.rows = static_cast<std::int64_t>(opts_.delta_rows);
  dspec.seed = opts_.delta_seed;
  delta_ = GenerateSlice(dspec, 1, 0);
  post_cube_ = MergeDeltaCube(
      pre_cube_,
      ComputeDeltaCube(delta_, schema_, AffectedViews(pre_cube_, delta_)));

  // Fixed stream with BOTH golden answers per request: shrink replays the
  // same traffic, only the faults change.
  WorkloadSpec wl = opts_.workload;
  wl.seed = opts_.seed * 0x9E3779B97F4A7C15ULL + 23;
  const QueryMix mix(pre_cube_, schema_, wl);
  CubeQueryEngine pre_engine(pre_cube_);
  CubeQueryEngine post_engine(post_cube_);
  Rng draw(wl.seed + 1);
  requests_.reserve(static_cast<std::size_t>(opts_.requests));
  golden_pre_.reserve(static_cast<std::size_t>(opts_.requests));
  golden_post_.reserve(static_cast<std::size_t>(opts_.requests));
  for (int i = 0; i < opts_.requests; ++i) {
    const Query q = mix.Sample(draw);
    requests_.push_back(q);
    golden_pre_.push_back(pre_engine.Execute(q).rel);
    golden_post_.push_back(post_engine.Execute(q).rel);
  }

  owns_root_ = opts_.snapshot_root.empty();
  root_ = owns_root_
              ? (std::filesystem::temp_directory_path() /
                 ("sncube_refresh_chaos_" + std::to_string(::getpid())))
                    .string()
              : opts_.snapshot_root;
  std::filesystem::create_directories(root_);
}

RefreshChaosTrial::~RefreshChaosTrial() {
  std::error_code ec;
  if (owns_root_) std::filesystem::remove_all(root_, ec);
}

std::string RefreshChaosTrial::MatchesEitherGolden(
    const CubeResult& cube) const {
  const std::string vs_pre = DiffCubes(cube, pre_cube_);
  if (vs_pre.empty()) return "";
  const std::string vs_post = DiffCubes(cube, post_cube_);
  if (vs_post.empty()) return "";
  return "vs pre: " + vs_pre + "; vs post: " + vs_post;
}

std::optional<std::string> RefreshChaosTrial::Check(const FaultPlan& plan) {
  const std::string dir =
      root_ + "/chk" + std::to_string(shards_) + "_" +
      std::to_string(next_check_id_++);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  std::optional<std::string> violation;
  std::size_t cursor = 0;

  RouterOptions ropts;
  ropts.per_try_us = 1000;
  ropts.hedge_delay_us = 400;
  ropts.max_tries = 3;
  ropts.backoff.base_us = 500;
  ropts.backoff.cap_us = 4000;
  ropts.breaker.failure_threshold = 4;
  ropts.breaker.window_us = 100000;
  ropts.breaker.cooldown_us = 2000;
  ropts.probe_every = 16;

  ShardSetOptions sopts;
  sopts.shards = shards_;
  sopts.server.workers = 2;
  // Off for determinism: virtual time only advances through the clock we
  // drive (cf. serve_chaos.cc).
  sopts.server.deadline = std::chrono::microseconds(0);
  sopts.pin_epoch = opts_.pin_epoch;

  // Drains `count` requests from the stream through `router`, holding every
  // OK answer to old-or-new. Typed failures are allowed — refresh churn may
  // retire a pinned epoch (kEpochGone → unavailable) but never corrupt.
  const auto drive = [&](Router& router, ManualServeClock& clock, int count,
                         const std::string& where) {
    for (int i = 0; i < count; ++i) {
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
    ShardSet shard_set(pre_cube_, sopts, plan);
    Router router(shard_set, ropts);

    drive(router, clock, opts_.requests_before, "pre-refresh");

    FaultInjector injector(plan, /*rank=*/0);
    RefreshOptions refresh_opts;
    refresh_opts.dir = dir;
    refresh_opts.injector = &injector;
    refresh_opts.on_phase = [&](int phase) {
      drive(router, clock, opts_.requests_per_phase,
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
      drive(router, clock,
            static_cast<int>(requests_.size() - cursor), "post-refresh");
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
      ShardSet shard_set(served, sopts);
      Router router(shard_set, ropts);
      drive(router, clock, static_cast<int>(requests_.size() - cursor),
            "post-recovery");
      shard_set.Shutdown();
    }
  }

  std::filesystem::remove_all(dir, ec);
  return violation;
}

FaultPlan RefreshChaosTrial::Shrink(const FaultPlan& plan) {
  FaultPlan cur = plan;
  const auto fails = [&](const FaultPlan& p) { return Check(p).has_value(); };

  // Phase 1: ddmin-style greedy clause removal to a fixpoint, across every
  // clause family a refresh plan can carry.
  bool changed = true;
  while (changed) {
    changed = false;
    const auto try_drop = [&](auto member) {
      if (changed) return;
      auto& vec = cur.*member;
      for (std::size_t i = 0; i < vec.size(); ++i) {
        FaultPlan cand = cur;
        auto& cand_vec = cand.*member;
        cand_vec.erase(cand_vec.begin() + static_cast<std::ptrdiff_t>(i));
        if (fails(cand)) {
          cur = std::move(cand);
          changed = true;
          return;
        }
      }
    };
    try_drop(&FaultPlan::refresh_kills);
    try_drop(&FaultPlan::shard_kills);
    try_drop(&FaultPlan::shard_slows);
    try_drop(&FaultPlan::bit_flips);
    try_drop(&FaultPlan::torn_writes);
    try_drop(&FaultPlan::disk_errors);
  }

  // Phase 2: shrink surviving serve windows (shorter, earlier), slow
  // factors, and disk-fault rates while the failure persists.
  const auto shrink_window = [&](auto member, auto set_window) {
    for (std::size_t i = 0; i < (cur.*member).size(); ++i) {
      for (;;) {
        FaultPlan cand = cur;
        auto& c = (cand.*member)[i];
        const std::uint64_t len =
            (c.until == FaultPlan::kNoEnd)
                ? static_cast<std::uint64_t>(opts_.requests) - c.from
                : c.until - c.from;
        if (len <= 1) break;
        set_window(c, c.from, c.from + len / 2);
        if (!fails(cand)) break;
        cur = std::move(cand);
      }
      while ((cur.*member)[i].from > 0) {
        FaultPlan cand = cur;
        auto& c = (cand.*member)[i];
        const std::uint64_t len =
            (c.until == FaultPlan::kNoEnd) ? 0 : c.until - c.from;
        const std::uint64_t from = c.from / 2;
        set_window(c, from,
                   c.until == FaultPlan::kNoEnd ? FaultPlan::kNoEnd
                                                : from + len);
        if (!fails(cand)) break;
        cur = std::move(cand);
      }
    }
  };
  shrink_window(&FaultPlan::shard_kills,
                [](FaultPlan::ShardKill& k, std::uint64_t f, std::uint64_t u) {
                  k.from = f;
                  k.until = u;
                });
  shrink_window(&FaultPlan::shard_slows,
                [](FaultPlan::ShardSlow& s, std::uint64_t f, std::uint64_t u) {
                  s.from = f;
                  s.until = u;
                });
  for (std::size_t i = 0; i < cur.shard_slows.size(); ++i) {
    while (cur.shard_slows[i].factor > 1.05) {
      FaultPlan cand = cur;
      cand.shard_slows[i].factor = 1.0 + (cand.shard_slows[i].factor - 1.0) / 2;
      if (!fails(cand)) break;
      cur = std::move(cand);
    }
  }
  const auto shrink_rate = [&](auto member) {
    for (std::size_t i = 0; i < (cur.*member).size(); ++i) {
      while ((cur.*member)[i].rate > 0.02) {
        FaultPlan cand = cur;
        (cand.*member)[i].rate /= 2;
        if (!fails(cand)) break;
        cur = std::move(cand);
      }
    }
  };
  shrink_rate(&FaultPlan::bit_flips);
  shrink_rate(&FaultPlan::torn_writes);
  shrink_rate(&FaultPlan::disk_errors);
  return cur;
}

ChaosReport RunRefreshChaosSearch(const RefreshChaosOptions& opts) {
  ChaosReport report;
  for (const int shards : opts.shard_counts) {
    RefreshChaosTrial trial(opts, shards);
    // Per-shard-count stream (cf. serve_chaos.cc): adding a size never
    // reshuffles the plans another size already explored.
    Rng rng(opts.seed * 0x9E3779B97F4A7C15ULL +
            static_cast<std::uint64_t>(shards) + 0x5246);
    for (int i = 0; i < opts.plans; ++i) {
      const FaultPlan plan = RandomRefreshPlan(
          rng, shards, static_cast<std::uint64_t>(opts.requests));
      ++report.trials;
      const auto reason = trial.Check(plan);
      if (opts.verbose) {
        std::fprintf(stderr, "refresh-chaos shards=%d plan %d/%d [%s]: %s\n",
                     shards, i + 1, opts.plans, plan.ToSpec().c_str(),
                     reason ? reason->c_str() : "ok");
      }
      if (reason.has_value()) {
        ChaosFailure failure;
        failure.procs = shards;
        failure.original = plan;
        failure.reason = *reason;
        failure.plan = trial.Shrink(plan);
        if (opts.verbose) {
          std::fprintf(stderr,
                       "refresh-chaos shards=%d plan %d shrunk to [%s]\n",
                       shards, i + 1, failure.plan.ToSpec().c_str());
        }
        report.failures.push_back(std::move(failure));
      }
    }
  }
  return report;
}

}  // namespace chaos
}  // namespace sncube
