#include "chaos/serve_chaos.h"

#include <chrono>
#include <sstream>

#include "common/status.h"
#include "lattice/lattice.h"
#include "seqcube/seq_cube.h"

namespace sncube {
namespace chaos {

ShardSetOptions TrialShardSetOptions(int shards, ServeClock& clock) {
  ShardSetOptions sopts;
  sopts.shards = shards;
  sopts.clock = &clock;
  sopts.server.workers = kTrialWorkers;
  sopts.server.deadline = std::chrono::microseconds(0);
  return sopts;
}

RouterOptions TrialRouterOptions() {
  RouterOptions ropts;
  ropts.per_try_us = 1000;       // trips when slowdown > ~6x nominal
  ropts.hedge_delay_us = 400;    // hedges on mildly slow tries
  ropts.max_tries = 3;
  ropts.backoff.base_us = 500;
  ropts.backoff.cap_us = 4000;
  ropts.breaker.failure_threshold = 4;
  ropts.breaker.window_us = 100000;
  ropts.breaker.cooldown_us = 2000;
  ropts.probe_every = 16;
  return ropts;
}

std::vector<Query> SampleRequests(const CubeResult& cube, const Schema& schema,
                                  const ServingSearchOptions& opts,
                                  std::uint64_t salt) {
  WorkloadSpec wl = opts.workload;
  wl.seed = opts.seed * 0x9E3779B97F4A7C15ULL + salt;
  const QueryMix mix(cube, schema, wl);
  Rng draw(wl.seed + 1);
  std::vector<Query> requests;
  requests.reserve(static_cast<std::size_t>(opts.requests));
  for (int i = 0; i < opts.requests; ++i) requests.push_back(mix.Sample(draw));
  return requests;
}

std::vector<Relation> GoldenAnswers(const CubeResult& cube,
                                    const std::vector<Query>& requests) {
  const CubeQueryEngine engine(cube);
  std::vector<Relation> answers;
  answers.reserve(requests.size());
  for (const Query& q : requests) answers.push_back(engine.Execute(q).rel);
  return answers;
}

FaultPlan RandomServePlan(Rng& rng, int shards, std::uint64_t requests) {
  SNCUBE_CHECK(shards >= 1 && requests >= 1);
  FaultPlan plan;
  do {
    plan = FaultPlan{};
    for (int s = 0; s < shards; ++s) {
      if (rng.NextDouble() < 0.4) {
        FaultPlan::ShardKill k;
        k.shard = s;
        k.from = rng.Below(requests);
        // Mostly finite windows (the shard restarts mid-run, exercising
        // recovery + cache invalidation); sometimes a permanent outage.
        if (rng.NextDouble() < 0.75) {
          k.until = k.from + 1 + rng.Below(requests - k.from);
        }
        plan.shard_kills.push_back(k);
      }
      if (rng.NextDouble() < 0.4) {
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

ServeChaosTrial::ServeChaosTrial(const ServeChaosOptions& opts, int shards)
    : opts_(opts), shards_(shards) {
  const DatasetSpec spec = TrialDataset(opts_);
  const Schema schema = spec.MakeSchema();
  cube_ = SequentialCube(GenerateSlice(spec, 1, 0), schema,
                         AllViews(schema.dims()));
  requests_ = SampleRequests(cube_, schema, opts_, 17);
  golden_ = GoldenAnswers(cube_, requests_);
}

Verdict ServeChaosTrial::Check(const FaultPlan& plan) {
  ManualServeClock clock;
  ShardSet shard_set(cube_, TrialShardSetOptions(shards_, clock), plan);
  RouterOptions ropts = TrialRouterOptions();
  ropts.pin_scatter_view = opts_.pin_scatter_view;
  Router router(shard_set, ropts);

  for (std::size_t i = 0; i < requests_.size(); ++i) {
    // Virtual inter-arrival gap: lets breaker cooldowns elapse mid-run so
    // recovery (open → half-open → closed) is exercised deterministically.
    clock.Advance(200);
    const RouterResult r = router.Execute(requests_[i]);
    if (r.outcome != RouterOutcome::kOk) continue;  // typed — allowed
    if (r.answer == nullptr) {
      return "request " + std::to_string(i) + " reported ok with no answer";
    }
    if (!(r.answer->rel == golden_[i])) {
      std::ostringstream os;
      os << "request " << i << " (" << (r.scatter ? "scatter" : "point")
         << ", view mask " << r.answer->answered_from.mask()
         << ") returned a WRONG answer: " << r.answer->rel.size()
         << " rows vs golden " << golden_[i].size();
      return os.str();
    }
  }
  return std::nullopt;
}

ChaosReport RunServeChaosSearch(const ServeChaosOptions& opts) {
  const auto horizon = static_cast<std::uint64_t>(opts.requests);
  return RunChaosSearch<ServeChaosTrial>(
      opts, opts.shard_counts,
      {.label = "serve-chaos shards",
       .salt = 0x5157,
       .horizon = horizon,
       .draw = [horizon](Rng& rng, int shards) {
         return RandomServePlan(rng, shards, horizon);
       }});
}

}  // namespace chaos
}  // namespace sncube
