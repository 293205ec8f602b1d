// Chaos search over serve-tier fault plans (chaos/search.h's serving tier).
//
// The build tier (chaos/explorer.h) hammers on integrity: a completed
// build is byte-identical to a fault-free one. This harness is its
// serving-tier sibling, and its invariant is the router's contract:
//
//   NO WRONG ANSWERS, EVER. Every Router::Execute response is either
//   bit-correct (equal to the single-engine golden answer over the full
//   cube), a typed error (failed / timed out / unavailable), or an explicit
//   shed. Degraded service is acceptable under faults; silent corruption of
//   an answer is the one unforgivable outcome.
//
// A trial runs a deterministic query workload through a Router over a
// ShardSet driven by a ManualServeClock, under a serve fault plan
// (shardkill/shardslow windows keyed on request sequence numbers — see
// net/fault.h). Determinism is total: virtual time only advances through
// policy sleeps and injected slowness, so a given (plan, seed) replays
// bit-for-bit, which makes plan shrinking sound. This header also holds
// what the refresh tier (chaos/refresh_chaos.h) shares with this one: the
// options, the shard set and router policies, and the request stream.
#pragma once

#include <cstdint>
#include <vector>

#include "chaos/search.h"
#include "query/engine.h"
#include "relation/schema.h"
#include "seqcube/cube_result.h"
#include "serve/retry_policy.h"
#include "serve/router.h"
#include "serve/shard_set.h"
#include "serve/workload.h"

namespace sncube {
namespace chaos {

// The options both serving searches read.
struct ServingSearchOptions : SearchOptions {
  // Shard counts to exercise.
  std::vector<int> shard_counts = {2, 4};
  // Router requests per trial; fault windows are drawn inside [0, requests).
  int requests = 200;
  // Query mix the requests are sampled from.
  WorkloadSpec workload;
};

struct ServeChaosOptions : ServingSearchOptions {
  // TEST-ONLY escape hatch (cf. ChaosOptions::verify_restore): false stops
  // the router from pinning one view across a scatter (RouterOptions::
  // pin_scatter_view), re-opening the mixed-view wrong-answer bug so tests
  // can demonstrate this harness catching and shrinking a real corruption.
  bool pin_scatter_view = true;
};

// The shard set both serving trials run: `shards` shards of two workers on
// `clock`. Shard-side wall-clock deadlines are the one nondeterministic
// knob, so they are off: every trajectory is a pure function of the plan.
ShardSetOptions TrialShardSetOptions(int shards, ServeClock& clock);

// The router policies both serving trials run under.
RouterOptions TrialRouterOptions();

// A serving trial's fixed request stream: opts.requests queries sampled
// from opts.workload over `cube`, seeded from opts.seed and `salt`. Every
// candidate plan replays the same queries in the same order, so a shrink
// step only ever changes the faults, never the traffic.
std::vector<Query> SampleRequests(const CubeResult& cube, const Schema& schema,
                                  const ServingSearchOptions& opts,
                                  std::uint64_t salt);

// The full-cube engine's answer to each request: the golden answers.
std::vector<Relation> GoldenAnswers(const CubeResult& cube,
                                    const std::vector<Query>& requests);

// Draws one random serve plan for `shards` shards over a `requests`-long
// run: kill windows (sometimes endless) and slowdown windows per shard.
// Never empty; deterministic under `rng`. Exposed for tests.
FaultPlan RandomServePlan(Rng& rng, int shards, std::uint64_t requests);

// One shard count's trial harness. Construction builds the cube once,
// precomputes every request's golden answer from a single full-cube engine,
// and reuses both across plans.
class ServeChaosTrial {
 public:
  ServeChaosTrial(const ServeChaosOptions& opts, int shards);

  // Replays the workload through a freshly built ShardSet + Router under
  // `plan`. Returns std::nullopt when every response upholds the invariant,
  // otherwise a human-readable description of the first wrong answer.
  Verdict Check(const FaultPlan& plan);

 private:
  ServeChaosOptions opts_;
  int shards_;
  CubeResult cube_;
  std::vector<Query> requests_;
  std::vector<Relation> golden_;  // golden answer per request
};

// The serving search over `opts.shard_counts`. Deterministic given the
// options. Failures report the shard count in ChaosFailure::procs.
ChaosReport RunServeChaosSearch(const ServeChaosOptions& opts);

}  // namespace chaos
}  // namespace sncube
