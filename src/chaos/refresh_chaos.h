// Chaos search over online-refresh fault plans (chaos/search.h's refresh
// tier).
//
// The serve-tier harness (chaos/serve_chaos.h) checks "no wrong answers"
// against ONE immutable cube. This harness attacks the hard part of
// src/refresh: a refresh swapping a new epoch into the serving tier UNDER
// TRAFFIC, with the coordinator crashing at arbitrary phases of the
// two-phase swap and rank-0 disk clauses corrupting the store's bytes.
// Its invariant:
//
//   OLD OR NEW, NEVER A BLEND. Every OK response — before, during, and
//   after the refresh, and after a crash + ViewStore::Recover restart —
//   is byte-identical to the PRE-refresh golden answer or the POST-refresh
//   golden answer for that query. A response mixing rows or measures from
//   both epochs is the unforgivable outcome; so is a recovered cube that
//   equals neither golden cube.
//
// A trial drives a deterministic query stream through a Router/ShardSet on
// a ManualServeClock. RefreshOptions::on_phase injects a burst of that
// stream at entry to EVERY swap phase (prepare, between per-shard commits,
// pre-commit, post-commit), so requests interleave with each swap step
// deterministically. A refreshkill crash is followed by a simulated process
// restart: the shard set is torn down, ViewStore::Recover picks the
// newest committed epoch (or the caller falls back to the pre-refresh base
// cube), and the remaining stream replays against the recovered state.
#pragma once

#include <string>
#include <vector>

#include "chaos/serve_chaos.h"

namespace sncube {
namespace chaos {

// Its own defaults: `rows` of the BASE dataset the pre-refresh cube is
// built over, and a stream of `requests` consumed in order around the
// refresh (refresh_chaos.cc). Each shard count's swap phase 3 has shards-1
// distinct kill points.
struct RefreshChaosOptions : ServingSearchOptions {
  RefreshChaosOptions() {
    rows = 500;
    requests = 120;
  }
  // TEST-ONLY escape hatch (cf. ServeChaosOptions::pin_scatter_view): false
  // clears ShardSetOptions::pin_epoch, re-opening the naive single-phase
  // swap bug — mid-swap scatters answer each slice from whatever epoch its
  // shard last committed, blending two epochs — so tests can prove this
  // harness catches and shrinks a real refresh corruption.
  bool pin_epoch = true;
  // Root of the trials' store directories; empty uses a directory under
  // the system temp path, removed with the trial.
  std::string scratch_dir;
};

// Draws one random refresh plan for `shards` shards over a `requests`-long
// stream: coordinator kills at random swap phases, rank-0 store disk
// clauses (diskerr/bitflip/tornwrite), and serve-tier kill/slow windows so
// the swap runs under shard churn. Never empty; deterministic under `rng`.
// Exposed for tests.
FaultPlan RandomRefreshPlan(Rng& rng, int shards, std::uint64_t requests);

// One shard count's trial harness. Construction builds the base cube, runs
// one fault-free refresh pipeline to get the post-refresh golden cube, and
// precomputes the query stream with BOTH golden answers per request; all of
// it is reused across plans.
class RefreshChaosTrial {
 public:
  RefreshChaosTrial(const RefreshChaosOptions& opts, int shards);

  // Replays the stream around one Refresh() under `plan`. Returns
  // std::nullopt when every response (and the recovered cube, if the plan
  // crashed the coordinator) upholds old-or-new; otherwise a description of
  // the first blend.
  Verdict Check(const FaultPlan& plan);

 private:
  // "" when `cube` is byte-identical to the pre- or post-refresh golden
  // cube, else which views diverge.
  std::string MatchesEitherGolden(const CubeResult& cube) const;

  RefreshChaosOptions opts_;
  int shards_;
  Schema schema_;
  CubeResult pre_cube_;
  Relation delta_;
  CubeResult post_cube_;
  std::vector<Query> requests_;
  std::vector<Relation> golden_pre_;   // per request, answer over pre_cube_
  std::vector<Relation> golden_post_;  // per request, answer over post_cube_
  ScratchRoot scratch_;                // one store directory per Check
};

// The refresh search over `opts.shard_counts`. Deterministic given the
// options.
ChaosReport RunRefreshChaosSearch(const RefreshChaosOptions& opts);

}  // namespace chaos
}  // namespace sncube
