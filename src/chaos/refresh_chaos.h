// Chaos search over online-refresh fault plans.
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
//   both snapshots is the unforgivable outcome; so is a recovered cube that
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
// Failing plans shrink ddmin-style and report through the shared
// ChaosReport, like both sibling harnesses.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/explorer.h"
#include "common/rng.h"
#include "net/fault.h"
#include "query/engine.h"
#include "relation/schema.h"
#include "seqcube/cube_result.h"
#include "serve/workload.h"

namespace sncube {
namespace chaos {

struct RefreshChaosOptions {
  // Random refresh plans to try per shard count.
  int plans = 16;
  // Master seed: plan generation and the query workload derive from it.
  std::uint64_t seed = 1;
  // Shard counts to exercise (phase 3 has shards-1 distinct kill points).
  std::vector<int> shard_counts = {2, 4};
  // Synthetic BASE dataset the pre-refresh cube is built over.
  std::uint64_t rows = 500;
  std::vector<std::uint32_t> cards = {8, 5, 3};
  std::uint64_t data_seed = 29;
  // The insert-only delta ingested by the refresh (disjoint seed stream, so
  // the post-refresh cube differs from the base on most views).
  std::uint64_t delta_rows = 200;
  std::uint64_t delta_seed = 61;
  // Total deterministic query stream per trial run. The stream is consumed
  // in order: `requests_before` ahead of the refresh, `requests_per_phase`
  // at entry to each swap phase, and the remainder after the refresh
  // completes or after crash recovery.
  int requests = 120;
  int requests_before = 24;
  int requests_per_phase = 6;
  // Query mix the stream is sampled from.
  WorkloadSpec workload;
  // TEST-ONLY escape hatch (cf. ServeChaosOptions::pin_scatter_view): false
  // clears ShardSetOptions::pin_epoch, re-opening the naive single-phase
  // swap bug — mid-swap scatters answer each slice from whatever epoch its
  // shard last committed, blending two snapshots — so tests can prove this
  // harness catches and shrinks a real refresh corruption.
  bool pin_epoch = true;
  // Scratch root for the trials' stores; empty = a pid-scoped directory
  // under the system temp path, removed with the trial.
  std::string snapshot_root;
  // Progress lines to stderr.
  bool verbose = false;
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
  ~RefreshChaosTrial();
  RefreshChaosTrial(const RefreshChaosTrial&) = delete;
  RefreshChaosTrial& operator=(const RefreshChaosTrial&) = delete;

  // Replays the stream around one Refresh() under `plan`. Returns
  // std::nullopt when every response (and the recovered cube, if the plan
  // crashed the coordinator) upholds old-or-new; otherwise a description of
  // the first blend.
  std::optional<std::string> Check(const FaultPlan& plan);

  // Greedy ddmin: drop clauses to a fixpoint, then shrink serve windows,
  // slow factors, and disk-fault rates while the failure persists.
  FaultPlan Shrink(const FaultPlan& plan);

  const CubeResult& pre_cube() const { return pre_cube_; }
  const CubeResult& post_cube() const { return post_cube_; }

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
  std::string root_;                   // scratch root for the stores
  bool owns_root_ = false;             // made at the default path
  std::uint64_t next_check_id_ = 0;    // distinct store dir per Check
};

// Runs the full search: per shard count, `plans` random plans; failures are
// shrunk and reported.
ChaosReport RunRefreshChaosSearch(const RefreshChaosOptions& opts);

}  // namespace chaos
}  // namespace sncube
