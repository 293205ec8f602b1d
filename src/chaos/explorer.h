// Chaos search over build fault plans (the build tier of chaos/search.h).
//
// The integrity invariant this tier hammers on: whatever faults a build
// experiences — rank kills, stragglers, transient disk errors, silent bit
// flips, torn writes — a build that *completes* (possibly after restarts
// from its checkpoint directory) produces a cube byte-identical to a
// fault-free run. Corruption may abort a rank (typed, loud) and cost retry
// time; it must never survive into the output silently.
//
// Each random FaultPlan is drawn from the full build fault universe (see
// net/fault.h for the grammar) and run as a trial — build under the plan,
// and on abort restart over the same checkpoint directory with a
// progressively stripped plan (kills first, then transient disk errors,
// then corruption), the way an operator would retry on progressively
// healthier hardware. A trial fails when the build cannot complete within
// the attempt budget or, worse, completes with bytes that differ from the
// fault-free golden build. A failing plan's minimal spec is accepted by
// `sncube build --procs <p> --fault-plan`.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chaos/search.h"

namespace sncube {
namespace chaos {

struct ChaosOptions : SearchOptions {
  // Cluster sizes to exercise.
  std::vector<int> procs = {2, 4};
  // TEST-ONLY escape hatch (CheckpointOptions::verify_restore): false
  // re-opens the silent-corruption restore path so tests can demonstrate
  // the search finding and shrinking a real integrity bug.
  bool verify_restore = true;
  // Root of the per-trial checkpoint directories; empty uses a directory
  // under the system temp path, removed with the trial.
  std::string scratch_dir;
};

// Draws one random plan over the full build fault universe for a p-rank
// cluster; never empty, seeded from `rng` (deterministic). Exposed for
// tests.
FaultPlan RandomPlan(Rng& rng, int procs);

// One cluster size's trial harness. Construction runs the fault-free golden
// build once; every Check reuses it.
class ChaosTrial {
 public:
  ChaosTrial(const ChaosOptions& opts, int procs);

  // Runs one plan end-to-end: build under the plan over a fresh checkpoint
  // directory, restarting with progressively stripped plans on abort.
  // Returns std::nullopt when the trial upholds the invariant, otherwise a
  // human-readable reason (byte mismatch or non-completion).
  Verdict Check(const FaultPlan& plan);

 private:
  using ShardBytes = std::vector<std::vector<std::pair<std::uint32_t,
                                                       std::string>>>;
  Verdict BuildOnce(const FaultPlan& plan, const std::string& ckpt_dir,
                    ShardBytes* out);

  ChaosOptions opts_;
  int procs_;
  ScratchRoot scratch_;
  ShardBytes golden_;
};

// The build search over `opts.procs`. Deterministic given the options.
ChaosReport RunBuildChaosSearch(const ChaosOptions& opts);

}  // namespace chaos
}  // namespace sncube
