// Chaos search over the fault-plan space, with plan shrinking.
//
// The integrity invariant this explorer hammers on: whatever faults a build
// experiences — rank kills, stragglers, transient disk errors, silent bit
// flips, torn writes — a build that *completes* (possibly after restarts
// from its checkpoint directory) produces a cube byte-identical to a
// fault-free run. Corruption may abort a rank (typed, loud) and cost retry
// time; it must never survive into the output silently.
//
// The search is a seeded random walk: N random FaultPlans are drawn from the
// full fault universe (see net/fault.h for the grammar) and each is run as a
// trial — build under the plan, and on abort restart over the same
// checkpoint directory with a progressively stripped plan (kills first, then
// transient disk errors, then corruption), the way an operator would retry
// on progressively healthier hardware. A trial fails when the build cannot
// complete within the attempt budget or, worse, completes with bytes that
// differ from the fault-free golden build.
//
// A failing plan is then shrunk to a minimal reproducing spec: greedy
// clause removal to a fixpoint (ddmin-style), then halving of the surviving
// numeric parameters (kill supersteps, straggler factors, fault rates) while
// the failure persists. Every trial is deterministic given (plan, procs), so
// shrink decisions are sound, and the minimal plan's ToSpec() string is a
// complete bug report: `sncube build --fault-plan "<spec>"` replays it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/fault.h"

namespace sncube {
namespace chaos {

struct ChaosOptions {
  // Random plans to try per cluster size.
  int plans = 16;
  // Master seed: plan generation derives from it; trials are deterministic.
  std::uint64_t seed = 1;
  // Cluster sizes to exercise.
  std::vector<int> procs = {2, 4};
  // Synthetic dataset the trials build cubes over.
  std::uint64_t rows = 600;
  std::vector<std::uint32_t> cards = {8, 5, 3};
  std::uint64_t data_seed = 29;
  // Build attempts per trial (first under the full plan, then stripped).
  int max_attempts = 4;
  // TEST-ONLY escape hatch (CheckpointOptions::verify_restore): false
  // re-opens the silent-corruption restore path so tests can demonstrate
  // the explorer finding and shrinking a real integrity bug.
  bool verify_restore = true;
  // Scratch root for per-trial checkpoint directories; empty uses a
  // pid-qualified directory under the system temp path, removed with the
  // trial.
  std::string scratch_dir;
  // Progress lines to stderr.
  bool verbose = false;
};

struct ChaosFailure {
  int procs = 0;
  FaultPlan plan;      // minimal reproducing plan (after shrinking)
  FaultPlan original;  // the plan the search first found failing
  std::string reason;  // what the trial observed (mismatch / non-completion)
};

struct ChaosReport {
  int trials = 0;
  std::vector<ChaosFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string ToJson() const;
};

// Draws one random plan over the full fault universe for a p-rank cluster;
// never empty, seeded from `rng` (deterministic). Exposed for tests.
FaultPlan RandomPlan(Rng& rng, int procs);

// One cluster size's trial harness. Construction runs the fault-free golden
// build once; Check and Shrink reuse it across plans.
class ChaosTrial {
 public:
  ChaosTrial(const ChaosOptions& opts, int procs);
  ~ChaosTrial();
  ChaosTrial(const ChaosTrial&) = delete;
  ChaosTrial& operator=(const ChaosTrial&) = delete;

  // Runs one plan end-to-end: build under the plan over a fresh checkpoint
  // directory, restarting with progressively stripped plans on abort.
  // Returns std::nullopt when the trial upholds the invariant, otherwise a
  // human-readable reason (byte mismatch or non-completion).
  std::optional<std::string> Check(const FaultPlan& plan);

  // Shrinks a plan for which Check fails to a minimal still-failing plan.
  FaultPlan Shrink(const FaultPlan& plan);

 private:
  using ShardBytes = std::vector<std::vector<std::pair<std::uint32_t,
                                                       std::string>>>;
  std::optional<std::string> BuildOnce(const FaultPlan& plan,
                                       const std::string& ckpt_dir,
                                       ShardBytes* out);

  ChaosOptions opts_;
  int procs_;
  bool owns_scratch_;  // scratch_dir made at the default path
  ShardBytes golden_;
  std::uint64_t trial_counter_ = 0;
};

// The full search: for each cluster size, `plans` random plans, each checked
// and — on failure — shrunk. Deterministic given the options.
ChaosReport RunChaosSearch(const ChaosOptions& opts);

}  // namespace chaos
}  // namespace sncube
