// Chaos search over build fault plans (the build tier of chaos/search.h).
//
// The integrity invariant this tier hammers on: whatever faults a build
// experiences — rank kills, stragglers, transient disk errors — a build
// that *completes* (possibly after resumes from the cube directory it was
// writing) leaves a directory byte-identical to a fault-free run's,
// MANIFEST included. A fault may abort the build (typed, loud); it must
// never survive into the output silently.
//
// Each random FaultPlan is drawn from the build fault universe (see
// net/fault.h for the grammar) and run as a trial — build under the plan,
// and on abort resume in the same directory with a progressively stripped
// plan (kills first, then transient disk errors), the way an operator
// would retry on progressively healthier hardware. A trial fails when the
// build cannot complete within the attempt budget or, worse, completes
// with bytes that differ from the fault-free golden build. A failing
// plan's minimal spec replays as `sncube build --procs <p> --fault-plan
// <spec>`, then `--resume`.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "chaos/search.h"

namespace sncube {
namespace chaos {

struct ChaosOptions : SearchOptions {
  // Cluster sizes to exercise.
  std::vector<int> procs = {2, 4};
  // Root of the per-trial cube directories; empty uses a directory under
  // the system temp path, removed with the trial.
  std::string scratch_dir;
};

// Draws one random plan of kills, stragglers and transient disk errors for
// a p-rank cluster; never empty, seeded from `rng` (deterministic). A build
// writes no byte through a rank's disk, so bit flips and torn writes, which
// strike only such writes, are not drawn.
// Exposed for tests.
FaultPlan RandomPlan(Rng& rng, int procs);

// One cluster size's trial harness. Construction runs the fault-free golden
// build once; every Check reuses it.
class ChaosTrial {
 public:
  ChaosTrial(const ChaosOptions& opts, int procs);

  // Runs one plan end-to-end: build under the plan into a fresh cube
  // directory, resuming with progressively stripped plans on abort.
  // Returns std::nullopt when the trial upholds the invariant, otherwise a
  // human-readable reason (byte mismatch or non-completion).
  Verdict Check(const FaultPlan& plan);

 private:
  // Every file of a cube directory, by name.
  using DirBytes = std::map<std::string, std::string>;
  // Builds into `dir` under `plan` (resuming what is there with `resume`)
  // and returns the abort reason, or std::nullopt once committed.
  Verdict BuildOnce(const FaultPlan& plan, const std::string& dir,
                    bool resume);
  static DirBytes ReadDir(const std::string& dir);

  ChaosOptions opts_;
  int procs_;
  ScratchRoot scratch_;
  DirBytes golden_;
};

// The build search over `opts.procs`. Deterministic given the options.
ChaosReport RunBuildChaosSearch(const ChaosOptions& opts);

}  // namespace chaos
}  // namespace sncube
