// The chaos search core: one search loop and one shrinker for every tier.
//
// Three searches check the failure model (DESIGN.md §8 "Chaos search"):
// the build tier (chaos/explorer.h: a restarted build is byte-identical to
// a fault-free one), the serving tier (chaos/serve_chaos.h: no wrong
// answers, ever) and the refresh tier (chaos/refresh_chaos.h: old or new,
// never a blend). Each tier supplies a plan generator and a trial whose
// Check replays one FaultPlan and names the violation it saw. Everything
// else lives here: the loop that draws, checks and shrinks plans, the
// report, and the scratch directories the trials write into.
//
// Every trial is deterministic given its plan, so shrink decisions are
// sound: a candidate that fails once fails on every replay.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/generator.h"
#include "net/fault.h"

namespace sncube {
namespace chaos {

// The options every search reads.
struct SearchOptions {
  // Random plans to try per size (cluster size or shard count).
  int plans = 16;
  // Master seed: plan generation and any query stream derive from it.
  std::uint64_t seed = 1;
  // Synthetic dataset the trials build cubes over.
  std::uint64_t rows = 600;
  std::vector<std::uint32_t> cards = {8, 5, 3};
  // Progress lines to stderr.
  bool verbose = false;
};

// The synthetic dataset of `opts`, under the one seed every tier uses.
DatasetSpec TrialDataset(const SearchOptions& opts);

struct ChaosFailure {
  int procs = 0;       // the size: cluster size, or shard count
  FaultPlan plan;      // minimal reproducing plan (after shrinking)
  FaultPlan original;  // the plan the search first found failing
  std::string reason;  // what the trial observed
};

struct ChaosReport {
  int trials = 0;
  std::vector<ChaosFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string ToJson() const;
};

// A trial's verdict on one plan: std::nullopt when the invariant held,
// otherwise a human-readable reason.
using Verdict = std::optional<std::string>;
using CheckFn = std::function<Verdict(const FaultPlan&)>;

// Shrinks `plan`, for which `check` fails, to a minimal still-failing plan.
// Phase 1 drops clauses to a fixpoint, trying the families in FaultPlan's
// declaration order (ToSpec's) and starting over from the first family
// after every drop. Phase 2 walks the same order and pushes each surviving
// number toward its floor while the plan still fails: a kill's superstep
// halves toward 0; a straggler or shardslow factor halves its excess over
// 1 down to 1.05; a rate halves down to 1e-4; a window's length halves down
// to 1 (a window with no end is measured to `horizon`, the trial's request
// count), then its start halves toward 0.
FaultPlan ShrinkPlan(const FaultPlan& plan, std::uint64_t horizon,
                     const CheckFn& check);

// The root of a trial's scratch directories: `dir` when given, else a
// directory of this process under the system temp path, which the root
// owns and removes. Removal ignores errors, so cleanup never turns a
// verdict into an exception.
class ScratchRoot {
 public:
  explicit ScratchRoot(const std::string& dir);
  ~ScratchRoot();
  ScratchRoot(const ScratchRoot&) = delete;
  ScratchRoot& operator=(const ScratchRoot&) = delete;

  // A path under the root, removed if it exists, for the next check.
  std::string NextDir();
  static void Remove(const std::string& dir);

 private:
  std::string path_;
  bool owned_;
  std::uint64_t checks_ = 0;
};

// What a search loop needs from its tier besides the trial.
struct Tier {
  const char* label;      // progress prefix, e.g. "chaos p"
  std::uint64_t salt;     // keeps the tiers' plan streams apart
  std::uint64_t horizon;  // ShrinkPlan's horizon
  std::function<FaultPlan(Rng&, int size)> draw;
};

// One size of the search: `opts.plans` plans drawn from the size's own
// stream (so adding a size never reshuffles the plans another size
// explored), each checked and, when it fails, shrunk into `report`.
void SearchSize(const SearchOptions& opts, const Tier& tier, int size,
                const CheckFn& check, ChaosReport& report);

// The search: for each size, a Trial(opts, size) and SearchSize over its
// Check. Deterministic given the options.
template <typename Trial, typename Options>
ChaosReport RunChaosSearch(const Options& opts, const std::vector<int>& sizes,
                           const Tier& tier) {
  ChaosReport report;
  for (const int size : sizes) {
    Trial trial(opts, size);
    SearchSize(opts, tier, size,
               [&trial](const FaultPlan& p) { return trial.Check(p); },
               report);
  }
  return report;
}

}  // namespace chaos
}  // namespace sncube
