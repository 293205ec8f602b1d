#include "chaos/explorer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/status.h"
#include "core/parallel_cube.h"
#include "core/partition_writer.h"
#include "data/generator.h"
#include "lattice/lattice.h"
#include "net/cluster.h"

namespace sncube {
namespace chaos {
namespace {

// Build attempts per trial: the first under the full plan, then one per
// StripForAttempt step.
constexpr int kMaxAttempts = 3;

// Restart policy: each resume strips the next fault family from the plan —
// kills first, then transient disk errors — the way an operator retries a
// failed job on progressively healthier hardware. The invariant under test
// is integrity (a completed build is byte-identical), not survival of
// arbitrarily repeated faults, so bounded attempts must reach completion on
// any plan.
FaultPlan StripForAttempt(const FaultPlan& plan, int attempt) {
  FaultPlan p = plan;
  if (attempt >= 1) p.kills.clear();
  if (attempt >= 2) p.disk_errors.clear();
  return p;
}

}  // namespace

FaultPlan RandomPlan(Rng& rng, int procs) {
  FaultPlan plan;
  do {
    plan = FaultPlan{};
    for (int r = 0; r < procs; ++r) {
      if (rng.NextDouble() < 0.25) {
        plan.kills.push_back({r, rng.Below(32)});
      }
      if (rng.NextDouble() < 0.2) {
        plan.stragglers.push_back({r, 1.0 + 3.0 * rng.NextDouble()});
      }
      if (rng.NextDouble() < 0.3) {
        plan.disk_errors.push_back({r, 0.3 * rng.NextDouble()});
      }
    }
  } while (plan.empty());
  plan.seed = rng.Next();
  return plan;
}

ChaosTrial::ChaosTrial(const ChaosOptions& opts, int procs)
    : opts_(opts), procs_(procs), scratch_(opts.scratch_dir) {
  // Fault-free golden build: the byte-level ground truth every trial's
  // completed directory is compared against.
  const std::string dir = scratch_.NextDir();
  SNCUBE_CHECK(!BuildOnce(FaultPlan{}, dir, /*resume=*/false).has_value());
  golden_ = ReadDir(dir);
  ScratchRoot::Remove(dir);
}

Verdict ChaosTrial::BuildOnce(const FaultPlan& plan, const std::string& dir,
                              bool resume) {
  const DatasetSpec spec = TrialDataset(opts_);
  const Schema schema = spec.MakeSchema();
  const std::vector<ViewId> selected = AllViews(schema.dims());

  Cluster cluster(procs_);
  if (!plan.empty()) cluster.set_fault_plan(plan);
  PartitionWriter writer(ViewStore(dir), schema, selected, procs_, resume);
  ParallelCubeOptions build_opts;
  writer.Attach(build_opts);
  try {
    cluster.Run([&](Comm& comm) {
      const Relation raw = GenerateSlice(spec, procs_, comm.rank());
      BuildParallelCube(comm, raw, schema, selected, build_opts);
    });
  } catch (const ClusterAbortedError& e) {
    writer.Abandon();
    return std::string(e.what());
  }
  writer.Commit();
  return std::nullopt;
}

ChaosTrial::DirBytes ChaosTrial::ReadDir(const std::string& dir) {
  DirBytes files;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(file.path(), std::ios::binary);
    files[file.path().filename().string()] = std::string(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return files;
}

Verdict ChaosTrial::Check(const FaultPlan& plan) {
  const std::string dir = scratch_.NextDir();
  std::string last_abort;
  Verdict verdict = "did not complete within " +
                    std::to_string(kMaxAttempts) + " attempts";
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const Verdict abort_reason =
        BuildOnce(StripForAttempt(plan, attempt), dir, attempt > 0);
    if (abort_reason.has_value()) {
      last_abort = *abort_reason;
      continue;
    }
    // The build completed: the integrity invariant is judged right here —
    // its directory must equal the fault-free golden, byte for byte.
    const DirBytes got = ReadDir(dir);
    const auto [ours, golden] = std::mismatch(got.begin(), got.end(),
                                              golden_.begin(), golden_.end());
    verdict = std::nullopt;
    if (ours != got.end() || golden != golden_.end()) {
      verdict = (golden != golden_.end() ? golden->first : ours->first) +
                " differs from the fault-free build's (attempt " +
                std::to_string(attempt) + ")";
    }
    break;
  }
  if (verdict.has_value() && !last_abort.empty() &&
      verdict->rfind("did not complete", 0) == 0) {
    *verdict += "; last abort: " + last_abort;
  }
  ScratchRoot::Remove(dir);
  return verdict;
}

ChaosReport RunBuildChaosSearch(const ChaosOptions& opts) {
  // Build plans have no windows, so the shrinker needs no horizon.
  return RunChaosSearch<ChaosTrial>(
      opts, opts.procs,
      {.label = "chaos p", .salt = 0, .horizon = 0, .draw = RandomPlan});
}

}  // namespace chaos
}  // namespace sncube
