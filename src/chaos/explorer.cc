#include "chaos/explorer.h"

#include <algorithm>
#include <mutex>

#include "common/status.h"
#include "core/parallel_cube.h"
#include "data/generator.h"
#include "lattice/lattice.h"
#include "net/cluster.h"
#include "relation/serialize.h"

namespace sncube {
namespace chaos {
namespace {

// Build attempts per trial: the first under the full plan, then one per
// StripForAttempt step.
constexpr int kMaxAttempts = 4;

// Restart policy: each retry strips the next fault family from the plan —
// kills first, then transient disk errors, then silent corruption — the way
// an operator retries a failed job on progressively healthier hardware. The
// invariant under test is integrity (a completed build is byte-identical),
// not survival of arbitrarily repeated faults, so bounded attempts must
// reach completion on any plan.
FaultPlan StripForAttempt(const FaultPlan& plan, int attempt) {
  FaultPlan p = plan;
  if (attempt >= 1) p.kills.clear();
  if (attempt >= 2) p.disk_errors.clear();
  if (attempt >= 3) {
    p.bit_flips.clear();
    p.torn_writes.clear();
  }
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
      if (rng.NextDouble() < 0.3) {
        plan.bit_flips.push_back({r, rng.NextDouble()});
      }
      if (rng.NextDouble() < 0.3) {
        plan.torn_writes.push_back({r, rng.NextDouble()});
      }
    }
  } while (plan.empty());
  plan.seed = rng.Next();
  return plan;
}

ChaosTrial::ChaosTrial(const ChaosOptions& opts, int procs)
    : opts_(opts), procs_(procs), scratch_(opts.scratch_dir) {
  // Fault-free golden build, no checkpointing: the byte-level ground truth
  // every trial's completed cube is compared against.
  const Verdict abort_reason = BuildOnce(FaultPlan{}, "", &golden_);
  SNCUBE_CHECK(!abort_reason.has_value());
}

Verdict ChaosTrial::BuildOnce(const FaultPlan& plan,
                              const std::string& ckpt_dir, ShardBytes* out) {
  const DatasetSpec spec = TrialDataset(opts_);
  const Schema schema = spec.MakeSchema();
  const int d = schema.dims();

  Cluster cluster(procs_);
  if (!plan.empty()) cluster.set_fault_plan(plan);
  ShardBytes shards(static_cast<std::size_t>(procs_));
  std::mutex mu;
  try {
    cluster.Run([&](Comm& comm) {
      const Relation raw = GenerateSlice(spec, procs_, comm.rank());
      ParallelCubeOptions build_opts;
      build_opts.checkpoint.dir = ckpt_dir;
      build_opts.checkpoint.verify_restore = opts_.verify_restore;
      CubeResult cube =
          BuildParallelCube(comm, raw, schema, AllViews(d), build_opts);
      std::vector<std::pair<std::uint32_t, std::string>> mine;
      mine.reserve(cube.views.size());
      for (const auto& [id, vr] : cube.views) {
        const ByteBuffer bytes = SerializeRelation(vr.rel);
        mine.emplace_back(
            id.mask(),
            std::string(reinterpret_cast<const char*>(bytes.data()),
                        bytes.size()));
      }
      std::sort(mine.begin(), mine.end());
      std::lock_guard<std::mutex> lock(mu);
      shards[static_cast<std::size_t>(comm.rank())] = std::move(mine);
    });
  } catch (const ClusterAbortedError& e) {
    return std::string(e.what());
  }
  *out = std::move(shards);
  return std::nullopt;
}

Verdict ChaosTrial::Check(const FaultPlan& plan) {
  const std::string dir = scratch_.NextDir();
  std::string last_abort;
  Verdict verdict = "did not complete within " +
                    std::to_string(kMaxAttempts) + " attempts";
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    ShardBytes got;
    const Verdict abort_reason =
        BuildOnce(StripForAttempt(plan, attempt), dir, &got);
    if (abort_reason.has_value()) {
      last_abort = *abort_reason;
      continue;
    }
    // The build completed: the integrity invariant is judged right here —
    // its cube must equal the fault-free golden, byte for byte.
    verdict = std::nullopt;
    for (std::size_t r = 0; r < golden_.size() && !verdict; ++r) {
      if (got[r].size() != golden_[r].size()) {
        verdict = "rank " + std::to_string(r) + " built " +
                  std::to_string(got[r].size()) + " views, golden has " +
                  std::to_string(golden_[r].size());
        break;
      }
      for (std::size_t v = 0; v < golden_[r].size(); ++v) {
        if (got[r][v] != golden_[r][v]) {
          verdict = "rank " + std::to_string(r) + " view mask " +
                    std::to_string(golden_[r][v].first) +
                    " differs from the fault-free build (attempt " +
                    std::to_string(attempt) + ")";
          break;
        }
      }
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
