#include "chaos/explorer.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/status.h"
#include "core/parallel_cube.h"
#include "data/generator.h"
#include "lattice/lattice.h"
#include "net/cluster.h"
#include "relation/serialize.h"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace sncube {
namespace chaos {
namespace {

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

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
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
    : opts_(opts), procs_(procs), owns_scratch_(opts_.scratch_dir.empty()) {
  if (owns_scratch_) {
    opts_.scratch_dir =
        (std::filesystem::temp_directory_path() /
         ("sncube_chaos_" + std::to_string(::getpid())))
            .string();
  }
  // Fault-free golden build, no checkpointing: the byte-level ground truth
  // every trial's completed cube is compared against.
  const auto abort_reason = BuildOnce(FaultPlan{}, "", &golden_);
  SNCUBE_CHECK(!abort_reason.has_value());
}

ChaosTrial::~ChaosTrial() {
  std::error_code ec;
  if (owns_scratch_) std::filesystem::remove_all(opts_.scratch_dir, ec);
}

std::optional<std::string> ChaosTrial::BuildOnce(const FaultPlan& plan,
                                                const std::string& ckpt_dir,
                                                ShardBytes* out) {
  DatasetSpec spec;
  spec.rows = opts_.rows;
  spec.cardinalities = opts_.cards;
  spec.seed = opts_.data_seed;
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

std::optional<std::string> ChaosTrial::Check(const FaultPlan& plan) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(opts_.scratch_dir) /
                       ("trial_" + std::to_string(trial_counter_++));
  fs::remove_all(dir);
  std::string last_abort;
  std::optional<std::string> verdict =
      "did not complete within " + std::to_string(opts_.max_attempts) +
      " attempts";
  for (int attempt = 0; attempt < opts_.max_attempts; ++attempt) {
    ShardBytes got;
    const auto abort_reason =
        BuildOnce(StripForAttempt(plan, attempt), dir.string(), &got);
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
  std::filesystem::remove_all(dir);
  return verdict;
}

FaultPlan ChaosTrial::Shrink(const FaultPlan& plan) {
  FaultPlan cur = plan;
  const auto fails = [&](const FaultPlan& p) { return Check(p).has_value(); };

  // Phase 1, ddmin-style greedy clause removal to a fixpoint: a clause that
  // can be dropped with the failure persisting is irrelevant to the bug.
  bool changed = true;
  while (changed) {
    changed = false;
    const auto try_drop = [&](auto member) {
      auto& vec = cur.*member;
      for (std::size_t i = 0; i < vec.size(); ++i) {
        FaultPlan cand = cur;
        auto& cand_vec = cand.*member;
        cand_vec.erase(cand_vec.begin() + static_cast<std::ptrdiff_t>(i));
        if (fails(cand)) {
          cur = std::move(cand);
          changed = true;
          return;
        }
      }
    };
    try_drop(&FaultPlan::kills);
    if (!changed) try_drop(&FaultPlan::stragglers);
    if (!changed) try_drop(&FaultPlan::disk_errors);
    if (!changed) try_drop(&FaultPlan::bit_flips);
    if (!changed) try_drop(&FaultPlan::torn_writes);
  }

  // Phase 2: halve the surviving numeric parameters while the failure
  // persists, pushing each toward its smallest reproducing value.
  for (std::size_t i = 0; i < cur.kills.size(); ++i) {
    while (cur.kills[i].at_superstep > 0) {
      FaultPlan cand = cur;
      cand.kills[i].at_superstep /= 2;
      if (!fails(cand)) break;
      cur = std::move(cand);
    }
  }
  for (std::size_t i = 0; i < cur.stragglers.size(); ++i) {
    while (cur.stragglers[i].factor > 1.05) {
      FaultPlan cand = cur;
      cand.stragglers[i].factor = 1.0 + (cand.stragglers[i].factor - 1.0) / 2;
      if (!fails(cand)) break;
      cur = std::move(cand);
    }
  }
  const auto halve_rates = [&](auto member) {
    auto& vec = cur.*member;
    for (std::size_t i = 0; i < vec.size(); ++i) {
      while ((cur.*member)[i].rate > 1e-4) {
        FaultPlan cand = cur;
        (cand.*member)[i].rate /= 2;
        if (!fails(cand)) break;
        cur = std::move(cand);
      }
    }
  };
  halve_rates(&FaultPlan::disk_errors);
  halve_rates(&FaultPlan::bit_flips);
  halve_rates(&FaultPlan::torn_writes);
  return cur;
}

std::string ChaosReport::ToJson() const {
  std::ostringstream os;
  os << "{\"trials\":" << trials << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const ChaosFailure& f = failures[i];
    os << (i ? "," : "") << "{\"procs\":" << f.procs << ",\"spec\":\""
       << JsonEscape(f.plan.ToSpec()) << "\",\"original\":\""
       << JsonEscape(f.original.ToSpec()) << "\",\"reason\":\""
       << JsonEscape(f.reason) << "\"}";
  }
  os << "]}";
  return os.str();
}

ChaosReport RunChaosSearch(const ChaosOptions& opts) {
  ChaosReport report;
  for (const int p : opts.procs) {
    ChaosTrial trial(opts, p);
    // Per-procs stream, so adding a cluster size never reshuffles the plans
    // another size already explored.
    Rng rng(opts.seed * 0x9E3779B97F4A7C15ULL +
            static_cast<std::uint64_t>(p));
    for (int i = 0; i < opts.plans; ++i) {
      const FaultPlan plan = RandomPlan(rng, p);
      ++report.trials;
      const auto reason = trial.Check(plan);
      if (opts.verbose) {
        std::fprintf(stderr, "chaos p=%d plan %d/%d [%s]: %s\n", p, i + 1,
                     opts.plans, plan.ToSpec().c_str(),
                     reason ? reason->c_str() : "ok");
      }
      if (reason.has_value()) {
        ChaosFailure failure;
        failure.procs = p;
        failure.original = plan;
        failure.reason = *reason;
        failure.plan = trial.Shrink(plan);
        if (opts.verbose) {
          std::fprintf(stderr, "chaos p=%d plan %d shrunk to [%s]\n", p,
                       i + 1, failure.plan.ToSpec().c_str());
        }
        report.failures.push_back(std::move(failure));
      }
    }
  }
  return report;
}

}  // namespace chaos
}  // namespace sncube
