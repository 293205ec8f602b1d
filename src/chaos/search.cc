#include "chaos/search.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace sncube {
namespace chaos {
namespace {

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

// Calls `f` with each clause family of FaultPlan in declaration order until
// one returns true; returns whether one did.
template <typename F>
bool AnyFamily(F&& f) {
  return f(&FaultPlan::kills) || f(&FaultPlan::stragglers) ||
         f(&FaultPlan::disk_errors) || f(&FaultPlan::bit_flips) ||
         f(&FaultPlan::torn_writes) || f(&FaultPlan::shard_kills) ||
         f(&FaultPlan::shard_slows) || f(&FaultPlan::refresh_kills);
}

}  // namespace

DatasetSpec TrialDataset(const SearchOptions& opts) {
  DatasetSpec spec;
  spec.rows = static_cast<std::int64_t>(opts.rows);
  spec.cardinalities = opts.cards;
  spec.seed = 29;
  return spec;
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

FaultPlan ShrinkPlan(const FaultPlan& plan, std::uint64_t horizon,
                     const CheckFn& check) {
  FaultPlan cur = plan;
  const auto fails = [&](const FaultPlan& p) { return check(p).has_value(); };

  // Phase 1, ddmin-style: a clause that can be dropped with the failure
  // persisting is irrelevant to the bug.
  const auto drop_one = [&](auto member) {
    for (std::size_t i = 0; i < (cur.*member).size(); ++i) {
      FaultPlan cand = cur;
      auto& clauses = cand.*member;
      clauses.erase(clauses.begin() + static_cast<std::ptrdiff_t>(i));
      if (fails(cand)) {
        cur = std::move(cand);
        return true;
      }
    }
    return false;
  };
  while (AnyFamily(drop_one)) {
  }

  // Phase 2: for each clause of `member`, each step in turn moves one
  // number toward its floor (returning false once it is there) for as long
  // as the plan still fails.
  const auto minimize = [&](auto member, auto... steps) {
    for (std::size_t i = 0; i < (cur.*member).size(); ++i) {
      const auto shrink = [&](auto step) {
        for (;;) {
          FaultPlan cand = cur;
          if (!step((cand.*member)[i]) || !fails(cand)) return;
          cur = std::move(cand);
        }
      };
      (shrink(steps), ...);
    }
  };
  const auto earlier_kill = [](FaultPlan::Kill& k) {
    if (k.at_superstep == 0) return false;
    k.at_superstep /= 2;
    return true;
  };
  const auto gentler = [](auto& c) {
    if (c.factor <= 1.05) return false;
    c.factor = 1.0 + (c.factor - 1.0) / 2;
    return true;
  };
  const auto rarer = [](auto& c) {
    if (c.rate <= 1e-4) return false;
    c.rate /= 2;
    return true;
  };
  const auto shorter = [horizon](auto& c) {
    const std::uint64_t end = c.until == FaultPlan::kNoEnd ? horizon : c.until;
    if (end <= c.from + 1) return false;
    c.until = c.from + (end - c.from) / 2;
    return true;
  };
  const auto earlier = [](auto& c) {
    if (c.from == 0) return false;
    const std::uint64_t from = c.from / 2;
    if (c.until != FaultPlan::kNoEnd) c.until = from + (c.until - c.from);
    c.from = from;
    return true;
  };
  minimize(&FaultPlan::kills, earlier_kill);
  minimize(&FaultPlan::stragglers, gentler);
  minimize(&FaultPlan::disk_errors, rarer);
  minimize(&FaultPlan::bit_flips, rarer);
  minimize(&FaultPlan::torn_writes, rarer);
  minimize(&FaultPlan::shard_kills, shorter, earlier);
  minimize(&FaultPlan::shard_slows, shorter, earlier);
  minimize(&FaultPlan::shard_slows, gentler);
  return cur;
}

ScratchRoot::ScratchRoot(const std::string& dir)
    : path_(dir), owned_(dir.empty()) {
  if (owned_) {
    // Distinct per root, so two trials alive at once never share one.
    static std::atomic<std::uint64_t> roots{0};
    path_ = (std::filesystem::temp_directory_path() /
             ("sncube_chaos_" + std::to_string(::getpid()) + "_" +
              std::to_string(roots++)))
                .string();
  }
  std::filesystem::create_directories(path_);
}

ScratchRoot::~ScratchRoot() {
  if (owned_) Remove(path_);
}

std::string ScratchRoot::NextDir() {
  const std::string dir = path_ + "/trial_" + std::to_string(checks_++);
  Remove(dir);
  return dir;
}

void ScratchRoot::Remove(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

void SearchSize(const SearchOptions& opts, const Tier& tier, int size,
                const CheckFn& check, ChaosReport& report) {
  Rng rng(opts.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(size) +
          tier.salt);
  for (int i = 0; i < opts.plans; ++i) {
    const FaultPlan plan = tier.draw(rng, size);
    ++report.trials;
    const Verdict reason = check(plan);
    if (opts.verbose) {
      std::fprintf(stderr, "%s=%d plan %d/%d [%s]: %s\n", tier.label, size,
                   i + 1, opts.plans, plan.ToSpec().c_str(),
                   reason ? reason->c_str() : "ok");
    }
    if (!reason.has_value()) continue;
    ChaosFailure failure;
    failure.procs = size;
    failure.original = plan;
    failure.reason = *reason;
    failure.plan = ShrinkPlan(plan, tier.horizon, check);
    if (opts.verbose) {
      std::fprintf(stderr, "%s=%d plan %d shrunk to [%s]\n", tier.label, size,
                   i + 1, failure.plan.ToSpec().c_str());
    }
    report.failures.push_back(std::move(failure));
  }
}

}  // namespace chaos
}  // namespace sncube
