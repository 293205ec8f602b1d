// Deterministic fault injection for the simulated shared-nothing cluster.
//
// A FaultPlan describes, ahead of a Run, every fault the cluster should
// experience: ranks killed on entry to their k-th collective, straggler
// ranks whose CPU and disk work is stretched by a multiplier (visible in the
// BSP sim clock), and per-rank transient disk error rates injected into
// DiskModel charge sites. All randomness derives from the plan seed and the
// rank, so a given (plan, program) pair reproduces the identical failure
// bit-for-bit — which is what lets tests assert that a killed-and-restarted
// build equals a fault-free one.
//
// Plans are parseable from a compact spec string (CLI `--fault-plan`):
//
//   kill:<rank>@<superstep>   kill rank on entry to its superstep-th
//                             collective of the Run (0-based)
//   slow:<rank>x<factor>      multiply rank's CPU+disk simulated time
//   diskerr:<rank>:<rate>     each disk op fails transiently w.p. rate
//   bitflip:<rank>:<rate>     each persisted frame has one random bit
//                             flipped w.p. rate (silent corruption)
//   tornwrite:<rank>:<rate>   each persisted frame is truncated at a
//                             random offset w.p. rate (torn write)
//   seed:<n>                  RNG seed for all probabilistic draws
//
// Serve-tier clauses target the sharded serving layer instead of build
// ranks; their windows are half-open intervals of ROUTER REQUEST SEQUENCE
// NUMBERS (0-based, assigned at Router::Execute entry), so a plan replays
// identically regardless of wall-clock speed:
//
//   shardkill:<shard>:<from>[-<until>]
//                             shard is down for requests [from, until);
//                             omitted <until> means "for the rest of the
//                             run". When the window closes the shard comes
//                             back with COLD CACHES (restart semantics).
//   shardslow:<shard>:<from>[-<until>]:<factor>
//                             shard's service time is stretched by factor
//                             (>= 1) for requests in the window
//
// Refresh clauses target the online-refresh coordinator (src/refresh). The
// coordinator acts as rank 0 of its own injector, so bitflip/tornwrite
// clauses for rank 0 corrupt its store's segment and MANIFEST writes after
// they are sealed. (In a build, bitflip/tornwrite strike only the sealed
// external-sort runs a rank spills.)
//
//   refreshkill:<phase>       the refresh coordinator crashes (throws
//                             InjectedFaultError) on entry to two-phase-swap
//                             phase <phase> — numbering in refresh/refresh.h
//
// joined with ';', e.g. "kill:1@5;slow:2x3.0;diskerr:0:0.01;seed:7" or
// "shardkill:1:40-90;shardslow:0:0-200:8;seed:3" or
// "refreshkill:3;tornwrite:0:1;seed:5".
// Parse rejects duplicate clauses for the same (kind, rank/shard), rates
// outside [0,1], slow factors below 1, empty windows, and non-numeric
// values — each with a typed SncubeError naming the offending clause.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/disk.h"

namespace sncube {

struct FaultPlan {
  // "Window never closes" sentinel for serve-tier clause windows.
  static constexpr std::uint64_t kNoEnd = ~0ULL;

  struct Kill {
    int rank = 0;
    std::uint64_t at_superstep = 0;  // collective index within the Run
  };
  struct Straggler {
    int rank = 0;
    double factor = 1.0;  // >= 1: multiplies CPU and disk simulated seconds
  };
  struct DiskErrors {
    int rank = 0;
    double rate = 0.0;  // per-operation transient failure probability
  };
  struct BitFlips {
    int rank = 0;
    double rate = 0.0;  // per-written-frame single-bit-flip probability
  };
  struct TornWrites {
    int rank = 0;
    double rate = 0.0;  // per-written-frame truncation probability
  };
  // Serve tier: shard is unreachable for router request sequence numbers in
  // [from, until). kNoEnd means the shard never comes back.
  struct ShardKill {
    int shard = 0;
    std::uint64_t from = 0;
    std::uint64_t until = kNoEnd;
  };
  // Serve tier: shard's service time is multiplied by factor (>= 1) for
  // router request sequence numbers in [from, until).
  struct ShardSlow {
    int shard = 0;
    std::uint64_t from = 0;
    std::uint64_t until = kNoEnd;
    double factor = 1.0;
  };
  // Refresh tier: the coordinator crashes on entry to two-phase-swap phase
  // `phase` (RefreshCoordinator's numbering, refresh/refresh.h). Modeled as
  // a thrown InjectedFaultError; recovery is ViewStore::Recover.
  struct RefreshKill {
    int phase = 0;
  };

  std::vector<Kill> kills;
  std::vector<Straggler> stragglers;
  std::vector<DiskErrors> disk_errors;
  std::vector<BitFlips> bit_flips;
  std::vector<TornWrites> torn_writes;
  std::vector<ShardKill> shard_kills;
  std::vector<ShardSlow> shard_slows;
  std::vector<RefreshKill> refresh_kills;
  std::uint64_t seed = 0;

  bool empty() const {
    return kills.empty() && stragglers.empty() && disk_errors.empty() &&
           bit_flips.empty() && torn_writes.empty() && shard_kills.empty() &&
           shard_slows.empty() && refresh_kills.empty();
  }

  // Parses the spec grammar above; throws SncubeError on malformed input.
  static FaultPlan Parse(const std::string& spec);

  // Canonical spec string that Parse round-trips: clauses in declaration
  // order, seed last. This is what the chaos explorer prints for a shrunk
  // reproducing plan.
  std::string ToSpec() const;
};

// One rank's view of the plan, constructed per Run. Consulted by Comm at
// every collective entry and, via the DiskFaultHook interface, by the rank's
// DiskModel on every charge. Thread-safety: confined to its rank's thread,
// like the Comm that owns it — the mutable Rng state needs no lock because
// no other rank ever touches this injector.
class FaultInjector : public DiskFaultHook {
 public:
  FaultInjector(const FaultPlan& plan, int rank);

  // Throws InjectedFaultError when the plan kills this rank at `superstep`.
  void OnCollective(std::uint64_t superstep);

  // Throws InjectedFaultError when the plan kills the refresh coordinator on
  // entry to two-phase-swap phase `phase`. Refresh kills are not rank-scoped:
  // every injector sees them, and the coordinator runs as rank 0.
  void OnRefreshPhase(int phase);

  // Straggler multiplier for this rank (1.0 when not a straggler).
  double slowdown() const { return slowdown_; }

  // DiskFaultHook: deterministic per-op transient failure decision.
  bool NextOpFails(bool is_write) override;

  // DiskFaultHook: deterministic silent-corruption decision for a persisted
  // frame of `bytes` bytes. Draws from a stream separate from the transient
  // error one, so enabling bitflip/tornwrite never perturbs which disk ops
  // a given seed makes fail.
  WriteFault NextWriteFault(std::size_t bytes) override;

 private:
  int rank_;
  bool has_kill_ = false;
  std::uint64_t kill_at_ = 0;
  double slowdown_ = 1.0;
  double disk_error_rate_ = 0.0;
  double bit_flip_rate_ = 0.0;
  double torn_write_rate_ = 0.0;
  std::vector<int> refresh_kill_phases_;  // sorted, deduplicated
  Rng rng_;
  Rng write_rng_;
};

}  // namespace sncube
