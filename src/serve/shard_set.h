// Sharded hosting of a materialized cube — the data plane under the
// resilient router (serve/router.h).
//
// The cube is split into N SLICES: every materialized view's rows are
// partitioned by a stable hash of the row's LEADING-dimension value (the
// paper's Di-partition prefix, ViewId column 0; the 0-dim "all" view's
// single row lives on slice 0). Because a slice keeps rows in their
// original order, each slice view stays sorted by the view's sort order,
// and because every source row lands in exactly one slice, per-slice
// partial aggregates compose exactly (sum/min/max distribute over a
// disjoint row partition).
//
// The composition rule has one sharp edge: it only holds when every slice
// answers from the SAME view. Each view is partitioned by its own leading
// dimension, so a row group's fragments for view V and view W live on
// different slices — mixing views across a scatter would lose or double
// count facts. The router therefore pins Query::from_view on every
// sub-query; this file is where that requirement comes from.
//
// EPOCHS (online refresh, src/refresh): the set hosts one or more immutable
// snapshot EPOCHS of the cube at once. An epoch is exactly one copy of its
// cube — its N slices, owned by the set — plus a view index (row counts
// summed over the slices) that routing reads. Epoch 0 is partitioned from
// the construction-time cube; RefreshCoordinator installs successors,
// already sliced, via the two-phase surface below (PrepareEpoch →
// CommitShard per shard → FinalizeEpoch). Every request is pinned to one
// epoch — the router reads serving_epoch() once at entry and passes it to
// every sub-query — so a scatter can never mix rows from two snapshots even
// while a swap is in flight. The previous epoch's copies are retained until
// the NEXT finalize so requests that pinned it mid-swap drain gracefully; a
// request whose pinned epoch has since retired fails typed (kEpochGone),
// never with another epoch's data.
//
// Placement is replication factor 2 over N shard "nodes": shard s hosts the
// PRIMARY copy of slice s and a REPLICA of slice (s-1+N)%N, so slice k can
// be served by shards k and (k+1)%N. Every hosted copy is its own
// CubeServer (own queue, workers, result cache) over an immutable slice
// CubeResult, mirroring a shared-nothing deployment in-process.
//
// Faults are injected here, at the "network boundary" in front of each
// shard, from the serve-tier clauses of a FaultPlan (net/fault.h):
// shardkill windows make every request to the shard fail fast with
// kShardDown; shardslow windows stretch service time by sleeping the
// ServeClock for (factor-1)·max(virtual elapsed, nominal_service_us) —
// virtual quantities only, so under a ManualServeClock a faulted run is a
// deterministic function of the plan. When a kill window closes the shard
// comes back with cold caches (restart semantics): every hosted copy's
// result cache, across all resident epochs, is invalidated before the
// first post-window request.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/fault.h"
#include "query/engine.h"
#include "seqcube/cube_result.h"
#include "serve/lock_order.h"
#include "serve/retry_policy.h"
#include "serve/server.h"

namespace sncube {

// Slice index for a leading-dimension key value: FNV-1a over the key bytes,
// mod n. Stable across runs and platforms — the routing side (point-lookup
// slice pinning) and the partitioning side must agree forever.
int SliceOfLeadingKey(Key value, int n_slices);

// Splits `cube` into `n_slices` per-slice cubes. Every view appears in every
// slice (same id/order/selected, possibly with an empty relation), so
// from_view-pinned routing works against any slice. Each slice relation is
// sized once to its exact row count.
std::vector<CubeResult> PartitionCubeForServing(const CubeResult& cube,
                                                int n_slices);

// The inverse of PartitionCubeForServing for view `id`: merges the view's
// slice rows back in the view's sort order. A view's rows are distinct
// groups sorted by `order` and each slice keeps a subsequence of them, so
// the merge restores the partitioned view byte for byte.
ViewResult AssembleServingView(std::span<const CubeResult> slices, ViewId id);

// AssembleServingView over every view: the cube the slices partition.
CubeResult AssembleServingCube(std::span<const CubeResult> slices);

struct ShardSetOptions {
  int shards = 4;             // N nodes = N slices (>= 1)
  ServerOptions server;       // per-hosted-copy CubeServer config
  // Virtual floor for the shardslow delay computation (see file comment):
  // models the service time of a query that is "instant" in virtual time.
  std::uint64_t nominal_service_us = 200;
  // Borrowed; must outlive the ShardSet. Null = internal wall clock.
  ServeClock* clock = nullptr;
  // Test-only escape hatch for the refresh chaos harness: when false,
  // ExecuteOnShard IGNORES the router-pinned epoch and answers from the
  // shard's own current epoch (whatever was last committed to that shard) —
  // the data-plane bug a naive single-phase swap has. Mid-swap scatters then
  // blend two snapshots, which `sncube chaos --refresh` must catch.
  // Production code never clears this.
  bool pin_epoch = true;
};

// How one try against one shard ended, as the router's policy layer sees it.
enum class TryOutcome : std::uint8_t {
  kOk,         // answer present
  kError,      // execution failed deterministically (e.g. no covering view);
               // retrying cannot help and the shard itself is healthy
  kRejected,   // shard queue full — overload pressure, retryable elsewhere
  kTimedOut,   // shard-side deadline expired — retryable
  kShardDown,  // fault-injected kill window (or shut down) — retryable
  kEpochGone,  // the request's pinned epoch is no longer hosted — the
               // snapshot retired mid-request; not retryable (every shard
               // retired it), the client re-issues and pins the new epoch
};

const char* TryOutcomeName(TryOutcome o);

struct TryResult {
  TryOutcome outcome = TryOutcome::kError;
  std::shared_ptr<const QueryAnswer> answer;  // non-null iff kOk
  std::uint64_t latency_us = 0;  // virtual (ServeClock) elapsed for the try
};

class ShardSet {
 public:
  // Partitions `cube` into the slices of epoch 0; the set keeps no
  // reference to `cube`. Serve-tier clauses of `plan` must target shards <
  // options.shards.
  ShardSet(const CubeResult& cube, const ShardSetOptions& options,
           const FaultPlan& plan = {});
  ~ShardSet();

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  int shards() const { return n_; }
  int PrimaryShardOf(int slice) const { return slice; }
  int ReplicaShardOf(int slice) const { return (slice + 1) % n_; }

  // The epoch new requests pin. Advances exactly at FinalizeEpoch — the
  // in-memory mirror of the snapshot store's sealed commit record.
  std::uint64_t serving_epoch() const {
    return serving_epoch_.load(std::memory_order_acquire);
  }

  // Routing over the FULL cube of `epoch` — all slices must agree on the
  // answering view, so RouteQuery picks it from the epoch's view index,
  // whose row counts are the unpartitioned ones of the same snapshot the
  // scatter will execute on. Throws SncubeError when no materialized view
  // covers the query, a from_view pin is not materialized or does not cover
  // the query, or the epoch has retired.
  ViewId RouteOnFull(const Query& query, std::uint64_t epoch) const;
  ViewId RouteOnFull(const Query& query) const {
    return RouteOnFull(query, serving_epoch());
  }

  // The view index of `epoch` (selected views, ascending mask, rows summed
  // over the slices). Throws SncubeError when the epoch is not hosted.
  std::vector<ViewEntry> Index(std::uint64_t epoch) const;

  // The slices hosted for `epoch`, kept alive by the returned pointer even
  // if the epoch retires meanwhile; null when the epoch is not hosted. The
  // refresh coordinator merges its deltas into the serving epoch's slices.
  std::shared_ptr<const std::vector<CubeResult>> Slices(
      std::uint64_t epoch) const;

  // ---- Two-phase swap surface (driven by refresh::RefreshCoordinator) ----
  //
  // PrepareEpoch hosts the new epoch's slices (one per shard, in the
  // layout PartitionCubeForServing produces) and spins up their servers
  // WITHOUT serving them: requests keep pinning the old epoch. CommitShard
  // marks one shard's node as having adopted the epoch (bookkeeping in
  // pinned mode; the serving epoch in the pin_epoch=false test hole).
  // FinalizeEpoch atomically flips serving_epoch() to `epoch` and retires
  // every epoch older than the immediately preceding one (ClearEpoch-style
  // per-epoch cache invalidation happens by construction: each epoch's
  // servers die with it). AbandonEpoch drops a prepared-but-uncommitted
  // epoch after an aborted refresh. Both return the pages of the epochs
  // they drop to the OS (glibc malloc_trim).
  void PrepareEpoch(std::uint64_t epoch, std::vector<CubeResult> slices);
  void CommitShard(std::uint64_t epoch, int shard);
  void FinalizeEpoch(std::uint64_t epoch);
  void AbandonEpoch(std::uint64_t epoch);

  // Epochs currently hosted (ascending). Monitoring + tests.
  std::vector<std::uint64_t> HostedEpochs() const;

  // Executes `query` against slice `slice`'s copy of `epoch` hosted on
  // `shard` (must be its primary or replica holder). `seq` is the router
  // request sequence number driving the fault windows. Synchronous; applies
  // kill/slow faults and restart cache invalidation.
  TryResult ExecuteOnShard(int shard, int slice, const Query& query,
                           std::uint64_t seq, std::uint64_t epoch);
  TryResult ExecuteOnShard(int shard, int slice, const Query& query,
                           std::uint64_t seq) {
    return ExecuteOnShard(shard, slice, query, seq, serving_epoch());
  }

  // Health probe: is the shard reachable at `seq`? Applies restart
  // invalidation exactly like a request, but does no query work.
  bool Ping(int shard, std::uint64_t seq);

  ServeClock& clock() { return *clock_; }

  // The SERVING epoch's hosted servers, for stats export. Shard s hosts
  // primary_server(s) (slice s) and replica_server((s-1+N)%N).
  const CubeServer& primary_server(int slice) const;
  const CubeServer& replica_server(int slice) const;

  // Drains every hosted server of every resident epoch. Idempotent; the
  // destructor calls it.
  void Shutdown();

 private:
  // One immutable snapshot epoch: its N slices, the view index routing
  // reads, and a (primary, replica) CubeServer pair per shard node. Handed
  // out as shared_ptr so a retire cannot destroy state under an in-flight
  // request.
  struct EpochState {
    std::uint64_t epoch = 0;
    std::vector<CubeResult> slices;  // immutable once servers exist
    std::vector<ViewEntry> index;    // selected views, rows summed
    struct Copy {
      std::unique_ptr<CubeServer> primary;  // slice == shard index
      std::unique_ptr<CubeServer> replica;  // slice == (shard-1+N)%N
    };
    std::vector<Copy> copies;  // one per shard node
  };
  struct HostedShard {
    // True while a finite kill window for this shard has not yet produced
    // its restart invalidation. Cleared exactly once (exchange).
    std::atomic<bool> restart_pending{false};
    // The epoch this node considers current (advanced by CommitShard).
    // Consulted only by the pin_epoch=false test hole; in pinned mode the
    // router-pinned epoch governs.
    std::atomic<std::uint64_t> shard_epoch{0};
  };
  struct KillWindow {
    bool has = false;
    std::uint64_t from = 0;
    std::uint64_t until = FaultPlan::kNoEnd;
  };
  struct SlowWindow {
    bool has = false;
    std::uint64_t from = 0;
    std::uint64_t until = FaultPlan::kNoEnd;
    double factor = 1.0;
  };

  // Builds a fully-wired EpochState (index, servers) over `slices`. No
  // locks.
  std::shared_ptr<EpochState> BuildEpochState(std::uint64_t epoch,
                                              std::vector<CubeResult> slices);
  // nullptr when the epoch is not hosted.
  std::shared_ptr<EpochState> StateFor(std::uint64_t epoch) const;
  // StateFor that throws SncubeError when the epoch is not hosted.
  std::shared_ptr<EpochState> HostedState(std::uint64_t epoch) const;
  static CubeServer* ServerIn(EpochState& st, int shard, int slice, int n);
  bool Killed(int shard, std::uint64_t seq) const;
  double SlowFactor(int shard, std::uint64_t seq) const;
  // Performs the once-only post-kill-window cache invalidation.
  void MaybeRestart(int shard, std::uint64_t seq);

  const int n_;
  ShardSetOptions options_;
  WallServeClock wall_clock_;
  ServeClock* clock_;
  std::atomic<std::uint64_t> serving_epoch_{0};
  // Guards the epoch map only — never held across a server Submit or a
  // state build/teardown. Sits between the health and server layers of the
  // serve lock hierarchy (serve/lock_order.h).
  mutable Mutex mu_ SNCUBE_ACQUIRED_AFTER(kShardSetLayer)
      SNCUBE_ACQUIRED_BEFORE(kServerLayer);
  std::map<std::uint64_t, std::shared_ptr<EpochState>> epochs_
      SNCUBE_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<HostedShard>> hosted_;  // per-shard fault state
  std::vector<KillWindow> kills_;
  std::vector<SlowWindow> slows_;
};

}  // namespace sncube
