// RefreshCoordinator — the two-phase atomic swap that installs a refreshed
// cube into the serving tier under live traffic (DESIGN.md §14).
//
// One Refresh(delta) call runs the full pipeline:
//
//   delta ── AffectedViews ── ComputeDeltaCube ── PartitionCubeForServing
//     ── per slice s: MergeDeltaCube(serving slice s, delta slice s) ──▶ E
//                                                                     │
//   ViewStore::Writer: epoch E's view files ── "prepare E" ───────────┤
//   ShardSet:      PrepareEpoch(E)  (hosted, NOT serving)             │
//   per shard s:   "commitshard E s" ── CommitShard(E, s)             │
//   ViewStore::Writer: "commit E"   ◀── THE atomic commit point       │
//   ShardSet:      FinalizeEpoch(E)  (serving_epoch ← E)              ▼
//   cleanup:       remove view files of epochs ≤ E-2
//
// The store at RefreshOptions::dir is a cube directory (seqcube/
// view_store.h) that holds every view the tier serves, auxiliaries
// included; the coordinator starts it empty, and `sncube info`/`query` can
// read it once an epoch is committed. The merge runs slice by slice:
// partitioning keeps every group's rows on one slice in base order, so
// merging the delta's slice s into the serving epoch's slice s gives
// exactly slice s of the whole-cube merge. Each view file is written from
// AssembleServingView over the new slices, one view in memory at a time,
// with the bytes the writer gives the whole merged cube's view. No full cube
// exists after epoch 0.
//
// CRASH MODEL. A refreshkill:<K> fault clause (net/fault.h) makes the
// coordinator throw InjectedFaultError on entry to phase K — every durable
// byte written before the throw stays (the writer is abandoned, not undone),
// everything after never happens, which is exactly a process crash at that
// point. The phases:
//
//   0  before any store bytes (delta cube computed, nothing durable)
//   1  mid-prepare: after the first view file, before the rest
//   2  after the sealed "prepare E" manifest record
//   3  between per-shard commit records (entered once per shard after the
//      first, so a p-shard swap has p-1 distinct phase-3 kill points)
//   4  before the final sealed "commit E" record
//   5  after commit, before old-epoch retire/cleanup
//
// The invariant (enforced by tests/refresh_test.cc and `sncube chaos
// --refresh`): after a crash at ANY phase, ViewStore::Recover() plus the
// caller's base-cube fallback serves a cube byte-identical to either the
// pre-refresh cube (crash at phase ≤ 4: no commit record) or the
// post-refresh cube (phase 5: commit sealed) — never a blend, because the
// single sealed "commit E" line is the only state transition and requests
// are epoch-pinned end to end (serve/shard_set.h).
//
// Metrics (refresh.*): refresh.epochs_installed, refresh.delta_rows,
// refresh.views_rebuilt, refresh.merged_rows, refresh.phases_entered.
// Trace spans: "refresh" wrapping "refresh-delta-cube", "refresh-merge",
// "refresh-snapshot", "refresh-swap".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/fault.h"
#include "obs/metrics_registry.h"
#include "refresh/delta.h"
#include "seqcube/view_store.h"
#include "serve/shard_set.h"

namespace sncube {

struct RefreshOptions {
  std::string dir;  // the store's cube directory (required)
  AggFn fn = AggFn::kSum;
  PartialStrategy strategy = PartialStrategy::kPrunedPipesort;
  // Borrowed, optional. The coordinator acts as RANK 0 of this injector:
  // refreshkill clauses crash it at phase entries, and the injector is
  // installed as the store DiskModel's fault hook so rank-0
  // diskerr/bitflip/tornwrite clauses strike the store's writes.
  FaultInjector* injector = nullptr;
  obs::MetricsRegistry* metrics = nullptr;  // borrowed, optional
  // Test hook: runs on entry to each phase AFTER the injector's kill check.
  // The refresh chaos harness drives concurrent query traffic from here to
  // interleave requests with every swap step deterministically.
  std::function<void(int phase)> on_phase;
};

class RefreshCoordinator {
 public:
  // `shards` is the live serving tier (borrowed; must outlive the
  // coordinator), and `schema` its cube's canonical schema. `base` is the
  // cube `shards` currently serves; it is checked against the serving
  // epoch's view index and not kept — every refresh merges into the serving
  // epoch's slices.
  RefreshCoordinator(ShardSet& shards, std::shared_ptr<const CubeResult> base,
                     const Schema& schema, RefreshOptions options);

  // Ingests one insert-only delta (canonical schema layout), builds the
  // refreshed cube, persists it, and two-phase-swaps it in. Returns the new
  // serving epoch. Throws InjectedFaultError on a planned refreshkill (the
  // simulated crash — the coordinator object is dead afterwards; recovery is
  // a fresh process via ViewStore::Recover), SncubeIoError on persistent
  // disk failure (also left for Recover: the coordinator never undoes).
  std::uint64_t Refresh(const Relation& delta);

 private:
  void EnterPhase(int phase);

  ShardSet& shards_;
  Schema schema_;
  RefreshOptions options_;
  DiskModel disk_;
  ViewStore store_;
};

}  // namespace sncube
