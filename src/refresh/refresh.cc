#include "refresh/refresh.h"

#include <utility>

#include "common/status.h"
#include "obs/trace.h"

namespace sncube {

RefreshCoordinator::RefreshCoordinator(ShardSet& shards,
                                       std::shared_ptr<const CubeResult> base,
                                       const Schema& schema,
                                       RefreshOptions options)
    : shards_(shards),
      schema_(schema),
      options_(std::move(options)),
      store_(options_.dir, &disk_) {
  SNCUBE_CHECK_MSG(base != nullptr, "refresh needs the serving base cube");
  SNCUBE_CHECK_MSG(!options_.dir.empty(), "refresh needs a store directory");
  SNCUBE_CHECK_MSG(IndexOf(*base) == shards_.Index(shards_.serving_epoch()),
                   "refresh base is not the cube the shard set serves");
  // The store holds the epochs this coordinator commits, nothing older.
  store_.Clear();
  // The coordinator is rank 0 of its injector: transient errors and silent
  // corruption from rank-0 disk clauses strike the store writes below.
  if (options_.injector != nullptr) disk_.set_fault_hook(options_.injector);
}

void RefreshCoordinator::EnterPhase(int phase) {
  // Kill check FIRST: a refreshkill:<phase> crash happens on entry, before
  // any work (or test traffic) attributed to the phase.
  if (options_.injector != nullptr) options_.injector->OnRefreshPhase(phase);
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("refresh.phases_entered").Increment();
  }
  if (options_.on_phase) options_.on_phase(phase);
}

std::uint64_t RefreshCoordinator::Refresh(const Relation& delta) {
  SNCUBE_TRACE_SPAN("refresh");
  const std::uint64_t epoch = shards_.serving_epoch() + 1;

  // ---- Compute (nothing durable, nothing serving) ----
  // The merge base is the serving epoch's slices; that epoch stays hosted
  // until the finalize after this one.
  const auto base = shards_.Slices(epoch - 1);
  SNCUBE_CHECK(base != nullptr);
  const std::vector<ViewId> affected = AffectedViews(base->front(), delta);
  std::vector<CubeResult> next(base->size());
  {
    SNCUBE_TRACE_SPAN("refresh-delta-cube");
    const std::vector<CubeResult> delta_slices = PartitionCubeForServing(
        ComputeDeltaCube(delta, schema_, affected, options_.fn, &disk_,
                         nullptr, options_.strategy),
        shards_.shards());
    SNCUBE_TRACE_SPAN("refresh-merge");
    for (std::size_t s = 0; s < next.size(); ++s) {
      next[s] = MergeDeltaCube((*base)[s], delta_slices[s], options_.fn);
    }
  }
  if (options_.metrics != nullptr) {
    std::uint64_t merged_rows = 0;
    for (const CubeResult& slice : next) {
      merged_rows += slice.TotalRows(/*selected_only=*/false);
    }
    options_.metrics->GetCounter("refresh.delta_rows").Add(delta.size());
    options_.metrics->GetCounter("refresh.views_rebuilt")
        .Add(affected.size());
    options_.metrics->GetCounter("refresh.merged_rows").Add(merged_rows);
  }

  // ---- Prepare: durable bytes, still serving the old epoch ----
  EnterPhase(0);
  ViewStore::Writer writer(store_, schema_, epoch);
  try {
    {
      SNCUBE_TRACE_SPAN("refresh-snapshot");
      // One assembled view in memory at a time.
      bool first = true;
      for (const auto& [id, vr] : next.front().views) {
        writer.Write(AssembleServingView(next, id));
        if (first) EnterPhase(1);
        first = false;
      }
      writer.Prepare();
    }
    EnterPhase(2);

    // ---- Two-phase swap ----
    SNCUBE_TRACE_SPAN("refresh-swap");
    shards_.PrepareEpoch(epoch, std::move(next));
    for (int s = 0; s < shards_.shards(); ++s) {
      if (s > 0) EnterPhase(3);
      writer.CommitShard(s);
      shards_.CommitShard(epoch, s);
    }
    EnterPhase(4);
    writer.Commit();  // THE commit point
    shards_.FinalizeEpoch(epoch);
    EnterPhase(5);
    if (epoch >= 1) store_.RemoveEpochsBelow(epoch - 1);
  } catch (...) {
    // A failure is the coordinator's crash: what landed stays for Recover,
    // as a killed process would leave it.
    writer.Abandon();
    throw;
  }

  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("refresh.epochs_installed").Increment();
  }
  return epoch;
}

}  // namespace sncube
