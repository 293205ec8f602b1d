#include "core/parallel_cube.h"

#include <algorithm>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/sample_sort.h"
#include "lattice/lattice.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "relation/aggregate.h"
#include "schedule/pipesort.h"
#include "seqcube/pipeline.h"
#include "seqcube/seq_cube.h"

namespace sncube {
namespace {

void ChargeExecStats(Comm& comm, const ExecStats& es) {
  // Scans (EmitChain's group-carry pass) are inherently serial; the
  // pipeline sorts behind sort_cost_units ran on the rank's exec pool, so
  // their work is charged at span (work / threads_per_rank).
  comm.ChargeScanRecords(es.records_scanned + es.rows_emitted);
  comm.ChargeParallelCpu(es.sort_cost_units * comm.cost().cpu_sort_record_s);
}

// True when `part` contains every view of the full-cube Di-partition for its
// root (all subsets of the root keeping its leading dimension) — in that
// case plain Pipesort applies; otherwise the partial-cube builders do.
bool IsFullPartition(const std::vector<ViewId>& part, ViewId root) {
  if (root.empty()) return false;
  const int lead = root.DimList().front();
  std::size_t with_lead = 0;
  for (ViewId v : part) with_lead += v.Contains(lead) ? 1 : 0;
  return with_lead == (1u << (root.dim_count() - 1));
}

// Builds the schedule tree for one partition on the calling rank, using its
// local (already sorted) root data when the FM estimator is requested.
ScheduleTree BuildTreeLocally(Comm& comm, const std::vector<ViewId>& part,
                              ViewId root, const std::vector<int>& root_order,
                              const Relation& local_root_data,
                              std::uint64_t global_rows, const Schema& schema,
                              const ParallelCubeOptions& opts) {
  std::unique_ptr<ViewSizeEstimator> estimator;
  if (opts.estimator == EstimatorKind::kFm && !root.empty()) {
    // Sketch every subset of the root so both full and pruned-partial
    // builders find their estimates. One pass over the local root data.
    std::vector<ViewId> universe;
    const auto dims = root.DimList();
    SNCUBE_CHECK(dims.size() <= 16);
    for (std::uint32_t bits = 0; bits < (1u << dims.size()); ++bits) {
      ViewId v;
      for (std::size_t i = 0; i < dims.size(); ++i) {
        if ((bits >> i) & 1u) v = v.With(dims[i]);
      }
      universe.push_back(v);
    }
    comm.ChargeCpu(static_cast<double>(local_root_data.size()) *
                   static_cast<double>(universe.size()) * 0.25 *
                   comm.cost().cpu_scan_record_s);
    estimator = std::make_unique<FmViewEstimator>(local_root_data, dims,
                                                  universe);
  } else {
    estimator = std::make_unique<AnalyticEstimator>(
        schema, static_cast<double>(global_rows));
  }

  return IsFullPartition(part, root)
             ? BuildPipesortTree(part, root, root_order, *estimator)
             : BuildPartialTree(part, root, root_order, *estimator,
                                opts.partial_strategy);
}

}  // namespace

CubeResult BuildParallelCube(Comm& comm, const Relation& local_raw,
                             const Schema& schema,
                             const std::vector<ViewId>& selected,
                             const ParallelCubeOptions& opts,
                             ParallelCubeStats* stats) {
  SNCUBE_CHECK(local_raw.width() == schema.dims());
  const int d = schema.dims();

  // Procedure 1 as a span tree: "build" covers the whole call; each
  // non-empty Di-partition gets a "dimension/i" child whose own children
  // mirror the SetPhase sequence (partition → schedule → compute → merge
  // [→ checkpoint]). DESIGN.md §10 maps paper figures onto these names.
  SNCUBE_TRACE_SPAN("build");

  comm.SetPhase("partition");
  const std::uint64_t global_rows = comm.AllReduceSum(local_raw.size());

  // Checkpoint/restart: agree cluster-wide on the resume point — the last
  // partition index that EVERY rank recorded complete. A rank that died
  // mid-partition (or a fresh directory) pulls the minimum down, forcing
  // that partition to be recomputed everywhere, so all ranks execute the
  // identical collective sequence after this point.
  CheckpointManager ckpt(opts.checkpoint, comm.rank());
  int resume_before = -1;
  if (ckpt.enabled()) {
    comm.SetPhase("checkpoint/restore");
    // Verified resume point: a manifest-named shard that fails its checksum
    // is quarantined and treated like a missing one, pulling this rank's
    // offer — and via the min-agreement the whole cluster — back to the last
    // partition everyone can actually restore.
    resume_before =
        static_cast<int>(comm.AllReduceMin(
            static_cast<std::uint64_t>(ckpt.LastVerifiedPartition(comm) + 1))) -
        1;
  }

  CubeResult output;
  const auto partitions = PartitionViews(selected, d);
  for (int i = 0; i < d; ++i) {
    const auto& part = partitions[i];
    if (part.empty()) continue;
    if (stats != nullptr) stats->partitions += 1;

    SNCUBE_TRACE_SPAN_IDX("dimension", i);
    obs::PhaseSpan step;

    if (i <= resume_before) {
      // This partition was completed by every rank in a previous run:
      // restore the merged shards from this rank's checkpoint instead of
      // recomputing. The restored rows are byte-for-byte what the compute
      // path produced, so the final CubeResult is identical either way.
      comm.SetPhase("checkpoint/restore");
      step.Switch("restore", i);
      ckpt.LoadPartition(comm, i, &output);
      if (stats != nullptr) stats->partitions_restored += 1;
      continue;
    }

    const ViewId root = PartitionRoot(part);
    const std::vector<int> root_order = root.DimList();
    const std::vector<int> root_cols = root.empty()
                                           ? std::vector<int>{}
                                           : ColumnsOf(root, root_order);

    const std::string tag = "/" + std::to_string(i);

    // ---- Step 1: data partitioning -------------------------------------
    comm.SetPhase("partition" + tag);
    step.Switch("partition", i);
    ExecStats root_stats;
    Relation root_local = ComputeRootData(local_raw, root, root_order,
                                          opts.fn, &comm.disk(), &root_stats);
    ChargeExecStats(comm, root_stats);
    if (stats != nullptr) stats->exec += root_stats;

    Relation root_sorted;
    if (root.empty()) {
      // Degenerate {all}-only partition: nothing to sort.
      root_sorted = std::move(root_local);
    } else {
      SampleSortStats ss;
      root_sorted = AdaptiveSampleSort(comm, std::move(root_local), root_cols,
                                       opts.gamma_partition, &ss);
      if (stats != nullptr && ss.shifted) stats->sample_sort_shifts += 1;
    }
    // Step 1c: recompute the root for the received range (local dedup).
    comm.ChargeScanRecords(root_sorted.size());
    Relation root_data = CollapseSorted(root_sorted, opts.fn);
    root_sorted.Clear();

    // ---- Step 2: local Di-partition computation -------------------------
    comm.SetPhase("schedule" + tag);
    step.Switch("schedule", i);
    ScheduleTree tree;
    if (opts.tree_mode == TreeMode::kGlobal) {
      // Step 2a/2b: P0 builds Ti from ITS data and broadcasts it.
      ByteBuffer tree_msg;
      if (comm.rank() == 0) {
        tree_msg = BuildTreeLocally(comm, part, root, root_order, root_data,
                                    global_rows, schema, opts)
                       .Serialize();
      }
      tree_msg = comm.Broadcast(0, std::move(tree_msg));
      tree = ScheduleTree::Deserialize(tree_msg);
    } else {
      // Local mode: every rank optimizes for its own data; the merge will
      // pay for any disagreement in sort orders.
      tree = BuildTreeLocally(comm, part, root, root_order, root_data,
                              global_rows, schema, opts);
    }

    comm.SetPhase("compute" + tag);
    step.Switch("compute", i);
    ExecStats exec_stats;
    // Charge per pipeline, inside each pipeline's open span, so the trace
    // shows every pipeline with its own simulated extent; the increments sum
    // to exec_stats, so total sim cost is identical to batch charging.
    CubeResult cube = ExecuteScheduleTree(
        tree, std::move(root_data), opts.fn, &comm.disk(), &exec_stats,
        [&comm](const ExecStats& d) { ChargeExecStats(comm, d); });
    if (stats != nullptr) stats->exec += exec_stats;

    // ---- Step 3: merge of local Di-partitions ---------------------------
    comm.SetPhase("merge" + tag);
    step.Switch("merge", i);
    MergeOptions merge_opts;
    merge_opts.fn = opts.fn;
    merge_opts.gamma = opts.gamma_merge;
    merge_opts.sample_capacity_factor = opts.sample_capacity_factor;
    merge_opts.force_case3 = opts.force_case3;
    MergeStats merge_stats;
    MergePartitions(comm, cube, root_order, merge_opts, &merge_stats);
    if (stats != nullptr) stats->merge += merge_stats;

    if (ckpt.enabled()) {
      comm.SetPhase("checkpoint" + tag);
      step.Switch("checkpoint", i);
      ckpt.SavePartition(comm, i, cube);
    }

    for (auto& [id, vr] : cube.views) {
      output.views[id] = std::move(vr);
    }
  }
  return output;
}

}  // namespace sncube
