#include "seqcube/seq_cube.h"

#include <cmath>

#include "common/status.h"
#include "exec/parallel_algo.h"
#include "io/external_sort.h"
#include "lattice/lattice.h"
#include "relation/aggregate.h"
#include "relation/sort.h"
#include "schedule/pipesort.h"

namespace sncube {

Relation ComputeRootData(const Relation& raw, ViewId root,
                         const std::vector<int>& root_order, AggFn fn,
                         DiskModel* disk, ExecStats* stats) {
  if (root.empty()) {
    // The "all" root: one row, total aggregate.
    if (disk != nullptr) disk->ChargeRead(raw.ByteSize());
    if (stats != nullptr) {
      stats->records_scanned += raw.size();
      stats->scans += 1;
    }
    Relation out(0);
    if (!raw.empty()) {
      Measure acc = raw.measure(0);
      for (std::size_t r = 1; r < raw.size(); ++r) {
        acc = CombineMeasure(fn, acc, raw.measure(r));
      }
      out.Append({}, acc);
    }
    return out;
  }

  // Raw columns are the global dimensions, so the order doubles as the sort
  // column list.
  const std::vector<int> sort_cols(root_order.begin(), root_order.end());
  Relation sorted;
  if (disk != nullptr) {
    sorted = ExternalSort(raw, sort_cols, *disk);
  } else {
    sorted = exec::SortRelationAuto(raw, sort_cols);
  }
  if (stats != nullptr) {
    stats->sorts += 1;
    const auto rows = static_cast<double>(raw.size());
    stats->sort_cost_units += rows * std::log2(std::max(rows, 2.0));
    stats->records_scanned += raw.size();
    stats->scans += 1;
  }

  // Aggregate on the root's dimensions (columns in root_order order), then
  // restore the canonical column layout. The row order — sorted by
  // root_order — is unaffected by the column permutation.
  Relation agg = AggregateSortedPrefix(sorted, sort_cols, fn);
  // agg's column j holds root_order[j]; canonical position of dim
  // root.DimList()[t] within agg is the index of that dim in root_order.
  std::vector<int> perm;
  perm.reserve(root_order.size());
  for (int dim : root.DimList()) {
    int pos = -1;
    for (std::size_t k = 0; k < root_order.size(); ++k) {
      if (root_order[k] == dim) {
        pos = static_cast<int>(k);
        break;
      }
    }
    SNCUBE_CHECK(pos >= 0);
    perm.push_back(pos);
  }
  Relation canonical = PermuteColumns(agg, perm);
  if (disk != nullptr) disk->ChargeWrite(canonical.ByteSize());
  if (stats != nullptr) stats->rows_emitted += canonical.size();
  return canonical;
}

CubeResult SequentialPipesortCube(const Relation& raw, const Schema& schema,
                                  AggFn fn, DiskModel* disk,
                                  ExecStats* stats) {
  SNCUBE_CHECK(raw.width() == schema.dims());
  const int d = schema.dims();
  const ViewId root = ViewId::Full(d);
  const AnalyticEstimator est(schema, static_cast<double>(raw.size()));
  const ScheduleTree tree =
      BuildPipesortTree(AllViews(d), root, root.DimList(), est);
  Relation root_data =
      ComputeRootData(raw, root, root.DimList(), fn, disk, stats);
  return ExecuteScheduleTree(tree, std::move(root_data), fn, disk, stats);
}

CubeResult SequentialCube(const Relation& raw, const Schema& schema,
                          const std::vector<ViewId>& selected, AggFn fn,
                          DiskModel* disk, ExecStats* stats,
                          PartialStrategy strategy, const ViewSink& sink) {
  SNCUBE_CHECK(raw.width() == schema.dims());
  const int d = schema.dims();
  const AnalyticEstimator est(schema, static_cast<double>(raw.size()));

  CubeResult result;
  for (const auto& partition : PartitionViews(selected, d)) {
    if (partition.empty()) continue;
    const ViewId root = PartitionRoot(partition);
    const ScheduleTree tree =
        BuildPartialTree(partition, root, root.DimList(), est, strategy);
    Relation root_data =
        ComputeRootData(raw, root, root.DimList(), fn, disk, stats);
    CubeResult part = ExecuteScheduleTree(tree, std::move(root_data), fn,
                                          disk, stats, {}, sink);
    for (auto& [id, vr] : part.views) {
      result.views[id] = std::move(vr);
    }
  }
  return result;
}

}  // namespace sncube
