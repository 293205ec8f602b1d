#include "seqcube/pipeline.h"

#include <cmath>
#include <vector>

#include "common/status.h"
#include "exec/parallel_algo.h"
#include "io/external_sort.h"
#include "obs/trace.h"
#include "relation/sort.h"

namespace sncube {
namespace {

// One view being filled during a pipeline scan.
struct ChainLevel {
  int node = -1;        // tree index
  int prefix_len = 0;   // group key = first prefix_len head-order columns
  std::vector<int> emit_map;  // canonical key position → head-order position
  Measure acc = 0;
  Relation out;
};

// Emits all views of the scan chain rooted at `head_node`'s subtree in one
// pass over `source`, whose rows are sorted by the chain head's order.
// `cols_seq[k]` is the source column holding the k-th head-order dimension.
// `include_head` distinguishes a sort-edge pipeline (the head itself is
// aggregated out of its parent's sorted rows) from the root pipeline (the
// root is already materialized; only descendants are emitted).
void EmitChain(const ScheduleTree& tree, const Relation& source,
               const std::vector<int>& cols_seq, int head_node,
               bool include_head, AggFn fn, DiskModel* disk, ExecStats* stats,
               CubeResult& result) {
  // Collect the chain: head (optional) then scan descendants.
  std::vector<ChainLevel> levels;
  int node = include_head ? head_node : tree.ScanChild(head_node);
  while (node >= 0) {
    const ScheduleNode& n = tree.node(node);
    ChainLevel level;
    level.node = node;
    level.prefix_len = n.view.dim_count();
    // Canonical emission: key position t holds dimension canonical[t], which
    // sits at some index < prefix_len of the head order.
    const auto canonical = n.view.DimList();
    level.emit_map.reserve(canonical.size());
    for (int dim : canonical) {
      int pos = -1;
      for (int k = 0; k < level.prefix_len; ++k) {
        if (n.order[k] == dim) {
          pos = k;
          break;
        }
      }
      SNCUBE_CHECK_MSG(pos >= 0, "chain order is not prefix-consistent");
      level.emit_map.push_back(pos);
    }
    level.out = Relation(n.view.dim_count());
    levels.push_back(std::move(level));
    node = tree.ScanChild(node);
  }
  if (levels.empty()) return;

  if (stats != nullptr) {
    stats->records_scanned += source.size();
    stats->scans += 1;
  }
  if (disk != nullptr) disk->ChargeRead(source.ByteSize());

  const int max_prefix = levels.front().prefix_len;
  std::vector<Key> group(static_cast<std::size_t>(max_prefix));
  std::vector<Key> emit_keys;

  auto flush = [&](ChainLevel& level) {
    emit_keys.clear();
    for (int pos : level.emit_map) emit_keys.push_back(group[pos]);
    level.out.Append(emit_keys, level.acc);
  };

  for (std::size_t row = 0; row < source.size(); ++row) {
    if (row == 0) {
      for (int k = 0; k < max_prefix; ++k) {
        group[k] = source.key(0, cols_seq[k]);
      }
      for (auto& level : levels) level.acc = source.measure(0);
      continue;
    }
    // First head-order position where the row differs from the open group.
    int changed = max_prefix;
    for (int k = 0; k < max_prefix; ++k) {
      if (source.key(row, cols_seq[k]) != group[k]) {
        changed = k;
        break;
      }
    }
    for (auto& level : levels) {
      if (level.prefix_len > changed) {
        flush(level);
        level.acc = source.measure(row);
      } else {
        level.acc = CombineMeasure(fn, level.acc, source.measure(row));
      }
    }
    for (int k = changed; k < max_prefix; ++k) {
      group[k] = source.key(row, cols_seq[k]);
    }
  }
  if (!source.empty()) {
    for (auto& level : levels) flush(level);
  }

  for (auto& level : levels) {
    const ScheduleNode& n = tree.node(level.node);
    if (stats != nullptr) stats->rows_emitted += level.out.size();
    if (disk != nullptr) disk->ChargeWrite(level.out.ByteSize());
    result.views[n.view] = ViewResult{n.view, n.order, std::move(level.out),
                                      n.selected};
  }
}

}  // namespace

CubeResult ExecuteScheduleTree(const ScheduleTree& tree, Relation root_data,
                               AggFn fn, DiskModel* disk, ExecStats* stats,
                               const PipelineChargeHook& on_pipeline,
                               const ViewSink& sink) {
  tree.Validate();
  const ScheduleNode& root = tree.root();
  SNCUBE_CHECK_MSG(root_data.width() == root.view.dim_count(),
                   "root data width must match the root view");
  SNCUBE_CHECK_MSG(
      IsSorted(root_data, ColumnsOf(root.view, root.order)),
      "root data must arrive sorted in the root's imposed order");

  CubeResult result;
  result.views[root.view] =
      ViewResult{root.view, root.order, std::move(root_data), root.selected};

  // Per-pipeline attribution: when a charge hook is installed, track stats
  // even without a caller-provided accumulator, snapshot before each
  // pipeline, and hand the hook the increment while the pipeline's span is
  // still open.
  ExecStats hook_stats;
  if (stats == nullptr && on_pipeline) stats = &hook_stats;
  const auto charge_pipeline = [&](const ExecStats& before) {
    if (!on_pipeline) return;
    ExecStats delta = *stats;
    delta -= before;
    on_pipeline(delta);
  };

  // Release rule (pipeline.h): readers[i] counts node i's sort-edge children
  // not yet sorted from it; at zero its view may leave for the sink.
  // Collecting is the no-sink case: every view stays in `result`.
  std::vector<int> readers(static_cast<std::size_t>(tree.size()), 0);
  for (int i = 1; i < tree.size(); ++i) {
    if (tree.node(i).edge == EdgeKind::kSort) ++readers[tree.node(i).parent];
  }
  const auto release = [&](int node) {
    if (!sink) return;
    const auto it = result.views.find(tree.node(node).view);
    ViewResult view = std::move(it->second);
    result.views.erase(it);
    sink(std::move(view));
  };
  // After a pipeline: its head and scan chain, each unless a sort child
  // still has to read it.
  const auto release_pipeline = [&](int head) {
    for (int node = head; node >= 0; node = tree.ScanChild(node)) {
      if (readers[node] == 0) release(node);
    }
  };

  // Root pipeline: scan descendants fall out of the already-sorted root.
  {
    SNCUBE_TRACE_SPAN("pipe-root");
    const ExecStats before = stats != nullptr ? *stats : ExecStats{};
    const Relation& src = result.views.at(root.view).rel;
    const int sc = tree.ScanChild(ScheduleTree::kRootIndex);
    if (sc >= 0) {
      const std::vector<int> cols_seq =
          ColumnsOf(root.view, tree.node(sc).order);
      EmitChain(tree, src, cols_seq, ScheduleTree::kRootIndex,
                /*include_head=*/false, fn, disk, stats, result);
    }
    release_pipeline(ScheduleTree::kRootIndex);
    charge_pipeline(before);
  }

  // Sort-edge pipelines, in tree order (parents precede children).
  for (int i = 1; i < tree.size(); ++i) {
    const ScheduleNode& n = tree.node(i);
    if (n.edge != EdgeKind::kSort) continue;
    SNCUBE_TRACE_SPAN_IDX("pipeline", i);
    const ExecStats before = stats != nullptr ? *stats : ExecStats{};
    const ScheduleNode& parent = tree.node(n.parent);
    const auto it = result.views.find(parent.view);
    SNCUBE_CHECK_MSG(it != result.views.end(), "parent not materialized");
    const Relation& parent_rel = it->second.rel;

    // Sort the parent by the pipeline head's order (only those columns
    // matter; deeper chain prefixes are prefixes of the same order).
    const std::vector<int> sort_cols = ColumnsOf(parent.view, n.order);
    // Both paths dispatch to the rank's exec pool when one is installed
    // (exec::CurrentPool()); the EmitChain scan below stays serial — its
    // group-carry across rows is a genuine sequential dependency.
    Relation sorted;
    if (disk != nullptr) {
      sorted = ExternalSort(parent_rel, sort_cols, *disk);
    } else {
      sorted = exec::SortRelationAuto(parent_rel, sort_cols);
    }
    if (stats != nullptr) {
      stats->sorts += 1;
      const auto rows = static_cast<double>(parent_rel.size());
      stats->sort_cost_units += rows * std::log2(std::max(rows, 2.0));
    }
    if (--readers[n.parent] == 0) release(n.parent);
    EmitChain(tree, sorted, sort_cols, i, /*include_head=*/true, fn, disk,
              stats, result);
    release_pipeline(i);
    charge_pipeline(before);
  }

  SNCUBE_CHECK(static_cast<int>(result.views.size()) ==
               (sink ? 0 : tree.size()));
  return result;
}

}  // namespace sncube
