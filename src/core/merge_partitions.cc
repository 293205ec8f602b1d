#include "core/merge_partitions.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <map>

#include "common/status.h"
#include "core/key_tuple.h"
#include "core/sample_sort.h"
#include "core/sampling_array.h"
#include "exec/parallel_algo.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "relation/aggregate.h"
#include "relation/merge.h"
#include "relation/serialize.h"
#include "relation/sort.h"

namespace sncube {
namespace {

Relation DropFirstRow(const Relation& rel) {
  Relation out(rel.width());
  out.Reserve(rel.size() - 1);
  for (std::size_t r = 1; r < rel.size(); ++r) out.AppendRow(rel, r);
  return out;
}

// Per-rank boundary metadata for one view.
struct Boundary {
  bool has_rows = false;
  KeyTuple first;
  KeyTuple last;
};

// Ownership interval of one rank for a non-prefix view: keys in (lo, hi].
struct OwnRange {
  bool owns = false;
  bool has_lo = false;  // false → unbounded below
  KeyTuple lo;          // exclusive
  KeyTuple hi;          // inclusive
};

// Rank j owns keys in (max of earlier last-keys, last_j]; empty shards and
// fully-covered ranks own nothing. Monotone in the key, so each key has
// exactly one owner and per-shard slices are contiguous.
std::vector<OwnRange> OwnershipRanges(const std::vector<Boundary>& bounds) {
  std::vector<OwnRange> ranges(bounds.size());
  bool have_running = false;
  KeyTuple running;
  for (std::size_t r = 0; r < bounds.size(); ++r) {
    if (!bounds[r].has_rows) continue;
    OwnRange& range = ranges[r];
    if (!have_running) {
      range.owns = true;
      range.hi = bounds[r].last;
      running = bounds[r].last;
      have_running = true;
    } else if (CompareTuple(bounds[r].last, running) > 0) {
      range.owns = true;
      range.has_lo = true;
      range.lo = running;
      range.hi = bounds[r].last;
      running = bounds[r].last;
    }
  }
  return ranges;
}

std::uint64_t EstimateInRange(const SamplingArray& sample,
                              const OwnRange& range) {
  if (!range.owns) return 0;
  const std::uint64_t hi = sample.EstimateRowsLessEq(range.hi);
  const std::uint64_t lo =
      range.has_lo ? sample.EstimateRowsLessEq(range.lo) : 0;
  return hi > lo ? hi - lo : 0;
}

// Owner of this rank's first-row group under Case 1: the leftmost rank whose
// last key equals it (walking over empty shards).
int PrefixOwner(const std::vector<Boundary>& bounds, int rank) {
  if (!bounds[rank].has_rows) return rank;
  const KeyTuple& k = bounds[rank].first;
  int owner = rank;
  for (int r = rank - 1; r >= 0; --r) {
    if (!bounds[r].has_rows) continue;
    if (CompareTuple(bounds[r].last, k) != 0) break;
    owner = r;
    if (CompareTuple(bounds[r].first, k) != 0) break;  // group starts at r
  }
  return owner;
}

// Everything the merge decided about one view before the bulk h-relation.
struct ViewPlan {
  ViewId id;
  std::vector<int> cols;  // sort columns in the canonical layout
  enum { kCase1, kCase2, kCase3 } kase = kCase1;
  std::vector<Boundary> bounds;
  std::vector<OwnRange> ranges;    // Case 2 only
  std::size_t kept_begin = 0;      // Case 2: rows this rank keeps
  std::size_t kept_end = 0;
};

}  // namespace

void MergePartitions(Comm& comm, CubeResult& cube,
                     const std::vector<int>& root_order,
                     const MergeOptions& opts, MergeStats* stats) {
  const int p = comm.size();

  // Deterministic selected-view order, identical on every rank; drop
  // auxiliary views (local scaffolding only).
  std::vector<ViewId> ids;
  ids.reserve(cube.views.size());
  for (const auto& [id, vr] : cube.views) {
    if (vr.selected) {
      ids.push_back(id);
    }
  }
  std::erase_if(cube.views,
                [](const auto& entry) { return !entry.second.selected; });
  std::sort(ids.begin(), ids.end());

  if (p == 1) {
    // Nothing to merge; every fragment is already the whole view.
    if (stats != nullptr) stats->case1_views += static_cast<int>(ids.size());
    return;
  }

  // Procedure 3 as sibling spans under "merge-partitions": normalize →
  // boundaries (incl. Case 1/2/3 classification) → exchange (the bulk
  // h-relation + agglomeration) → case3-resort (full re-sorts, which nest
  // their own "sample-sort" span trees).
  SNCUBE_TRACE_SPAN("merge-partitions");
  obs::PhaseSpan mstep;
  mstep.Switch("normalize");

  // ---- Phase A: order normalization (one all-gather for all views) -------
  // Under local schedule trees the fragments of a view can be sorted
  // differently per rank; everyone adopts rank 0's order, re-sorting if
  // necessary (the overhead Figure 7 measures).
  {
    ByteBuffer msg;
    for (ViewId id : ids) {
      const auto& order = cube.views.at(id).order;
      WirePutVector(msg, std::vector<std::uint8_t>(order.begin(), order.end()));
    }
    const auto all = comm.AllGather(std::move(msg));
    std::vector<WireReader> readers;
    readers.reserve(all.size());
    for (const auto& buf : all) readers.emplace_back(buf);
    for (ViewId id : ids) {
      std::vector<std::uint8_t> rank0;
      bool differs = false;
      for (int r = 0; r < p; ++r) {
        auto order = readers[r].GetVector<std::uint8_t>();
        if (r == 0) {
          rank0 = std::move(order);
        } else if (order != rank0) {
          differs = true;
        }
      }
      if (!differs) continue;
      if (stats != nullptr) stats->resorted_views += 1;
      ViewResult& vr = cube.views.at(id);
      const std::vector<int> order(rank0.begin(), rank0.end());
      if (order != vr.order) {
        const auto cols = ColumnsOf(id, order);
        // Parallel region: re-sort on the rank's exec pool, charged at
        // span (work / threads_per_rank).
        std::optional<obs::ScopedSpan> exec_span;
        if (comm.threads_per_rank() > 1) exec_span.emplace("exec-sort");
        comm.ChargeSortRecordsParallel(vr.rel.size());
        comm.disk().ChargeRead(vr.rel.ByteSize());
        vr.rel = exec::SortRelationAuto(vr.rel, cols);
        comm.disk().ChargeWrite(vr.rel.ByteSize());
        vr.order = order;
      }
    }
  }

  // ---- Phase B: boundaries for every view (one all-gather) ---------------
  mstep.Switch("boundaries");
  std::vector<ViewPlan> plans(ids.size());
  {
    ByteBuffer msg;
    for (std::size_t v = 0; v < ids.size(); ++v) {
      ViewPlan& plan = plans[v];
      plan.id = ids[v];
      const ViewResult& vr = cube.views.at(ids[v]);
      plan.cols = ColumnsOf(ids[v], vr.order);
      WirePut(msg, static_cast<std::uint8_t>(vr.rel.empty() ? 0 : 1));
      if (!vr.rel.empty()) {
        WirePutVector(msg, TupleAt(vr.rel, 0, plan.cols));
        WirePutVector(msg, TupleAt(vr.rel, vr.rel.size() - 1, plan.cols));
      }
    }
    const auto all = comm.AllGather(std::move(msg));
    std::vector<WireReader> readers;
    readers.reserve(all.size());
    for (const auto& buf : all) readers.emplace_back(buf);
    for (auto& plan : plans) {
      plan.bounds.resize(p);
      for (int r = 0; r < p; ++r) {
        plan.bounds[r].has_rows = readers[r].Get<std::uint8_t>() != 0;
        if (plan.bounds[r].has_rows) {
          plan.bounds[r].first = readers[r].GetVector<Key>();
          plan.bounds[r].last = readers[r].GetVector<Key>();
        }
      }
    }
  }

  // ---- Classification + |v'_j| estimation (one all-gather) ---------------
  // Prefix test first; for non-prefix views every rank estimates its
  // contribution to every owner from its sampling array (Section 2.4), and
  // one all-gather of those estimates lets all ranks compute the identical
  // imbalance the Case 2/3 decision needs.
  {
    ByteBuffer msg;
    for (auto& plan : plans) {
      const ViewResult& vr = cube.views.at(plan.id);
      bool is_prefix = vr.order.size() <= root_order.size();
      for (std::size_t k = 0; is_prefix && k < vr.order.size(); ++k) {
        is_prefix = (vr.order[k] == root_order[k]);
      }
      if (is_prefix) {
        plan.kase = ViewPlan::kCase1;
        continue;
      }
      plan.kase = ViewPlan::kCase2;  // provisional; refined below
      plan.ranges = OwnershipRanges(plan.bounds);
      // The sampling array costs nothing at this point: Section 2.4 builds
      // it on the fly while the view is first written in Step 2c, so no
      // extra pass over the view is charged here.
      SamplingArray sample(
          static_cast<int>(plan.cols.size()),
          static_cast<std::size_t>(std::max(2, opts.sample_capacity_factor * p)));
      std::vector<Key> row_key(plan.cols.size());
      for (std::size_t r = 0; r < vr.rel.size(); ++r) {
        for (std::size_t i = 0; i < plan.cols.size(); ++i) {
          row_key[i] = vr.rel.key(r, plan.cols[i]);
        }
        sample.Add(row_key);
      }
      std::vector<std::uint64_t> contrib(p, 0);
      for (int r = 0; r < p; ++r) {
        // The paper's v'_j is "vj PLUS all the overlap received": a rank's
        // own fragment counts whole (what it sends away is not subtracted),
        // so the statistic measures how lopsided the overlap routing is.
        contrib[r] = (r == comm.rank())
                         ? vr.rel.size()
                         : EstimateInRange(sample, plan.ranges[r]);
      }
      WirePutVector(msg, contrib);
    }
    const auto all = comm.AllGather(std::move(msg));
    std::vector<WireReader> readers;
    readers.reserve(all.size());
    for (const auto& buf : all) readers.emplace_back(buf);
    for (auto& plan : plans) {
      if (plan.kase == ViewPlan::kCase1) continue;
      std::vector<std::uint64_t> est(p, 0);
      for (int r = 0; r < p; ++r) {
        const auto contrib = readers[r].GetVector<std::uint64_t>();
        for (int k = 0; k < p; ++k) est[k] += contrib[k];
      }
      if (opts.force_case3 || RelativeImbalance(est) > opts.gamma) {
        plan.kase = ViewPlan::kCase3;
      }
    }
  }

  // ---- Phase C: one bulk h-relation for Case 1 rows + Case 2 overlaps ----
  // Wire format per destination: repeated (view mask, row count, rows).
  mstep.Switch("exchange");
  {
    std::vector<ByteBuffer> send(p);
    auto stage = [&](int dst, ViewId id, const Relation& rel,
                     std::size_t begin, std::size_t end) {
      if (end <= begin) return;
      WirePut(send[dst], id.mask());
      WirePut(send[dst], static_cast<std::uint64_t>(end - begin));
      SerializeRows(rel, begin, end, send[dst]);
    };

    for (auto& plan : plans) {
      ViewResult& vr = cube.views.at(plan.id);
      if (plan.kase == ViewPlan::kCase1) {
        const int owner = PrefixOwner(plan.bounds, comm.rank());
        if (owner != comm.rank() && !vr.rel.empty()) {
          stage(owner, plan.id, vr.rel, 0, 1);
          vr.rel = DropFirstRow(vr.rel);
        }
      } else if (plan.kase == ViewPlan::kCase2) {
        // Slice this rank's (strictly increasing) fragment by ownership.
        // The slice this rank owns STAYS PUT — only the overlap regions are
        // read off disk, shipped, and later rewritten; the bulk of the view
        // is never touched (this is what makes Case 2 cheap).
        std::size_t begin = 0;
        std::uint64_t shipped_bytes = 0;
        for (int r = 0; r < p; ++r) {
          if (!plan.ranges[r].owns) continue;
          const std::size_t end = std::max(
              begin, UpperBoundRow(vr.rel, plan.cols, plan.ranges[r].hi));
          if (r == comm.rank()) {
            plan.kept_begin = begin;
            plan.kept_end = end;
          } else {
            stage(r, plan.id, vr.rel, begin, end);
            shipped_bytes += (end - begin) * vr.rel.RowBytes();
          }
          begin = end;
        }
        SNCUBE_CHECK_MSG(begin == vr.rel.size(),
                         "rows beyond every ownership range");
        comm.disk().ChargeRead(shipped_bytes);
      }
    }

    auto received = comm.AllToAllv(std::move(send));

    // Unpack: per view, the sorted runs received (by source rank order).
    // Ordered map so any future walk over it is deterministic; it is
    // keyed per view (small) and looked up per plan, not per row.
    std::map<ViewId, std::vector<Relation>> incoming;
    for (int src = 0; src < p; ++src) {
      WireReader reader(received[src]);
      while (!reader.AtEnd()) {
        const ViewId id{reader.Get<std::uint32_t>()};
        const auto rows = reader.Get<std::uint64_t>();
        Relation run(id.dim_count());
        DeserializeRows(reader.GetBytes(rows * run.RowBytes()), run);
        incoming[id].push_back(std::move(run));
      }
    }

    // ---- Phase D: local agglomeration --------------------------------
    for (auto& plan : plans) {
      ViewResult& vr = cube.views.at(plan.id);
      auto it = incoming.find(plan.id);
      if (plan.kase == ViewPlan::kCase1) {
        if (stats != nullptr) stats->case1_views += 1;
        if (it == incoming.end()) continue;
        for (Relation& row : it->second) {
          SNCUBE_CHECK(row.size() == 1);
          SNCUBE_CHECK_MSG(!vr.rel.empty(), "owner shard cannot be empty");
          const std::size_t last = vr.rel.size() - 1;
          SNCUBE_DCHECK(CompareRows(vr.rel, last, row, 0) == 0);
          vr.rel.measure(last) =
              CombineMeasure(opts.fn, vr.rel.measure(last), row.measure(0));
        }
      } else if (plan.kase == ViewPlan::kCase2) {
        if (stats != nullptr) stats->case2_views += 1;
        // Kept slice of the own fragment.
        Relation kept(vr.rel.width());
        kept.Reserve(plan.kept_end - plan.kept_begin);
        for (std::size_t r = plan.kept_begin; r < plan.kept_end; ++r) {
          kept.AppendRow(vr.rel, r);
        }
        if (it == incoming.end()) {
          vr.rel = std::move(kept);
          continue;
        }
        // Received overlap rows all interleave the TAIL of the kept slice
        // (everything >= the smallest received key); the untouched head is
        // never read or rewritten.
        std::vector<Relation>& runs = it->second;
        KeyTuple min_key;
        for (const Relation& run : runs) {
          if (run.empty()) continue;
          KeyTuple k = TupleAt(run, 0, plan.cols);
          if (min_key.empty() || CompareTuple(k, min_key) < 0) {
            min_key = std::move(k);
          }
        }
        if (min_key.empty()) {
          vr.rel = std::move(kept);
          continue;
        }
        // Split the kept slice at the first row >= min_key.
        std::size_t split = kept.size();
        {
          std::size_t lo = 0;
          std::size_t hi = kept.size();
          while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (CompareTuple(TupleAt(kept, mid, plan.cols), min_key) < 0) {
              lo = mid + 1;
            } else {
              hi = mid;
            }
          }
          split = lo;
        }
        Relation tail(kept.width());
        tail.Reserve(kept.size() - split);
        for (std::size_t r = split; r < kept.size(); ++r) {
          tail.AppendRow(kept, r);
        }
        std::vector<Relation> merge_inputs;
        merge_inputs.reserve(runs.size() + 1);
        merge_inputs.push_back(std::move(tail));
        for (Relation& run : runs) merge_inputs.push_back(std::move(run));
        // Parallel region: Case-2 agglomeration merge on the exec pool,
        // charged at span; the collapse scan below stays serial.
        Relation region;
        {
          std::optional<obs::ScopedSpan> exec_span;
          if (comm.threads_per_rank() > 1) exec_span.emplace("exec-merge");
          region = exec::MergeSortedRunsAuto(merge_inputs, plan.cols);
          comm.ChargeParallelCpu(static_cast<double>(region.size()) *
                                 std::log2(std::max(p, 2)) *
                                 comm.cost().cpu_sort_record_s);
        }
        comm.ChargeScanRecords(region.size());
        comm.disk().ChargeRead((kept.size() - split) * kept.RowBytes());
        Relation collapsed = CollapseSorted(region, opts.fn);
        comm.disk().ChargeWrite(collapsed.ByteSize());

        Relation merged(kept.width());
        merged.Reserve(split + collapsed.size());
        for (std::size_t r = 0; r < split; ++r) merged.AppendRow(kept, r);
        merged.Concat(std::move(collapsed));
        vr.rel = std::move(merged);
      }
    }
  }

  // ---- Phase E: Case 3 views — full parallel re-sort each -----------------
  mstep.Switch("case3-resort");
  for (auto& plan : plans) {
    if (plan.kase != ViewPlan::kCase3) continue;
    ViewResult& vr = cube.views.at(plan.id);
    // The sorter charges its own read; fragments arrive sorted, so its
    // local-sort phase degenerates to that scan.
    Relation sorted = AdaptiveSampleSort(comm, std::move(vr.rel), plan.cols,
                                         opts.gamma);
    comm.ChargeScanRecords(sorted.size());
    vr.rel = CollapseSorted(sorted, opts.fn);
    comm.disk().ChargeWrite(vr.rel.ByteSize());
    if (stats != nullptr) stats->case3_views += 1;
  }
  // Boundary fixup for all Case-3 views at once: after the row-granular
  // shift, duplicate groups can straddle ranks exactly like prefix views.
  {
    std::vector<ViewPlan*> case3;
    for (auto& plan : plans) {
      if (plan.kase == ViewPlan::kCase3) case3.push_back(&plan);
    }
    if (!case3.empty()) {
      // Refresh boundaries (one all-gather), then one h-relation of
      // boundary rows.
      ByteBuffer msg;
      for (ViewPlan* plan : case3) {
        const ViewResult& vr = cube.views.at(plan->id);
        WirePut(msg, static_cast<std::uint8_t>(vr.rel.empty() ? 0 : 1));
        if (!vr.rel.empty()) {
          WirePutVector(msg, TupleAt(vr.rel, 0, plan->cols));
          WirePutVector(msg, TupleAt(vr.rel, vr.rel.size() - 1, plan->cols));
        }
      }
      const auto all = comm.AllGather(std::move(msg));
      std::vector<WireReader> readers;
      readers.reserve(all.size());
      for (const auto& buf : all) readers.emplace_back(buf);
      for (ViewPlan* plan : case3) {
        plan->bounds.assign(p, Boundary{});
        for (int r = 0; r < p; ++r) {
          plan->bounds[r].has_rows = readers[r].Get<std::uint8_t>() != 0;
          if (plan->bounds[r].has_rows) {
            plan->bounds[r].first = readers[r].GetVector<Key>();
            plan->bounds[r].last = readers[r].GetVector<Key>();
          }
        }
      }

      std::vector<ByteBuffer> send(p);
      for (ViewPlan* plan : case3) {
        ViewResult& vr = cube.views.at(plan->id);
        const int owner = PrefixOwner(plan->bounds, comm.rank());
        if (owner != comm.rank() && !vr.rel.empty()) {
          WirePut(send[owner], plan->id.mask());
          SerializeRows(vr.rel, 0, 1, send[owner]);
          vr.rel = DropFirstRow(vr.rel);
        }
      }
      auto received = comm.AllToAllv(std::move(send));
      for (int src = 0; src < p; ++src) {
        WireReader reader(received[src]);
        while (!reader.AtEnd()) {
          const ViewId id{reader.Get<std::uint32_t>()};
          ViewResult& vr = cube.views.at(id);
          Relation row(vr.rel.width());
          DeserializeRows(reader.GetBytes(row.RowBytes()), row);
          SNCUBE_CHECK_MSG(!vr.rel.empty(), "owner shard cannot be empty");
          const std::size_t last = vr.rel.size() - 1;
          SNCUBE_DCHECK(CompareRows(vr.rel, last, row, 0) == 0);
          vr.rel.measure(last) =
              CombineMeasure(opts.fn, vr.rel.measure(last), row.measure(0));
        }
      }
    }
  }
}

}  // namespace sncube
