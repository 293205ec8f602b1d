#include "bench_util.h"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "common/env.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "seqcube/seq_cube.h"

namespace sncube::bench {

namespace {

// Canonical pipeline order for breakdown tables; families not listed here
// (none today) sort alphabetically after these.
int FamilyOrder(const std::string& family) {
  static constexpr const char* kOrder[] = {"default",  "restore", "partition",
                                           "schedule", "compute", "merge",
                                           "checkpoint"};
  for (int i = 0; i < static_cast<int>(std::size(kOrder)); ++i) {
    if (family == kOrder[i]) return i;
  }
  return static_cast<int>(std::size(kOrder));
}

}  // namespace

RunResult RunParallel(const DatasetSpec& spec, int p,
                      const std::vector<ViewId>& selected,
                      const ParallelCubeOptions& opts, CostParams cost) {
  const Schema schema = spec.MakeSchema();
  Cluster cluster(p, cost);
  cluster.set_threads_per_rank(
      static_cast<int>(EnvInt("SNCUBE_THREADS_PER_RANK", 1)));
  obs::TraceSink trace_sink;
  const char* trace_prefix = std::getenv("SNCUBE_TRACE_OUT");
  if (trace_prefix != nullptr) cluster.set_trace_sink(&trace_sink);
  RunResult result;
  std::vector<std::uint64_t> rows(p, 0);
  std::vector<std::uint64_t> bytes(p, 0);
  std::vector<MergeStats> merges(p);
  cluster.Run([&](Comm& comm) {
    const Relation local = GenerateSlice(spec, p, comm.rank());
    ParallelCubeStats stats;
    const CubeResult cube =
        BuildParallelCube(comm, local, schema, selected, opts, &stats);
    rows[comm.rank()] = cube.TotalRows();
    bytes[comm.rank()] = cube.TotalBytes();
    merges[comm.rank()] = stats.merge;
  });
  result.sim_seconds = cluster.SimTimeSeconds();
  result.bytes_total = cluster.BytesSent();
  result.bytes_merge = cluster.BytesSent("merge");
  for (int r = 0; r < p; ++r) {
    result.cube_rows += rows[r];
    result.cube_bytes += bytes[r];
  }
  result.merge = merges[0];
  result.phases = CollapsePhases(cluster);
  if (trace_prefix != nullptr) {
    static int run_counter = 0;  // benches are single-threaded drivers
    char path[512];
    std::snprintf(path, sizeof(path), "%s-p%d-%03d.json", trace_prefix, p,
                  run_counter++);
    obs::WriteTextFile(path, obs::ChromeTraceJson(trace_sink.Snapshot()));
  }
  return result;
}

std::vector<PhaseRow> CollapsePhases(const Cluster& cluster) {
  std::map<std::string, PhaseRow> families;
  for (const auto& rs : cluster.stats()) {
    for (const auto& [name, ps] : rs.phases) {
      std::string family = name;
      const auto slash = name.rfind('/');
      if (slash != std::string::npos &&
          name.find_first_not_of("0123456789", slash + 1) ==
              std::string::npos) {
        family = name.substr(0, slash);
      }
      PhaseRow& row = families[family];
      row.family = family;
      row.cpu_s += ps.cpu_s;
      row.disk_s += ps.disk_s;
      row.net_s += ps.net_s;
      row.par_work_s += ps.par_work_s;
      row.par_span_s += ps.par_span_s;
      row.bytes += ps.bytes_sent;
    }
  }
  std::vector<PhaseRow> result;
  result.reserve(families.size());
  for (auto& [name, row] : families) result.push_back(std::move(row));
  // std::map already sorted alphabetically; stable_sort keeps that order
  // within equal FamilyOrder ranks.
  std::stable_sort(result.begin(), result.end(),
                   [](const PhaseRow& a, const PhaseRow& b) {
                     return FamilyOrder(a.family) < FamilyOrder(b.family);
                   });
  return result;
}

void PrintPhaseBreakdown(const std::string& label, const RunResult& result) {
  double total = 0;
  bool any_parallel = false;
  for (const auto& row : result.phases) {
    total += row.total_s();
    any_parallel = any_parallel || row.par_work_s > 0;
  }
  std::printf("\nphase breakdown [%s] "
              "(totals across ranks, simulated seconds)\n",
              label.c_str());
  // work/span columns only appear once some phase actually ran a parallel
  // region (threads-per-rank > 1); serial runs keep the classic table.
  if (any_parallel) {
    std::printf("%-12s %10s %10s %10s %10s %10s %10s %7s\n", "phase", "cpu_s",
                "disk_s", "net_s", "work_s", "span_s", "MB", "share");
  } else {
    std::printf("%-12s %10s %10s %10s %10s %7s\n", "phase", "cpu_s", "disk_s",
                "net_s", "MB", "share");
  }
  for (const auto& row : result.phases) {
    const double share =
        total == 0 ? 0.0 : 100.0 * row.total_s() / total;
    if (any_parallel) {
      std::printf("%-12s %10.3f %10.3f %10.3f %10.3f %10.3f %10.2f %6.1f%%\n",
                  row.family.c_str(), row.cpu_s, row.disk_s, row.net_s,
                  row.par_work_s, row.par_span_s,
                  static_cast<double>(row.bytes) / 1048576.0, share);
    } else {
      std::printf("%-12s %10.3f %10.3f %10.3f %10.2f %6.1f%%\n",
                  row.family.c_str(), row.cpu_s, row.disk_s, row.net_s,
                  static_cast<double>(row.bytes) / 1048576.0, share);
    }
  }
}

double RunSequentialSeconds(const DatasetSpec& spec,
                            const std::vector<ViewId>& selected,
                            CostParams cost) {
  const Schema schema = spec.MakeSchema();
  const bool full = selected.size() == (1u << schema.dims());
  Cluster cluster(1, cost);
  cluster.Run([&](Comm& comm) {
    const Relation raw = GenerateSlice(spec, 1, 0);
    ExecStats stats;
    if (full) {
      SequentialPipesortCube(raw, schema, AggFn::kSum, &comm.disk(), &stats);
    } else {
      SequentialCube(raw, schema, selected, AggFn::kSum, &comm.disk(),
                     &stats);
    }
    comm.ChargeScanRecords(stats.records_scanned + stats.rows_emitted);
    comm.ChargeCpu(stats.sort_cost_units * comm.cost().cpu_sort_record_s);
  });
  return cluster.SimTimeSeconds();
}

double OverlappedSimTime(const Cluster& cluster, int d) {
  double worst = 0;
  for (const auto& rs : cluster.stats()) {
    // Per partition: local work (cpu + disk across all its phases) and the
    // merge-phase network time.
    std::vector<double> work(static_cast<std::size_t>(d), 0.0);
    std::vector<double> merge_net(static_cast<std::size_t>(d), 0.0);
    double other_net = 0;
    for (const auto& [name, ps] : rs.phases) {
      const auto slash = name.rfind('/');
      int part = -1;
      if (slash != std::string::npos) {
        part = std::atoi(name.c_str() + slash + 1);
      }
      if (part < 0 || part >= d) {
        other_net += ps.net_s + ps.cpu_s + ps.disk_s;
        continue;
      }
      work[part] += ps.cpu_s + ps.disk_s;
      if (name.rfind("merge", 0) == 0) {
        merge_net[part] += ps.net_s;
      } else {
        other_net += ps.net_s;
      }
    }
    // Partition i's merge traffic hides behind partition i+1's local work;
    // the last partition's merge cannot be hidden:
    //   T = work_0 + Σ_i max(merge_net_i, work_{i+1}) + merge_net_{d-1}.
    double t = other_net + work[0];
    for (int i = 0; i + 1 < d; ++i) {
      t += std::max(merge_net[static_cast<std::size_t>(i)],
                    work[static_cast<std::size_t>(i) + 1]);
    }
    t += merge_net[static_cast<std::size_t>(d) - 1];
    worst = std::max(worst, t);
  }
  return worst;
}

std::vector<int> ProcessorSweep() {
  const int max_p = static_cast<int>(EnvInt("SNCUBE_MAXPROC", 16));
  std::vector<int> ps;
  for (int p : {1, 2, 4, 8, 12, 16}) {
    if (p <= max_p) ps.push_back(p);
  }
  return ps;
}

void PrintTimePanel(const std::string& title,
                    const std::vector<std::string>& series_names,
                    const std::vector<int>& ps,
                    const std::vector<std::vector<double>>& times) {
  std::printf("%s\n", title.c_str());
  std::printf("%-6s", "p");
  for (const auto& name : series_names) std::printf("  %14s", name.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < ps.size(); ++i) {
    std::printf("%-6d", ps[i]);
    for (const auto& series : times) std::printf("  %14.2f", series[i]);
    std::printf("\n");
  }
}

void PrintSpeedupPanel(const std::vector<std::string>& series_names,
                       const std::vector<int>& ps,
                       const std::vector<double>& t1,
                       const std::vector<std::vector<double>>& times) {
  std::printf("\nrelative speedup (T_seq / T_p; linear = p)\n");
  std::printf("%-6s", "p");
  for (const auto& name : series_names) std::printf("  %14s", name.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < ps.size(); ++i) {
    std::printf("%-6d", ps[i]);
    for (std::size_t s = 0; s < times.size(); ++s) {
      std::printf("  %14.2f", t1[s] / times[s][i]);
    }
    std::printf("\n");
  }
}

}  // namespace sncube::bench
