// Micro-benchmarks (google-benchmark) for the sequential kernels: relation
// sort, pipelined multi-view aggregation vs naive per-view sorting, external
// sort, Hungarian matching, schedule-tree construction, the view
// frame codec with the refresh's packed merge, and the query engine on each
// of its paths — plus, when no --benchmark_filter is given, a wall-clock
// sweep of the exec runtime's ParallelSort against the serial sort
// (1/2/4/8 threads, three record widths), written to BENCH_exec.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "common/env.h"
#include "common/rng.h"
#include "common/timer.h"
#include "data/generator.h"
#include "exec/parallel_algo.h"
#include "exec/task_pool.h"
#include "io/external_sort.h"
#include "lattice/lattice.h"
#include "query/engine.h"
#include "refresh/delta.h"
#include "relation/aggregate.h"
#include "relation/serialize.h"
#include "relation/sort.h"
#include "schedule/matching.h"
#include "schedule/pipesort.h"
#include "seqcube/pipeline.h"
#include "seqcube/seq_cube.h"
#include "seqcube/view_frame.h"

namespace sncube {
namespace {

Relation MakeData(std::int64_t rows, int d, std::uint32_t card,
                  std::uint64_t seed) {
  DatasetSpec spec;
  spec.rows = rows;
  spec.cardinalities.assign(d, card);
  spec.seed = seed;
  return GenerateDataset(spec);
}

void BM_RelationSort(benchmark::State& state) {
  const Relation rel = MakeData(state.range(0), 4, 64, 1);
  const auto cols = IdentityOrder(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortRelation(rel, cols));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RelationSort)->Arg(10000)->Arg(100000);

void BM_SortAndAggregate(benchmark::State& state) {
  const Relation rel = MakeData(state.range(0), 4, 16, 2);
  const std::vector<int> cols{0, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(SortAndAggregate(rel, cols, AggFn::kSum));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortAndAggregate)->Arg(10000)->Arg(100000);

void BM_ExternalSortInMemory(benchmark::State& state) {
  const Relation rel = MakeData(state.range(0), 4, 64, 3);
  const auto cols = IdentityOrder(4);
  for (auto _ : state) {
    DiskModel disk;  // 64 MiB memory: in-memory path
    benchmark::DoNotOptimize(ExternalSort(rel, cols, disk));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExternalSortInMemory)->Arg(50000);

void BM_HungarianMatching(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (auto& c : row) c = static_cast<double>(rng.Below(1000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(HungarianMinCost(cost));
  }
}
BENCHMARK(BM_HungarianMatching)->Arg(16)->Arg(70)->Arg(126);

void BM_PipesortTreeConstruction(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  std::vector<std::uint32_t> cards;
  for (int i = 0; i < d; ++i) cards.push_back(256u >> (i / 2));
  const Schema schema(cards);
  const AnalyticEstimator est(schema, 1e6);
  const auto views = AllViews(d);
  const ViewId root = ViewId::Full(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildPipesortTree(views, root, root.DimList(), est));
  }
}
BENCHMARK(BM_PipesortTreeConstruction)->Arg(6)->Arg(8)->Arg(10);

// The point of pipelining: one sort feeds a whole scan chain. Compare the
// full pipelined cube against aggregating every view independently.
void BM_PipelinedFullCube(benchmark::State& state) {
  const Relation raw = MakeData(state.range(0), 6, 32, 6);
  const Schema schema(std::vector<std::uint32_t>(6, 32));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SequentialPipesortCube(raw, schema));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PipelinedFullCube)->Arg(20000);

void BM_PerViewSortFullCube(benchmark::State& state) {
  const Relation raw = MakeData(state.range(0), 6, 32, 6);
  for (auto _ : state) {
    std::uint64_t rows = 0;
    for (ViewId v : AllViews(6)) {
      const auto dims = v.DimList();
      const std::vector<int> cols(dims.begin(), dims.end());
      rows += SortAndAggregate(raw, cols, AggFn::kSum).size();
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PerViewSortFullCube)->Arg(20000);

// ---------------------------------------------------------------------------
// The view frame codec and the refresh's packed merge, per row of the
// largest view of a serve_refresh-shaped cube: 100k facts, cards
// 256,128,64,32,16,8 (the full view, about 100k rows, a narrow key), and
// the same view of a 2k-row delta's cube.

struct FrameFixture {
  ViewResult view;
  ByteBuffer frame;
  CubeResult delta_cube;

  FrameFixture() {
    DatasetSpec spec;
    spec.rows = 100000;
    spec.cardinalities = {256, 128, 64, 32, 16, 8};
    spec.seed = 7;
    const Schema schema = spec.MakeSchema();
    const ViewId top = ViewId::FromDims(IdentityOrder(6));
    view = SequentialCube(GenerateDataset(spec), schema, {top}).views.at(top);
    frame = EncodeViewFrame(view, 0);
    spec.rows = 2000;
    spec.seed = 1000007;
    delta_cube = SequentialCube(GenerateDataset(spec), schema, {top});
  }
};

const FrameFixture& Frames() {
  static const FrameFixture fixture;
  return fixture;
}

void BM_FrameDecode(benchmark::State& state) {
  const FrameFixture& f = Frames();
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecodeViewFrame(f.frame));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.view.rel.size()));
}
BENCHMARK(BM_FrameDecode);

void BM_FrameEncode(benchmark::State& state) {
  const FrameFixture& f = Frames();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeViewFrame(f.view, 1));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.view.rel.size()));
}
BENCHMARK(BM_FrameEncode);

// Items are the base view's rows, as above; the delta adds 2k more.
void BM_FrameMergeDelta(benchmark::State& state) {
  const FrameFixture& f = Frames();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeDeltaFrame(f.frame, f.delta_cube, 1));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.view.rel.size()));
}
BENCHMARK(BM_FrameMergeDelta);

// ---------------------------------------------------------------------------
// The query engine, one cache miss per iteration, on a serve_refresh-shaped
// cube (100k facts, cards 256,128,64,32,16,8). The queries were picked from
// the stored orders of seed 7's cube, one per path of Execute:
//   0 stored order: GROUP BY all six dimensions, the top view (order 0..5);
//     one gathering pass.
//   1 out of order: GROUP BY D0,D3,D4,D5, a view stored in order 0,3,5,4;
//     one radix sort of the view.
//   2 filtered: GROUP BY D0,D2,D3,D4 WHERE D5 = v from the view stored in
//     order 0,4,3,2,5; the kept rows are gathered, then sorted.
//   3 ancestor: GROUP BY D0,D1 on a partial cube that holds only the top
//     view; rows arrive grouped and are aggregated.
// Items are the routed view's rows (rows_scanned).

struct QueryFixture {
  CubeResult full;
  CubeResult partial;
  Key filter_value = 0;

  QueryFixture() {
    DatasetSpec spec;
    spec.rows = 100000;
    spec.cardinalities = {256, 128, 64, 32, 16, 8};
    spec.seed = 7;
    const Schema schema = spec.MakeSchema();
    const Relation facts = GenerateDataset(spec);
    full = SequentialCube(facts, schema, AllViews(6));
    const ViewId top = ViewId::Full(6);
    partial = SequentialCube(facts, schema, {top});
    filter_value = full.views.at(top).rel.key(0, 5);
  }
};

const QueryFixture& Queries() {
  static const QueryFixture fixture;
  return fixture;
}

void BM_QueryExecute(benchmark::State& state) {
  const QueryFixture& f = Queries();
  Query q;
  const CubeResult* cube = &f.full;
  switch (state.range(0)) {
    case 0:
      state.SetLabel("stored order");
      q.group_by = ViewId::Full(6);
      break;
    case 1:
      state.SetLabel("out of order");
      q.group_by = ViewId::FromDims({0, 3, 4, 5});
      break;
    case 2:
      state.SetLabel("filtered");
      q.group_by = ViewId::FromDims({0, 2, 3, 4});
      q.filters = {{.dim = 5, .value = f.filter_value}};
      break;
    default:
      state.SetLabel("ancestor");
      q.group_by = ViewId::FromDims({0, 1});
      cube = &f.partial;
      break;
  }
  const CubeQueryEngine engine(*cube);
  std::uint64_t scanned = 0;
  for (auto _ : state) {
    const QueryAnswer answer = engine.Execute(q);
    scanned += answer.rows_scanned;
    benchmark::DoNotOptimize(answer.rel);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(scanned));
}
BENCHMARK(BM_QueryExecute)->DenseRange(0, 3);

// ---------------------------------------------------------------------------
// exec runtime: serial sort vs ParallelSort, wall clock.
//
// Distinct from the sim-clock accounting the figure benches report: this is
// the real-machine speedup of the work-stealing runtime (acceptance: >= 2x
// at 4 threads on the local-sort kernel — meaningful only on a host with
// >= 4 cores; the JSON records the core count so readers can tell).

double MedianSortSeconds(const Relation& rel, std::span<const int> cols,
                         exec::TaskPool* pool) {
  // Median of 3 runs keeps one scheduler hiccup from polluting the record.
  double best[3];
  for (double& t : best) {
    WallTimer timer;
    Relation out = pool == nullptr ? SortRelation(rel, cols)
                                   : exec::ParallelSortRelation(rel, cols, pool);
    t = timer.Seconds();
    benchmark::DoNotOptimize(out);
  }
  if (best[0] > best[1]) std::swap(best[0], best[1]);
  if (best[1] > best[2]) std::swap(best[1], best[2]);
  if (best[0] > best[1]) std::swap(best[0], best[1]);
  return best[1];
}

void RunExecSortSweep() {
  const std::int64_t rows = BenchRows(300000, 2000000);
  std::ofstream os("BENCH_exec.json");
  os << "{\"bench\":\"exec_sort_sweep\",\"rows\":" << rows
     << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
     << ",\"sweeps\":[";
  bool first = true;
  std::printf("\nexec sort sweep (wall clock, %lld rows)\n",
              static_cast<long long>(rows));
  std::printf("%-8s %-8s %12s %12s %8s\n", "width", "threads", "serial_s",
              "parallel_s", "speedup");
  for (const int width : {2, 4, 8}) {
    DatasetSpec spec;
    spec.rows = rows;
    spec.cardinalities.assign(static_cast<std::size_t>(width), 64);
    spec.seed = static_cast<std::uint64_t>(width);
    const Relation rel = GenerateDataset(spec);
    const auto cols = IdentityOrder(width);
    const double serial_s = MedianSortSeconds(rel, cols, nullptr);
    const ByteBuffer expected = SerializeRelation(SortRelation(rel, cols));
    for (const int threads : {1, 2, 4, 8}) {
      exec::TaskPool pool(threads);
      const double par_s = MedianSortSeconds(rel, cols, &pool);
      // The sweep doubles as an end-to-end determinism check at scale.
      if (SerializeRelation(exec::ParallelSortRelation(rel, cols, &pool)) !=
          expected) {
        std::fprintf(stderr, "FATAL: ParallelSort diverged from serial "
                             "(width=%d threads=%d)\n", width, threads);
        std::exit(1);
      }
      const double speedup = par_s > 0 ? serial_s / par_s : 0.0;
      std::printf("%-8d %-8d %12.4f %12.4f %7.2fx\n", width, threads,
                  serial_s, par_s, speedup);
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"width\":%d,\"threads\":%d,\"serial_wall_s\":%.6f,"
                    "\"parallel_wall_s\":%.6f,\"wall_speedup\":%.3f}",
                    first ? "" : ",", width, threads, serial_s, par_s,
                    speedup);
      os << buf;
      first = false;
    }
  }
  os << "]}\n";
  std::printf("wrote BENCH_exec.json\n");
}

}  // namespace
}  // namespace sncube

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  // A filtered run times the benchmarks it selects and nothing else.
  const bool filtered = !benchmark::GetBenchmarkFilter().empty();
  benchmark::Shutdown();
  if (!filtered) sncube::RunExecSortSweep();
  return 0;
}
