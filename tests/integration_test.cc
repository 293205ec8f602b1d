// Integration tests across modules: the full workflow a downstream user
// runs — generate → build (parallel, simulated cluster) → persist → reload →
// query — plus cross-cutting properties (determinism, cost-model ordering,
// sequential/parallel agreement).
#include <gtest/gtest.h>

#include <filesystem>
#include <mutex>
#include <sstream>

#include "core/parallel_cube.h"
#include "data/generator.h"
#include "data/retail.h"
#include "lattice/lattice.h"
#include "net/cluster.h"
#include "query/engine.h"
#include "query/greedy_select.h"
#include "relation/csv.h"
#include "seqcube/seq_cube.h"
#include "seqcube/view_store.h"

namespace sncube {
namespace {

TEST(Integration, GenerateBuildPersistQuery) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sncube_integration_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  DatasetSpec spec;
  spec.rows = 3000;
  spec.cardinalities = {16, 8, 4, 3};
  spec.seed = 1234;
  const Schema schema = spec.MakeSchema();
  const int p = 4;

  // Build on the simulated cluster; each rank persists its shard.
  Cluster cluster(p);
  std::vector<CubeResult> shards(p);
  std::mutex mu;
  cluster.Run([&](Comm& comm) {
    const Relation raw = GenerateSlice(spec, p, comm.rank());
    CubeResult cube = BuildParallelCube(comm, raw, schema, AllViews(4));
    ViewStore rank_store(dir / ("rank" + std::to_string(comm.rank())));
    rank_store.SaveCube(cube, schema);
    std::lock_guard<std::mutex> lock(mu);
    shards[static_cast<std::size_t>(comm.rank())] = std::move(cube);
  });

  // Reload every rank's store and reassemble the cube.
  CubeResult reassembled;
  for (int r = 0; r < p; ++r) {
    ViewStore rank_store(dir / ("rank" + std::to_string(r)));
    const Schema loaded = rank_store.LoadManifest().schema;
    EXPECT_EQ(loaded.dims(), schema.dims());
    CubeResult shard = rank_store.LoadCube();
    for (auto& [id, vr] : shard.views) {
      auto [it, inserted] = reassembled.views.try_emplace(id, std::move(vr));
      if (!inserted) it->second.rel.Concat(std::move(vr.rel));
    }
  }

  // Query the reassembled cube and cross-check against brute force.
  const Relation whole = GenerateDataset(spec);
  for (auto& [id, vr] : reassembled.views) {
    vr.rel = CanonicalizeRows(vr.rel);
    vr.order = id.DimList();
  }
  const CubeQueryEngine engine(reassembled);
  for (ViewId v :
       {ViewId::FromDims({1, 3}), ViewId::FromDims({0}), ViewId::Empty()}) {
    Query q;
    q.group_by = v;
    EXPECT_EQ(engine.Execute(q).rel, BruteForceView(whole, v, AggFn::kSum));
  }

  std::filesystem::remove_all(dir);
}

TEST(Integration, ParallelAgreesWithSequentialPartial) {
  DatasetSpec spec;
  spec.rows = 2000;
  spec.cardinalities = {20, 8, 4};
  spec.seed = 777;
  const Schema schema = spec.MakeSchema();
  const AnalyticEstimator est(schema, static_cast<double>(spec.rows));
  const auto selected = GreedySelectViews(3, 5, est);

  const Relation whole = GenerateDataset(spec);
  const CubeResult sequential = SequentialCube(whole, schema, selected);

  const int p = 3;
  Cluster cluster(p);
  std::vector<CubeResult> shards(p);
  std::mutex mu;
  cluster.Run([&](Comm& comm) {
    const Relation raw = GenerateSlice(spec, p, comm.rank());
    CubeResult cube = BuildParallelCube(comm, raw, schema, selected);
    std::lock_guard<std::mutex> lock(mu);
    shards[static_cast<std::size_t>(comm.rank())] = std::move(cube);
  });

  for (ViewId v : selected) {
    Relation combined(v.dim_count());
    for (const auto& shard : shards) {
      combined.Concat(Relation(shard.views.at(v).rel));
    }
    EXPECT_EQ(CanonicalizeRows(combined),
              CanonicalizeRows(sequential.views.at(v).rel))
        << "view mask=" << v.mask();
  }
}

TEST(Integration, SimTimeDeterministicAcrossRuns) {
  DatasetSpec spec;
  spec.rows = 4000;
  spec.cardinalities = {16, 8, 4};
  spec.seed = 31;
  const Schema schema = spec.MakeSchema();
  auto run = [&] {
    Cluster cluster(4);
    cluster.Run([&](Comm& comm) {
      const Relation raw = GenerateSlice(spec, 4, comm.rank());
      BuildParallelCube(comm, raw, schema, AllViews(3));
    });
    return cluster.SimTimeSeconds();
  };
  const double t1 = run();
  const double t2 = run();
  const double t3 = run();
  EXPECT_DOUBLE_EQ(t1, t2);
  EXPECT_DOUBLE_EQ(t2, t3);
}

TEST(Integration, GigabitBeatsFastEthernet) {
  DatasetSpec spec;
  spec.rows = 8000;
  spec.cardinalities = {32, 16, 8, 4};
  spec.seed = 32;
  const Schema schema = spec.MakeSchema();
  auto run = [&](CostParams cost) {
    Cluster cluster(8, cost);
    cluster.Run([&](Comm& comm) {
      const Relation raw = GenerateSlice(spec, 8, comm.rank());
      BuildParallelCube(comm, raw, schema, AllViews(4));
    });
    return cluster.SimTimeSeconds();
  };
  const double fast_eth = run(FastEthernetBeowulf());
  const double gig_eth = run(GigabitBeowulf());
  EXPECT_LT(gig_eth, fast_eth);
}

TEST(Integration, RetailPartialCubeOnCluster) {
  const RetailDataset ds = GenerateRetail(5000);
  const int d = ds.schema.dims();
  const AnalyticEstimator est(ds.schema,
                              static_cast<double>(ds.facts.size()));
  const auto selected = GreedySelectViews(d, 12, est);

  const int p = 4;
  Cluster cluster(p);
  std::vector<CubeResult> shards(p);
  std::mutex mu;
  cluster.Run([&](Comm& comm) {
    // Deal the shared fact table round-robin (arbitrary distribution).
    Relation slice(ds.facts.width());
    for (std::size_t r = comm.rank(); r < ds.facts.size();
         r += static_cast<std::size_t>(p)) {
      slice.AppendRow(ds.facts, r);
    }
    CubeResult cube = BuildParallelCube(comm, slice, ds.schema, selected);
    std::lock_guard<std::mutex> lock(mu);
    shards[static_cast<std::size_t>(comm.rank())] = std::move(cube);
  });

  for (ViewId v : selected) {
    Relation combined(v.dim_count());
    for (const auto& shard : shards) {
      combined.Concat(Relation(shard.views.at(v).rel));
    }
    EXPECT_EQ(CanonicalizeRows(combined),
              BruteForceView(ds.facts, v, AggFn::kSum))
        << "view mask=" << v.mask();
  }
}

TEST(Integration, CsvRoundTripFeedsCube) {
  // CSV out → CSV in → cube: the relational-integration path of the CLI.
  DatasetSpec spec;
  spec.rows = 800;
  spec.cardinalities = {8, 4};
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();

  std::stringstream ss;
  WriteCsv(ss, raw, {"a", "b"});
  const Relation back = ReadCsv(ss);
  ASSERT_EQ(back, raw);

  const CubeResult cube = SequentialCube(back, schema, AllViews(2));
  EXPECT_EQ(cube.views.size(), 4u);
}

}  // namespace
}  // namespace sncube
