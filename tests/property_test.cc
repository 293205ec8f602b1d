// Property suites: the repository's master invariants, swept over parameter
// grids with parameterized gtest.
//
// The headline property: for ANY processor count, balance threshold, skew,
// tree mode and aggregate, the parallel shared-nothing cube — concatenated
// across ranks — equals the brute-force sequential GROUP-BY of the whole
// data set, every shard is sorted, and no group straddles a rank boundary.
#include <gtest/gtest.h>

#include <mutex>
#include <tuple>

#include "core/parallel_cube.h"
#include "core/sample_sort.h"
#include "data/generator.h"
#include "lattice/lattice.h"
#include "net/cluster.h"
#include "relation/sort.h"
#include "seqcube/cube_result.h"

namespace sncube {
namespace {

// ---------------------------------------------------------------------------
// Master end-to-end property over (p, gamma, alpha, tree mode).

struct CubeCase {
  int p;
  double gamma;
  double alpha;
  TreeMode mode;
};

class ParallelCubeProperty : public ::testing::TestWithParam<CubeCase> {};

TEST_P(ParallelCubeProperty, MatchesBruteForce) {
  const CubeCase c = GetParam();
  DatasetSpec spec;
  spec.rows = 2500;
  spec.cardinalities = {24, 10, 6, 4};
  spec.alphas = {c.alpha, c.alpha, 0.0, 0.0};
  spec.seed = 7000 + static_cast<std::uint64_t>(c.p * 10 + c.gamma * 100);
  const Schema schema = spec.MakeSchema();
  const auto selected = AllViews(4);

  ParallelCubeOptions opts;
  opts.gamma_merge = c.gamma;
  opts.tree_mode = c.mode;
  if (c.mode == TreeMode::kLocal) opts.estimator = EstimatorKind::kFm;

  Cluster cluster(c.p);
  std::vector<CubeResult> shards(static_cast<std::size_t>(c.p));
  std::mutex mu;
  cluster.Run([&](Comm& comm) {
    const Relation raw = GenerateSlice(spec, c.p, comm.rank());
    CubeResult cube = BuildParallelCube(comm, raw, schema, selected, opts);
    std::lock_guard<std::mutex> lock(mu);
    shards[static_cast<std::size_t>(comm.rank())] = std::move(cube);
  });

  const Relation whole = GenerateDataset(spec);
  for (ViewId v : selected) {
    Relation combined(v.dim_count());
    const ViewResult* prev = nullptr;
    for (const auto& shard : shards) {
      const ViewResult& vr = shard.views.at(v);
      const auto cols = ColumnsOf(v, vr.order);
      ASSERT_TRUE(IsSorted(vr.rel, cols)) << "view mask=" << v.mask();
      if (!vr.rel.empty()) {
        if (prev != nullptr && !prev->rel.empty()) {
          const auto pcols = ColumnsOf(v, prev->order);
          EXPECT_LT(CompareRows(prev->rel, prev->rel.size() - 1, pcols,
                                vr.rel, 0, cols),
                    0)
              << "group straddles ranks, view mask=" << v.mask();
        }
        prev = &vr;
      }
      combined.Concat(Relation(vr.rel));
    }
    EXPECT_EQ(CanonicalizeRows(combined),
              BruteForceView(whole, v, AggFn::kSum))
        << "view mask=" << v.mask();
  }
}

// gtest prints a struct parameter as a dump of its raw bytes, padding
// included, and the dump becomes part of each ctest name. The cases live in
// static tables, whose padding is zero, so the names are the same on every
// run; temporaries built in the INSTANTIATE call would carry stack garbage.
constexpr CubeCase kCubeCases[] = {
    {1, 0.03, 0.0, TreeMode::kGlobal},
    {2, 0.03, 0.0, TreeMode::kGlobal},
    {3, 0.03, 0.0, TreeMode::kGlobal},
    {4, 0.03, 0.0, TreeMode::kGlobal},
    {6, 0.03, 0.0, TreeMode::kGlobal},
    {8, 0.03, 0.0, TreeMode::kGlobal},
    {4, 0.0, 0.0, TreeMode::kGlobal},   // everything Case 3
    {4, 10.0, 0.0, TreeMode::kGlobal},  // Case 3 never fires
    {4, 0.03, 1.0, TreeMode::kGlobal},
    {4, 0.03, 2.0, TreeMode::kGlobal},
    {4, 0.03, 3.0, TreeMode::kGlobal},
    {5, 0.01, 1.5, TreeMode::kGlobal},
    {2, 0.03, 1.0, TreeMode::kLocal},
    {4, 0.03, 2.0, TreeMode::kLocal},
    {6, 0.05, 0.5, TreeMode::kLocal},
};

INSTANTIATE_TEST_SUITE_P(
    Grid, ParallelCubeProperty, ::testing::ValuesIn(kCubeCases),
    [](const ::testing::TestParamInfo<CubeCase>& info) {
      const CubeCase& c = info.param;
      return "p" + std::to_string(c.p) + "_g" +
             std::to_string(static_cast<int>(c.gamma * 100)) + "_a" +
             std::to_string(static_cast<int>(c.alpha * 10)) +
             (c.mode == TreeMode::kLocal ? "_local" : "_global");
    });

// ---------------------------------------------------------------------------
// Thread byte-identity: at every --threads-per-rank the cube must equal the
// single-thread baseline view-for-view, byte-for-byte — the contract that
// makes the per-rank exec pool a pure performance knob.

std::vector<CubeResult> BuildThreadShards(int threads) {
  DatasetSpec spec;
  spec.rows = 2500;
  spec.cardinalities = {24, 10, 6, 4};
  spec.alphas = {2.0, 1.0, 0.0, 0.0};
  spec.seed = 9100;
  const Schema schema = spec.MakeSchema();
  const auto selected = AllViews(4);

  constexpr int kP = 2;
  Cluster cluster(kP);
  cluster.set_threads_per_rank(threads);
  std::vector<CubeResult> shards(kP);
  std::mutex mu;
  cluster.Run([&](Comm& comm) {
    const Relation raw = GenerateSlice(spec, kP, comm.rank());
    CubeResult cube = BuildParallelCube(comm, raw, schema, selected);
    std::lock_guard<std::mutex> lock(mu);
    shards[static_cast<std::size_t>(comm.rank())] = std::move(cube);
  });
  return shards;
}

class ThreadIdentityProperty : public ::testing::TestWithParam<int> {};

TEST_P(ThreadIdentityProperty, BytesMatchSerialBaseline) {
  const auto base = BuildThreadShards(1);
  const auto got = BuildThreadShards(GetParam());
  ASSERT_EQ(got.size(), base.size());
  for (std::size_t r = 0; r < base.size(); ++r) {
    ASSERT_EQ(got[r].views.size(), base[r].views.size()) << "rank " << r;
    for (const auto& [v, vr] : base[r].views) {
      const ViewResult& gvr = got[r].views.at(v);
      EXPECT_EQ(gvr.order, vr.order)
          << "rank " << r << " view mask=" << v.mask();
      EXPECT_EQ(gvr.rel, vr.rel) << "rank " << r << " view mask=" << v.mask();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ThreadIdentityProperty, ::testing::Values(1, 2, 4),
    [](const ::testing::TestParamInfo<int>& info) {
      return "t" + std::to_string(info.param);
    });

// ---------------------------------------------------------------------------
// Dimensionality sweep: the property holds as the lattice grows.

class DimsProperty : public ::testing::TestWithParam<int> {};

TEST_P(DimsProperty, FullCubeAllDims) {
  const int d = GetParam();
  DatasetSpec spec;
  spec.rows = 1200;
  for (int i = 0; i < d; ++i) {
    spec.cardinalities.push_back(static_cast<std::uint32_t>(16 >> (i % 3)));
  }
  spec.seed = 7100 + static_cast<std::uint64_t>(d);
  const Schema schema = spec.MakeSchema();
  const auto selected = AllViews(d);
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

  const Relation whole = GenerateDataset(spec);
  ASSERT_EQ(shards[0].views.size(), selected.size());
  for (ViewId v : selected) {
    Relation combined(v.dim_count());
    for (const auto& shard : shards) {
      combined.Concat(Relation(shard.views.at(v).rel));
    }
    EXPECT_EQ(CanonicalizeRows(combined),
              BruteForceView(whole, v, AggFn::kSum))
        << "d=" << d << " view mask=" << v.mask();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DimsProperty, ::testing::Range(2, 7));

// ---------------------------------------------------------------------------
// Sample-sort property over input distributions × processor counts.

enum class Dist { kUniform, kZipf, kConstant, kPresorted, kReversed, kEmpty };

class SampleSortProperty
    : public ::testing::TestWithParam<std::tuple<int, Dist>> {};

Relation MakeDistribution(Dist dist, int rank, int rows) {
  Rng rng(9000 + static_cast<std::uint64_t>(rank));
  Relation rel(2);
  switch (dist) {
    case Dist::kEmpty:
      return rel;
    case Dist::kUniform:
      for (int i = 0; i < rows; ++i) {
        rel.Append(std::vector<Key>{static_cast<Key>(rng.Below(500)),
                                    static_cast<Key>(rng.Below(8))},
                   i);
      }
      return rel;
    case Dist::kZipf: {
      ZipfSampler z(500, 2.0);
      for (int i = 0; i < rows; ++i) {
        rel.Append(std::vector<Key>{z.Sample(rng),
                                    static_cast<Key>(rng.Below(8))},
                   i);
      }
      return rel;
    }
    case Dist::kConstant:
      for (int i = 0; i < rows; ++i) {
        rel.Append(std::vector<Key>{7, 7}, i);
      }
      return rel;
    case Dist::kPresorted:
      for (int i = 0; i < rows; ++i) {
        rel.Append(std::vector<Key>{static_cast<Key>(rank * rows + i), 0}, i);
      }
      return rel;
    case Dist::kReversed:
      for (int i = rows; i > 0; --i) {
        rel.Append(std::vector<Key>{static_cast<Key>(i), 0}, i);
      }
      return rel;
  }
  return rel;
}

TEST_P(SampleSortProperty, GloballySortedBalancedMultiset) {
  const auto [param_p, param_dist] = GetParam();
  const struct {
    int p;
    Dist dist;
  } c{param_p, param_dist};
  const int rows = 300;
  const auto cols = IdentityOrder(2);

  std::vector<Relation> inputs;
  std::size_t total = 0;
  for (int r = 0; r < c.p; ++r) {
    inputs.push_back(MakeDistribution(c.dist, r, rows));
    total += inputs.back().size();
  }

  Cluster cluster(c.p);
  std::vector<Relation> shards(static_cast<std::size_t>(c.p));
  std::vector<SampleSortStats> stats(static_cast<std::size_t>(c.p));
  std::mutex mu;
  cluster.Run([&](Comm& comm) {
    SampleSortStats st;
    Relation out = AdaptiveSampleSort(
        comm, Relation(inputs[static_cast<std::size_t>(comm.rank())]), cols,
        0.01, &st);
    std::lock_guard<std::mutex> lock(mu);
    shards[static_cast<std::size_t>(comm.rank())] = std::move(out);
    stats[static_cast<std::size_t>(comm.rank())] = st;
  });

  // Globally sorted.
  const Relation* prev = nullptr;
  std::size_t got = 0;
  std::vector<std::uint64_t> sizes;
  for (const auto& shard : shards) {
    EXPECT_TRUE(IsSorted(shard, cols));
    if (!shard.empty()) {
      if (prev != nullptr) {
        EXPECT_LE(
            CompareRows(*prev, prev->size() - 1, cols, shard, 0, cols), 0);
      }
      prev = &shard;
    }
    got += shard.size();
    sizes.push_back(shard.size());
  }
  EXPECT_EQ(got, total);

  // Balanced when the shift ran; or the first h-relation was balanced.
  if (total > 0) {
    if (stats[0].shifted) {
      std::uint64_t mx = 0;
      std::uint64_t mn = total;
      for (auto s : sizes) {
        mx = std::max(mx, s);
        mn = std::min(mn, s);
      }
      EXPECT_LE(mx - mn, 1u);  // perfectly even after the global shift
    } else {
      EXPECT_LE(stats[0].imbalance_before_shift, 0.01 + 1e-9);
    }
  }

  // Same multiset of (keys, measure).
  Relation combined(2);
  for (const auto& shard : shards) combined.Concat(Relation(shard));
  Relation all(2);
  for (const auto& input : inputs) all.Concat(Relation(input));
  auto normalize = [](const Relation& rel) {
    std::vector<std::tuple<Key, Key, Measure>> v;
    for (std::size_t i = 0; i < rel.size(); ++i) {
      v.emplace_back(rel.key(i, 0), rel.key(i, 1), rel.measure(i));
    }
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(normalize(combined), normalize(all));
}

std::string SortCaseName(
    const ::testing::TestParamInfo<std::tuple<int, Dist>>& info) {
  static const char* names[] = {"uniform",   "zipf",     "constant",
                                "presorted", "reversed", "empty"};
  return "p" + std::to_string(std::get<0>(info.param)) + "_" +
         names[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SampleSortProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(Dist::kUniform, Dist::kZipf,
                                         Dist::kConstant, Dist::kPresorted,
                                         Dist::kReversed, Dist::kEmpty)),
    SortCaseName);

}  // namespace
}  // namespace sncube
