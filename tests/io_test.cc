#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/task_pool.h"
#include "io/checked_file.h"
#include "io/disk.h"
#include "io/external_sort.h"
#include "relation/sort.h"

namespace sncube {
namespace {

Relation RandomRelation(int width, int rows, Rng& rng, Key universe = 50) {
  Relation rel(width);
  std::vector<Key> keys(static_cast<std::size_t>(width));
  for (int r = 0; r < rows; ++r) {
    for (auto& k : keys) k = static_cast<Key>(rng.Below(universe));
    rel.Append(keys, r);
  }
  return rel;
}

TEST(DiskModel, ChargesWholeBlocks) {
  DiskModel disk({.block_bytes = 100, .memory_bytes = 1000});
  disk.ChargeRead(1);
  EXPECT_EQ(disk.blocks_read(), 1u);
  disk.ChargeRead(100);
  EXPECT_EQ(disk.blocks_read(), 2u);
  disk.ChargeWrite(101);
  EXPECT_EQ(disk.blocks_written(), 2u);
  EXPECT_EQ(disk.blocks_total(), 4u);
}

// The blocks each sort below charges are pinned: they are the counts the
// external sort charged when it still wrote its runs out and merged them
// back row by row, so the charge computed from the geometry must not drift
// from them.
struct Blocks {
  std::uint64_t read = 0;
  std::uint64_t written = 0;
};

// Sorts `rel` by `cols` under `params` serially and on a 4-thread pool; each
// output must equal SortRelation's and charge `want`.
void ExpectSort(const Relation& rel, std::span<const int> cols,
                DiskParams params, Blocks want) {
  for (const int threads : {1, 4}) {
    exec::TaskPool pool(threads);
    const exec::PoolScope scope(&pool);
    DiskModel disk(params);
    EXPECT_EQ(ExternalSort(rel, cols, disk), SortRelation(rel, cols))
        << "W=" << threads;
    EXPECT_EQ(disk.blocks_read(), want.read) << "W=" << threads;
    EXPECT_EQ(disk.blocks_written(), want.written) << "W=" << threads;
  }
}

TEST(ExternalSort, InMemoryPathMatchesStdSort) {
  Rng rng(1);
  // Default 64 MiB memory: fits easily, one read and one write.
  ExpectSort(RandomRelation(3, 500, rng), IdentityOrder(3), {}, {2, 2});
}

TEST(ExternalSort, SpillPathMatchesStdSort) {
  Rng rng(2);
  // 16 bytes/row * 2000 = 32 000 bytes; 2 KiB memory forces ~16 runs.
  ExpectSort(RandomRelation(2, 2000, rng), IdentityOrder(2),
             {.block_bytes = 256, .memory_bytes = 2048}, {500, 375});
}

TEST(ExternalSort, MultiPassMerge) {
  Rng rng(4);
  // 12 bytes/row * 4000 = 48 000 bytes; 1 KiB memory → 48 runs; fan-in
  // max(2, 1024/512-1)=2 → six merge passes.
  ExpectSort(RandomRelation(1, 4000, rng), IdentityOrder(1),
             {.block_bytes = 512, .memory_bytes = 1024}, {850, 662});
}

TEST(ExternalSort, BlockBudgetWithinVitterBound) {
  Rng rng(5);
  const std::size_t rows = 8000;
  const Relation rel = RandomRelation(1, static_cast<int>(rows), rng);
  const DiskParams params{.block_bytes = 512, .memory_bytes = 4096};
  ExpectSort(rel, IdentityOrder(1), params, {781, 564});

  // Runs of m/R rows, merged (m/B - 1) at a time.
  const std::size_t run_rows = params.memory_bytes / rel.RowBytes();
  const std::size_t runs = (rows + run_rows - 1) / run_rows;
  const std::size_t fan_in = params.memory_bytes / params.block_bytes - 1;
  int merge_passes = 0;
  for (std::size_t left = runs; left > 1;
       left = (left + fan_in - 1) / fan_in) {
    ++merge_passes;
  }
  ASSERT_EQ(runs, 24u);
  ASSERT_EQ(merge_passes, 2);

  const double n_over_b =
      static_cast<double>(rel.ByteSize()) / params.block_bytes;
  // Run formation (read+write) + merge passes (read+write each) + final
  // materialization read; allow slack for block rounding per run boundary.
  const double passes = 1.0 + merge_passes + 0.5;
  const double budget =
      2.0 * n_over_b * passes + 4.0 * static_cast<double>(runs);
  EXPECT_LE(781.0 + 564.0, budget);
}

TEST(ExternalSort, EmptyAndSingleRow) {
  const DiskParams params{.block_bytes = 64, .memory_bytes = 128};
  const auto cols = IdentityOrder(2);
  ExpectSort(Relation(2), cols, params, {0, 0});

  Relation one(2);
  one.Append(std::vector<Key>{9, 9}, 1);
  ExpectSort(one, cols, params, {1, 1});
}

TEST(ExternalSort, SortsByPermutedColumns) {
  Rng rng(6);
  const Relation rel = RandomRelation(3, 1200, rng);
  const std::vector<int> order{2, 0, 1};
  const DiskParams params{.block_bytes = 256, .memory_bytes = 2048};
  ExpectSort(rel, order, params, {402, 283});
  DiskModel disk(params);
  EXPECT_TRUE(IsSorted(ExternalSort(rel, order, disk), order));
}

TEST(ExternalSort, StableAcrossSpill) {
  // Equal keys must keep input order even when the sort is charged as a
  // spill.
  Relation rel(1);
  for (int i = 0; i < 3000; ++i) rel.Append(std::vector<Key>{5}, i);
  const DiskParams params{.block_bytes = 256, .memory_bytes = 1024};
  ExpectSort(rel, IdentityOrder(1), params, {904, 709});
  DiskModel disk(params);
  const Relation sorted = ExternalSort(rel, IdentityOrder(1), disk);
  ASSERT_EQ(sorted.size(), 3000u);
  for (int i = 0; i < 3000; ++i) EXPECT_EQ(sorted.measure(i), i);
}

// Parameterized grid: the sorter must be correct and charge its transfers
// for any (block, memory) geometry, including degenerate ones.
class ExternalSortGrid
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExternalSortGrid, CorrectAcrossGeometries) {
  const auto [block, memory] = GetParam();
  // Keyed by (B, m); the 2 500 rows (50 000 bytes) fit from m = 65 536.
  const std::map<std::pair<int, int>, Blocks> want = {
      {{64, 256}, {5838, 4805}},     {{64, 4096}, {2453, 1567}},
      {{64, 65536}, {782, 782}},     {{64, 1 << 22}, {782, 782}},
      {{512, 256}, {1244, 1021}},    {{512, 4096}, {411, 295}},
      {{512, 65536}, {98, 98}},      {{512, 1 << 22}, {98, 98}},
      {{4096, 256}, {669, 460}},     {{4096, 4096}, {78, 65}},
      {{4096, 65536}, {13, 13}},     {{4096, 1 << 22}, {13, 13}},
  };
  Rng rng(1000 + static_cast<std::uint64_t>(block + memory));
  SCOPED_TRACE("B=" + std::to_string(block) + " m=" + std::to_string(memory));
  ExpectSort(RandomRelation(3, 2500, rng, 30), IdentityOrder(3),
             {.block_bytes = static_cast<std::size_t>(block),
              .memory_bytes = static_cast<std::size_t>(memory)},
             want.at({block, memory}));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ExternalSortGrid,
    ::testing::Combine(::testing::Values(64, 512, 4096),
                       ::testing::Values(256, 4096, 65536, 1 << 22)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "B" + std::to_string(std::get<0>(info.param)) + "_m" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Checked io layer: sealed files, sealed lines, and write-fault injection.

std::filesystem::path FreshIoDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sncube_io_test_" + std::string(name) + "_" +
                    std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// A hook that corrupts exactly the n-th write it sees (0-based), then stops.
class OneShotCorruptor : public DiskFaultHook {
 public:
  OneShotCorruptor(WriteFault::Kind kind, int nth) : kind_(kind), nth_(nth) {}
  bool NextOpFails(bool) override { return false; }
  WriteFault NextWriteFault(std::size_t bytes) override {
    if (seen_++ != nth_) return {};
    WriteFault f;
    f.kind = kind_;
    // Damage somewhere in the middle of the write.
    f.offset = kind_ == WriteFault::Kind::kBitFlip ? bytes * 8 / 2 : bytes / 2;
    return f;
  }

 private:
  WriteFault::Kind kind_;
  int nth_;
  int seen_ = 0;
};

TEST(CheckedFile, SealedFileRoundTrip) {
  const auto dir = FreshIoDir("roundtrip");
  DiskModel disk;
  ByteBuffer payload;
  for (int i = 0; i < 300; ++i) payload.push_back(static_cast<std::byte>(i));
  WriteSealedFile(dir / "a.bin", payload, disk);
  EXPECT_GT(disk.blocks_written(), 0u);
  EXPECT_EQ(ReadSealedFile(dir / "a.bin", disk), payload);
  EXPECT_GT(disk.blocks_read(), 0u);
  // Overwrite semantics: a second write fully replaces the first.
  ByteBuffer shorter(3, std::byte{0x7});
  WriteSealedFile(dir / "a.bin", shorter, disk);
  EXPECT_EQ(ReadSealedFile(dir / "a.bin", disk), shorter);
  EXPECT_THROW(ReadSealedFile(dir / "absent.bin", disk), SncubeIoError);
  std::filesystem::remove_all(dir);
}

TEST(CheckedFile, InjectedBitFlipAndTornWriteAreDetectedOnRead) {
  const auto dir = FreshIoDir("faults");
  ByteBuffer payload(200, std::byte{0x42});
  for (const auto kind :
       {WriteFault::Kind::kBitFlip, WriteFault::Kind::kTornWrite}) {
    DiskModel disk;
    OneShotCorruptor hook(kind, 0);
    disk.set_fault_hook(&hook);
    WriteSealedFile(dir / "f.bin", payload, disk);
    disk.set_fault_hook(nullptr);
    EXPECT_THROW(ReadSealedFile(dir / "f.bin", disk), SncubeCorruptionError);
  }
  std::filesystem::remove_all(dir);
}

TEST(CheckedFile, SealedLineRoundTripAndDamageRejection) {
  const std::string sealed = SealLine("part 3 5 6 7");
  const auto text = VerifySealedLine(sealed);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text, "part 3 5 6 7");

  // Any single-character damage, truncation, or suffix tampering is caught.
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    std::string mutated = sealed;
    mutated[i] = mutated[i] == 'x' ? 'y' : 'x';
    EXPECT_FALSE(VerifySealedLine(mutated).has_value()) << "pos " << i;
    EXPECT_FALSE(VerifySealedLine(sealed.substr(0, i)).has_value());
  }
  // Two sealed lines torn together do not verify either.
  EXPECT_FALSE(VerifySealedLine(sealed + SealLine("part 4 1")).has_value());
}

TEST(CheckedFile, AppendSealedLineSurvivesTornTail) {
  const auto dir = FreshIoDir("append");
  const auto path = dir / "log.txt";
  DiskModel disk;
  AppendSealedLine(path, "part 0 1 2", disk);
  AppendSealedLine(path, "part 1 3", disk);
  // Third line is torn mid-write: acknowledged, but only a prefix lands.
  OneShotCorruptor hook(WriteFault::Kind::kTornWrite, 0);
  disk.set_fault_hook(&hook);
  AppendSealedLine(path, "part 2 5 6", disk);
  disk.set_fault_hook(nullptr);

  std::ifstream in(path);
  std::string line;
  std::vector<std::string> verified;
  while (std::getline(in, line)) {
    const auto text = VerifySealedLine(line);
    if (!text.has_value()) break;  // damaged tail: durable prefix ends here
    verified.push_back(*text);
  }
  EXPECT_EQ(verified,
            (std::vector<std::string>{"part 0 1 2", "part 1 3"}));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sncube
