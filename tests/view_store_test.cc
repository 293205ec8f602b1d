#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "io/checked_file.h"
#include "data/generator.h"
#include "lattice/lattice.h"
#include "net/wire.h"
#include "relation/sort.h"
#include "seqcube/seq_cube.h"
#include "seqcube/view_frame.h"
#include "seqcube/view_store.h"

namespace sncube {
namespace {

class ViewStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sncube_store_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

ViewResult MakeView(ViewId id, std::vector<int> order, int rows) {
  ViewResult vr;
  vr.id = id;
  vr.order = std::move(order);
  vr.rel = Relation(id.dim_count());
  std::vector<Key> keys(static_cast<std::size_t>(id.dim_count()));
  for (int r = 0; r < rows; ++r) {
    for (auto& k : keys) k = static_cast<Key>(r);
    vr.rel.Append(keys, r * 7);
  }
  return vr;
}

// Writes one view (and a one-entry index) through a writer.
void SaveView(const ViewStore& store, const ViewResult& view) {
  ViewStore::Writer writer(store, Schema({16, 8, 4}));
  writer.Write(view);
  writer.Commit();
}

TEST_F(ViewStoreTest, SaveLoadRoundTrip) {
  ViewStore store(dir_);
  const ViewResult original = MakeView(ViewId::FromDims({0, 2}), {2, 0}, 50);
  SaveView(store, original);
  ASSERT_TRUE(store.Contains(original.id));
  const ViewResult back = store.Load({original.id, original.rel.size()});
  EXPECT_EQ(back.id, original.id);
  EXPECT_EQ(back.order, original.order);
  EXPECT_EQ(back.rel, original.rel);
}

TEST_F(ViewStoreTest, SchemaManifestRoundTrip) {
  ViewStore store(dir_);
  const Schema schema({100, 50, 2}, {"alpha", "beta", "gamma"});
  store.SaveManifest({schema, {}});
  const Schema back = store.LoadManifest().schema;
  ASSERT_EQ(back.dims(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(back.cardinality(i), schema.cardinality(i));
    EXPECT_EQ(back.name(i), schema.name(i));
  }
}

TEST_F(ViewStoreTest, ListAndLoadCube) {
  DatasetSpec spec;
  spec.rows = 1000;
  spec.cardinalities = {8, 4, 2};
  const Relation raw = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  const CubeResult cube = SequentialCube(raw, schema, AllViews(3));

  ViewStore store(dir_);
  store.SaveCube(cube, schema);
  EXPECT_EQ(store.LoadManifest().views.size(), 8u);

  const CubeResult back = store.LoadCube();
  ASSERT_EQ(back.views.size(), cube.views.size());
  for (const auto& [id, vr] : cube.views) {
    const auto it = back.views.find(id);
    ASSERT_NE(it, back.views.end());
    EXPECT_EQ(it->second.rel, vr.rel);
    EXPECT_EQ(it->second.order, vr.order);
  }
}

TEST_F(ViewStoreTest, AuxViewsNotPersisted) {
  ViewStore store(dir_);
  CubeResult cube;
  ViewResult selected = MakeView(ViewId::FromDims({0}), {0}, 3);
  ViewResult aux = MakeView(ViewId::FromDims({1}), {1}, 3);
  aux.selected = false;
  cube.views[selected.id] = std::move(selected);
  cube.views[aux.id] = std::move(aux);
  store.SaveCube(cube, Schema({4, 2}));
  EXPECT_EQ(store.LoadManifest().views.size(), 1u);
  EXPECT_FALSE(store.Contains(ViewId::FromDims({1})));
  // The writer skips an auxiliary handed to it.
  ViewStore::Writer writer(store, Schema({4, 2}));
  writer.Write(cube.views.at(ViewId::FromDims({1})));
  writer.Commit();
  EXPECT_TRUE(store.LoadManifest().views.empty());
  EXPECT_FALSE(store.Contains(ViewId::FromDims({1})));
}

TEST_F(ViewStoreTest, OverwriteReplacesContent) {
  ViewStore store(dir_);
  SaveView(store, MakeView(ViewId::FromDims({0}), {0}, 10));
  SaveView(store, MakeView(ViewId::FromDims({0}), {0}, 3));
  EXPECT_EQ(store.Load({ViewId::FromDims({0}), 3}).rel.size(), 3u);
}

TEST_F(ViewStoreTest, MissingViewThrows) {
  ViewStore store(dir_);
  EXPECT_THROW(store.Load({ViewId::FromDims({0}), 0}), SncubeError);
  EXPECT_THROW(store.Check({ViewId::FromDims({0}), 0}), SncubeIoError);
  EXPECT_THROW(store.LoadManifest(), SncubeIoError);
}

TEST_F(ViewStoreTest, CorruptFileRejected) {
  ViewStore store(dir_);
  const ViewId id = ViewId::FromDims({0, 1});
  SaveView(store, MakeView(id, {0, 1}, 5));
  // Truncate the file.
  const auto path = dir_ / "v00003.sncv";
  ASSERT_TRUE(std::filesystem::exists(path));
  std::filesystem::resize_file(path, 10);
  EXPECT_THROW(store.Load({id, 5}), SncubeError);
}

std::string ReadText(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteText(const std::filesystem::path& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

// A small full cube over 3 dimensions, persisted into `dir`.
CubeResult SaveSmallCube(const ViewStore& store, Schema* schema) {
  DatasetSpec spec;
  spec.rows = 500;
  spec.cardinalities = {8, 4, 2};
  *schema = spec.MakeSchema();
  CubeResult cube = SequentialCube(GenerateDataset(spec), *schema, AllViews(3));
  store.SaveCube(cube, *schema);
  return cube;
}

TEST_F(ViewStoreTest, IndexRoundTrips) {
  ViewStore store(dir_);
  Schema schema;
  const CubeResult cube = SaveSmallCube(store, &schema);
  const CubeManifest manifest = store.LoadManifest();
  EXPECT_EQ(manifest.views, IndexOf(cube));
  ASSERT_EQ(manifest.schema.dims(), schema.dims());
  for (int i = 0; i < schema.dims(); ++i) {
    EXPECT_EQ(manifest.schema.name(i), schema.name(i));
    EXPECT_EQ(manifest.schema.cardinality(i), schema.cardinality(i));
  }
  // Writing the loaded manifest back reproduces the same bytes.
  const std::string bytes = ReadText(dir_ / "manifest.txt");
  store.SaveManifest(manifest);
  EXPECT_EQ(ReadText(dir_ / "manifest.txt"), bytes);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "manifest.txt.tmp"));
  // One view reused for every load, whatever its width.
  ViewResult reused;
  for (const ViewEntry& entry : manifest.views) {
    EXPECT_NO_THROW(store.Check(entry));
    store.Load(entry, reused);
    EXPECT_EQ(reused.id, entry.id);
    EXPECT_EQ(reused.order, cube.views.at(entry.id).order);
    EXPECT_EQ(reused.rel, cube.views.at(entry.id).rel);
  }
}

TEST_F(ViewStoreTest, IndexGovernsLoadsNotTheListing) {
  ViewStore store(dir_);
  Schema schema;
  SaveSmallCube(store, &schema);
  // A stray view file the index does not name is never loaded.
  CubeResult one;
  one.views[ViewId::FromDims({0})] = MakeView(ViewId::FromDims({0}), {0}, 4);
  store.SaveCube(one, schema);
  EXPECT_TRUE(store.Contains(ViewId::FromDims({1})));
  const CubeResult back = store.LoadCube();
  ASSERT_EQ(back.views.size(), 1u);
  EXPECT_EQ(back.views.begin()->second.rel.size(), 4u);
}

TEST_F(ViewStoreTest, ManifestIsWrittenLast) {
  ViewStore store(dir_);
  Schema schema;
  const CubeResult cube = SaveSmallCube(store, &schema);
  ASSERT_TRUE(std::filesystem::exists(dir_ / "manifest.txt"));
  // Make the write of view {1} (mask 2) fail: a directory sits in its place.
  std::filesystem::remove(dir_ / "v00002.sncv");
  std::filesystem::create_directory(dir_ / "v00002.sncv");
  EXPECT_THROW(store.SaveCube(cube, schema), SncubeError);
  // The old manifest went first and the new one never came: the half-
  // rewritten directory is refused, not read as a blend.
  EXPECT_FALSE(std::filesystem::exists(dir_ / "manifest.txt"));
  EXPECT_THROW(store.LoadCube(), SncubeIoError);
  std::filesystem::remove(dir_ / "v00002.sncv");
  store.SaveCube(cube, schema);
  EXPECT_EQ(store.LoadManifest().views, IndexOf(cube));
}

TEST_F(ViewStoreTest, WriterLeavesNoManifestUntilCommit) {
  ViewStore store(dir_);
  Schema schema;
  const CubeResult cube = SaveSmallCube(store, &schema);
  ASSERT_TRUE(std::filesystem::exists(dir_ / "manifest.txt"));
  {
    ViewStore::Writer writer(store, schema);
    EXPECT_FALSE(std::filesystem::exists(dir_ / "manifest.txt"));
    for (const auto& [id, vr] : cube.views) {
      writer.Write(vr);
      EXPECT_FALSE(std::filesystem::exists(dir_ / "manifest.txt"));
    }
  }  // dropped without Commit, as by a build that failed midway
  EXPECT_THROW(store.LoadManifest(), SncubeIoError);
  EXPECT_THROW(store.LoadCube(), SncubeIoError);

  // A view written twice fails at Commit, which writes no manifest.
  ViewStore::Writer twice(store, schema);
  twice.Write(cube.views.begin()->second);
  twice.Write(cube.views.begin()->second);
  EXPECT_THROW(twice.Commit(), SncubeError);
  EXPECT_THROW(store.LoadManifest(), SncubeIoError);
}

TEST_F(ViewStoreTest, MalformedManifestsThrowCorruption) {
  ViewStore store(dir_);
  Schema schema;
  SaveSmallCube(store, &schema);
  const std::string good = ReadText(dir_ / "manifest.txt");
  ASSERT_EQ(good.substr(0, 24), "sncube-manifest 3\n3\nD0 8");

  const auto expect_corrupt = [&](const std::string& text,
                                  const std::string& what) {
    WriteText(dir_ / "manifest.txt", text);
    EXPECT_THROW(store.LoadManifest(), SncubeCorruptionError) << what;
    EXPECT_THROW(store.LoadCube(), SncubeCorruptionError) << what;
  };
  const auto replace = [&](const std::string& from, const std::string& to) {
    const auto at = good.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    std::string text = good;
    return text.replace(at, from.size(), to);
  };

  // Every truncation, at any byte.
  for (std::size_t n = 0; n < good.size(); ++n) {
    expect_corrupt(good.substr(0, n), "truncated to " + std::to_string(n));
  }
  expect_corrupt("", "empty");
  expect_corrupt(good + "v00008 1\n", "trailing line");
  expect_corrupt(replace("sncube-manifest 3", "sncube-manifest 4"),
                 "unknown version");
  expect_corrupt(replace("sncube-manifest 3", "sncube-manifest x"),
                 "non-numeric version");
  expect_corrupt(replace("sncube-manifest", "sncube-manifesto"), "bad magic");
  expect_corrupt(replace("\n3\n", "\n0\n"), "zero dimensions");
  expect_corrupt(replace("\n3\n", "\n21\n"), "too many dimensions");
  expect_corrupt(replace("D0 8", "D0 -8"), "negative cardinality");
  expect_corrupt(replace("D0 8", "D0 0"), "zero cardinality");
  expect_corrupt(replace("D0 8", "D0 1"), "cardinalities out of order");
  expect_corrupt(replace("D0 8", "D0  8"), "double space");
  expect_corrupt(replace("D1 4", "D0 4"), "duplicate dimension name");
  expect_corrupt(replace("\n8\nv00000", "\n9\nv00000"), "view count above 2^d");
  expect_corrupt(replace("\n8\nv00000", "\n7\nv00000"), "short view count");
  expect_corrupt(replace("v00007 ", "v00008 "), "mask outside the schema");
  expect_corrupt(replace("v00002 ", "v00001 "), "duplicate mask");
  expect_corrupt(replace("v00001 ", "v00003 "), "unsorted masks");
  expect_corrupt(replace("v00001 ", "x00001 "), "bad view name");
  expect_corrupt(replace("v00001 ", "v0000g "), "non-hex mask");
  expect_corrupt(replace("v00001 ", "v00001 -"), "negative row count");
  expect_corrupt(replace("\nv00002 ", "x\nv00002 "), "row count garbage");
  expect_corrupt(replace("\nend\n", "\nEND\n"), "bad end line");
}

void ExpectRebuildHint(const ViewStore& store) {
  try {
    store.LoadManifest();
    FAIL() << "old manifest accepted";
  } catch (const SncubeCorruptionError& e) {
    EXPECT_NE(std::string(e.what()).find("rebuild"), std::string::npos)
        << e.what();
  }
}

TEST_F(ViewStoreTest, FormatOneManifestSaysRebuild) {
  ViewStore store(dir_);
  Schema schema;
  SaveSmallCube(store, &schema);
  WriteText(dir_ / "manifest.txt", "sncube-manifest 1\n3\nD0 8\nD1 4\nD2 2\n");
  ExpectRebuildHint(store);
}

// Format 2 indexed unsealed raw-row view files; its directories are refused
// the same way.
TEST_F(ViewStoreTest, FormatTwoManifestSaysRebuild) {
  ViewStore store(dir_);
  Schema schema;
  SaveSmallCube(store, &schema);
  std::string text = ReadText(dir_ / "manifest.txt");
  text.replace(0, 17, "sncube-manifest 2");
  WriteText(dir_ / "manifest.txt", text);
  ExpectRebuildHint(store);
}

TEST_F(ViewStoreTest, ViewDisagreeingWithItsEntryThrowsCorruption) {
  ViewStore store(dir_);
  Schema schema;
  SaveSmallCube(store, &schema);
  const std::string good = ReadText(dir_ / "manifest.txt");

  // A row count that disagrees with the view file's header.
  CubeManifest manifest = store.LoadManifest();
  manifest.views[1].rows += 1;
  store.SaveManifest(manifest);
  EXPECT_THROW(store.Load(manifest.views[1]), SncubeCorruptionError);
  EXPECT_THROW(store.Check(manifest.views[1]), SncubeCorruptionError);
  EXPECT_THROW(store.LoadCube(), SncubeCorruptionError);

  // A file holding another view of the same width under the entry's name.
  WriteText(dir_ / "manifest.txt", good);
  std::filesystem::copy_file(dir_ / "v00001.sncv", dir_ / "v00002.sncv",
                             std::filesystem::copy_options::overwrite_existing);
  EXPECT_THROW(store.LoadCube(), SncubeCorruptionError);
  EXPECT_THROW(store.Check(store.LoadManifest().views[2]),
               SncubeCorruptionError);
}

TEST_F(ViewStoreTest, RankPartsWriteTheConcatenatedView) {
  // The writer, handed whole views one at a time in descending mask order
  // (a stream is in no mask order), and SaveCubeParts, handed the same cube
  // as 1 to 4 "ranks" each holding part of every view, must write the same
  // directory bytes.
  DatasetSpec spec;
  spec.rows = 500;
  spec.cardinalities = {8, 4, 2};
  const Schema schema = spec.MakeSchema();
  const CubeResult cube =
      SequentialCube(GenerateDataset(spec), schema, AllViews(3));
  ViewStore whole(dir_ / "whole");
  ViewStore::Writer writer(whole, schema);
  for (auto it = cube.views.rbegin(); it != cube.views.rend(); ++it) {
    writer.Write(it->second);
  }
  writer.Commit();
  for (std::size_t k = 1; k <= 4; ++k) {
    std::vector<CubeResult> parts(k);
    for (const auto& [id, vr] : cube.views) {
      for (std::size_t r = 0; r < k; ++r) {
        ViewResult part;
        part.id = id;
        part.order = vr.order;
        part.rel = Relation(vr.rel.width());
        for (std::size_t i = vr.rel.size() * r / k;
             i < vr.rel.size() * (r + 1) / k; ++i) {
          part.rel.AppendRow(vr.rel, i);
        }
        parts[r].views[id] = std::move(part);
      }
    }
    ViewStore split(dir_ / ("split" + std::to_string(k)));
    split.SaveCubeParts(parts, schema);
    std::size_t files = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir_ / "whole")) {
      const auto name = entry.path().filename();
      EXPECT_EQ(ReadText(entry.path()), ReadText(split.dir() / name))
          << k << " parts: " << name;
      ++files;
    }
    EXPECT_EQ(files, IndexOf(cube).size() + 1);

    // Parts that disagree on a view's sort order are refused.
    if (k > 1) {
      parts[1].views.begin()->second.order = {9};
      EXPECT_THROW(split.SaveCubeParts(parts, schema), SncubeError);
    }
  }
}

TEST_F(ViewStoreTest, EmptyViewPersists) {
  ViewStore store(dir_);
  SaveView(store, MakeView(ViewId::Empty(), {}, 0));
  const ViewResult back = store.Load({ViewId::Empty(), 0});
  EXPECT_EQ(back.rel.size(), 0u);
  EXPECT_EQ(back.rel.width(), 0);
}

// Every byte of every view file is covered by the seal: a flipped byte or a
// truncation anywhere is a typed error from Load, Check and LoadCube, never
// a changed answer.
TEST_F(ViewStoreTest, EveryFlippedByteAndTruncationOfAViewFileThrows) {
  ViewStore store(dir_);
  Schema schema;
  SaveSmallCube(store, &schema);
  const CubeManifest manifest = store.LoadManifest();
  std::size_t cases = 0;
  for (const ViewEntry& entry : manifest.views) {
    char name[32];
    std::snprintf(name, sizeof(name), "v%05x.sncv", entry.id.mask());
    const auto path = dir_ / name;
    const std::string good = ReadText(path);
    ASSERT_FALSE(good.empty()) << name;
    const auto expect_corrupt = [&](const std::string& bytes,
                                    const std::string& what) {
      WriteText(path, bytes);
      EXPECT_THROW(store.Load(entry), SncubeCorruptionError) << name << what;
      EXPECT_THROW(store.Check(entry), SncubeCorruptionError) << name << what;
      EXPECT_THROW(store.LoadCube(), SncubeCorruptionError) << name << what;
      ++cases;
    };
    for (std::size_t i = 0; i < good.size(); ++i) {
      std::string flipped = good;
      flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
      expect_corrupt(flipped, " bit 0 of byte " + std::to_string(i));
      flipped[i] = static_cast<char>(good[i] ^ 0xff);
      expect_corrupt(flipped, " byte " + std::to_string(i) + " inverted");
    }
    for (std::size_t n = 0; n < good.size(); ++n) {
      expect_corrupt(good.substr(0, n), " truncated to " + std::to_string(n));
    }
    WriteText(path, good);
    EXPECT_EQ(store.Load(entry).rel.size(), entry.rows);
    EXPECT_NO_THROW(store.Check(entry));
  }
  EXPECT_GT(cases, 1000u);
}

TEST_F(ViewStoreTest, SnapshotFrameInTheCubeDirectoryIsRefused) {
  ViewStore store(dir_);
  Schema schema;
  const CubeResult cube = SaveSmallCube(store, &schema);
  const ViewEntry entry = store.LoadManifest().views[1];
  DiskModel disk;
  WriteSealedFile(dir_ / "v00001.sncv",
                  EncodeViewFrame(cube.views.at(entry.id), /*epoch=*/3), disk);
  EXPECT_THROW(store.Load(entry), SncubeCorruptionError);
  EXPECT_THROW(store.Check(entry), SncubeCorruptionError);
}

// ---------------------------------------------------------------------------
// The view frame codec.

void ExpectSameView(const ViewResult& got, const ViewResult& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.order, want.order);
  EXPECT_EQ(got.selected, want.selected);
  EXPECT_EQ(got.rel, want.rel);
}

// A random sorted, aggregated view over `dims` of 20 dimensions: every sort
// column gets a random bit width from 0 to 32 (0 and 32 drawn often), rows
// are distinct in the random sort order, and measures include the int64
// extremes.
ViewResult RandomView(Rng& rng, int dims, std::size_t max_rows) {
  std::vector<int> all(ViewId::kMaxDims);
  std::iota(all.begin(), all.end(), 0);
  for (std::size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.Below(i)]);
  }
  ViewResult vr;
  vr.order.assign(all.begin(), all.begin() + dims);
  vr.id = ViewId::FromDims(vr.order);
  vr.selected = rng.Below(2) == 0;
  const std::vector<int> cols = ColumnsOf(vr.id, vr.order);
  std::vector<int> bits(static_cast<std::size_t>(dims));
  for (int& b : bits) {
    const auto pick = rng.Below(4);
    b = pick == 0 ? 0 : pick == 1 ? 32 : static_cast<int>(1 + rng.Below(31));
  }
  Relation raw(dims);
  std::vector<Key> keys(static_cast<std::size_t>(dims));
  const std::size_t rows = rng.Below(max_rows + 1);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const int b = bits[i];
      keys[static_cast<std::size_t>(cols[i])] =
          b == 0 ? 0 : static_cast<Key>(rng.Next() >> (64 - b));
    }
    Measure m = static_cast<Measure>(rng.Next());
    if (rng.Below(8) == 0) m = std::numeric_limits<Measure>::min();
    if (rng.Below(8) == 0) m = std::numeric_limits<Measure>::max();
    if (rng.Below(8) == 0) m = 0;
    raw.Append(keys, m);
  }
  const Relation sorted = SortRelation(raw, cols);
  vr.rel = Relation(dims);
  for (std::size_t r = 0; r < sorted.size(); ++r) {
    if (r > 0 && CompareRows(sorted, r - 1, cols, sorted, r, cols) == 0) {
      continue;
    }
    vr.rel.AppendRow(sorted, r);
  }
  return vr;
}

// The frame of a view split into random rank parts.
ByteBuffer EncodeRandomParts(Rng& rng, const ViewResult& vr,
                             std::uint64_t epoch,
                             std::vector<Relation>& storage) {
  const std::size_t k = 1 + rng.Below(4);
  std::vector<std::size_t> cuts{0, vr.rel.size()};
  for (std::size_t i = 1; i < k; ++i) {
    cuts.push_back(rng.Below(vr.rel.size() + 1));
  }
  std::sort(cuts.begin(), cuts.end());
  storage.assign(cuts.size() - 1, Relation(vr.rel.width()));
  std::vector<const Relation*> parts;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    for (std::size_t r = cuts[i]; r < cuts[i + 1]; ++r) {
      storage[i].AppendRow(vr.rel, r);
    }
    parts.push_back(&storage[i]);
  }
  return EncodeViewFrame(vr.id, vr.order, vr.selected, epoch, parts);
}

TEST(ViewFrame, RandomViewsRoundTripAndPartsMatchTheWhole) {
  Rng rng(2024);
  int wide = 0;
  // One frame decoded into on every trial, whatever the width.
  ViewFrame back;
  for (int trial = 0; trial < 400; ++trial) {
    const int dims = trial % (ViewId::kMaxDims + 1);
    const std::size_t max_rows = trial % 7 == 0 ? 1 : 300;
    const ViewResult vr = RandomView(rng, dims, max_rows);
    const std::uint64_t epoch = rng.Next();
    const ByteBuffer frame = EncodeViewFrame(vr, epoch);
    DecodeViewFrame(frame, back);
    EXPECT_EQ(back.epoch, epoch) << trial;
    ExpectSameView(back.view, vr);
    const ViewFrameHeader header = DecodeViewFrameHeader(frame);
    EXPECT_EQ(header.id, vr.id) << trial;
    EXPECT_EQ(header.epoch, epoch) << trial;
    EXPECT_EQ(header.rows, vr.rel.size()) << trial;
    std::vector<Relation> storage;
    EXPECT_EQ(EncodeRandomParts(rng, vr, epoch, storage), frame) << trial;

    int bits = 0;
    const std::vector<int> cols = ColumnsOf(vr.id, vr.order);
    for (const int c : cols) {
      Key any = 0;
      for (std::size_t r = 0; r < vr.rel.size(); ++r) any |= vr.rel.key(r, c);
      bits += std::bit_width(any);
    }
    if (bits > 64) ++wide;
  }
  EXPECT_GT(wide, 50);
}

TEST(ViewFrame, EmptyAndOneRowViews) {
  for (const int dims : {0, 1, 5, 20}) {
    std::vector<int> order(static_cast<std::size_t>(dims));
    std::iota(order.begin(), order.end(), 0);
    ViewResult vr;
    vr.id = ViewId::FromDims(order);
    vr.order = order;
    vr.rel = Relation(dims);
    ExpectSameView(DecodeViewFrame(EncodeViewFrame(vr, 0)).view, vr);
    vr.rel.Append(std::vector<Key>(static_cast<std::size_t>(dims),
                                   std::numeric_limits<Key>::max()),
                  std::numeric_limits<Measure>::min());
    ExpectSameView(DecodeViewFrame(EncodeViewFrame(vr, 0)).view, vr);
  }
}

TEST(ViewFrame, SumMinMaxCubesRoundTrip) {
  DatasetSpec spec;
  spec.rows = 3000;
  spec.cardinalities = {64, 16, 8, 3};
  spec.alphas = {1.5, 0, 1, 0};
  const Schema schema = spec.MakeSchema();
  Relation raw = GenerateDataset(spec);
  Rng rng(9);
  for (std::size_t r = 0; r < raw.size(); ++r) {
    raw.measure(r) = static_cast<Measure>(rng.Below(2000)) - 1000;
  }
  const std::vector<ViewId> partial = {ViewId::FromDims({0, 2}),
                                       ViewId::FromDims({1}),
                                       ViewId::FromDims({3})};
  for (const AggFn fn : {AggFn::kSum, AggFn::kMin, AggFn::kMax}) {
    for (const auto& selected : {AllViews(4), partial}) {
      const CubeResult cube = SequentialCube(raw, schema, selected, fn);
      for (const auto& [id, vr] : cube.views) {
        ExpectSameView(DecodeViewFrame(EncodeViewFrame(vr, 0)).view, vr);
      }
    }
  }
}

TEST(ViewFrame, WriterRequiresStrictlyIncreasingKeys) {
  ViewResult vr = MakeView(ViewId::FromDims({0, 1}), {0, 1}, 3);
  vr.rel.AppendRow(vr.rel, 2);  // a repeated key
  EXPECT_THROW(EncodeViewFrame(vr, 0), SncubeError);
  vr = MakeView(ViewId::FromDims({0, 1}), {1, 0}, 3);
  vr.rel.AppendRow(vr.rel, 0);  // a smaller key
  EXPECT_THROW(EncodeViewFrame(vr, 0), SncubeError);

  // The same on the multiword path: three full 32-bit columns.
  const Key top = std::numeric_limits<Key>::max();
  vr.id = ViewId::FromDims({0, 1, 2});
  vr.order = {0, 1, 2};
  vr.rel = Relation(3);
  vr.rel.Append(std::vector<Key>{top, 1, 0}, 1);
  vr.rel.Append(std::vector<Key>{top, 1, top}, 1);
  EXPECT_NO_THROW(EncodeViewFrame(vr, 0));
  vr.rel.Append(std::vector<Key>{top, 1, top}, 1);  // a repeated key
  EXPECT_THROW(EncodeViewFrame(vr, 0), SncubeError);
  vr.rel = Relation(3);
  vr.rel.Append(std::vector<Key>{top, 1, 0}, 1);
  vr.rel.Append(std::vector<Key>{top, 0, top}, 1);  // a smaller key
  EXPECT_THROW(EncodeViewFrame(vr, 0), SncubeError);
}

// A hand-made frame of view {0, 1} in order (0, 1) with the given column
// widths, header row count and row bytes.
ByteBuffer HandFrame(std::vector<std::uint8_t> widths, std::uint64_t rows,
                     const std::vector<std::uint8_t>& body,
                     std::vector<std::uint8_t> order = {0, 1}) {
  ByteBuffer buf;
  WirePut(buf, std::uint32_t{0x534E5646});
  WirePut(buf, std::uint32_t{1});
  WirePut(buf, std::uint32_t{3});
  WirePut(buf, std::uint8_t{1});
  WirePut(buf, std::uint64_t{0});
  WirePut(buf, static_cast<std::uint8_t>(order.size()));
  for (const auto dim : order) WirePut(buf, dim);
  for (const auto w : widths) WirePut(buf, w);
  WirePut(buf, rows);
  for (const auto b : body) buf.push_back(static_cast<std::byte>(b));
  return buf;
}

TEST(ViewFrame, ReaderRejectsEveryMalformedFrame) {
  // The reference: rows (0,1) -> 5 and (1,0) -> -1 at widths (1, 1): keys
  // 1 and 2, deltas 1 and 1, zigzag measures 10 and 1.
  const ByteBuffer good = HandFrame({1, 1}, 2, {1, 10, 1, 1});
  const ViewFrame ok = DecodeViewFrame(good);
  ASSERT_EQ(ok.view.rel.size(), 2u);
  EXPECT_EQ(ok.view.rel.key(0, 1), 1u);
  EXPECT_EQ(ok.view.rel.key(1, 0), 1u);
  EXPECT_EQ(ok.view.rel.measure(0), 5);
  EXPECT_EQ(ok.view.rel.measure(1), -1);
  EXPECT_EQ(EncodeViewFrame(ok.view, 0), good);

  const auto rejects = [](const ByteBuffer& frame, const char* what) {
    EXPECT_THROW(DecodeViewFrame(frame), SncubeCorruptionError) << what;
  };
  // Damage inside the header: the header reader refuses it as well.
  const auto rejects_header = [&](const ByteBuffer& frame, const char* what) {
    rejects(frame, what);
    EXPECT_THROW(DecodeViewFrameHeader(frame), SncubeCorruptionError) << what;
  };
  ByteBuffer bad = good;
  bad[0] ^= std::byte{1};
  rejects_header(bad, "bad magic");
  bad = good;
  bad[4] = std::byte{2};
  rejects_header(bad, "unknown version");
  bad = good;
  bad[12] = std::byte{2};
  rejects_header(bad, "selected flag");
  rejects_header(HandFrame({1, 1}, 2, {1, 10, 1, 1}, {0, 0}),
                 "repeated dimension");
  rejects_header(HandFrame({1, 1}, 2, {1, 10, 1, 1}, {0, 2}),
                 "dimension off mask");
  rejects_header(HandFrame({1}, 2, {1, 10, 1, 1}, {0}), "order too short");
  rejects_header(HandFrame({33, 1}, 2, {1, 10, 1, 1}), "width above 32");
  rejects(HandFrame({1, 1}, 2, {0x81, 0x00, 10, 1, 1}), "overlong varint");
  rejects(HandFrame({8, 8}, 2, {0x81, 0x00, 10, 1, 1}), "non-minimal varint");
  rejects(HandFrame({1, 1}, 2, {1, 10, 0, 1}), "key does not increase");
  rejects(HandFrame({1, 1}, 2, {1, 10, 3, 1}), "key beyond the widths");
  rejects(HandFrame({1, 1}, 3, {1, 10, 1, 1}), "fewer rows than recorded");
  rejects(HandFrame({1, 1}, 1, {1, 10, 1, 1}), "trailing bytes");
  rejects(HandFrame({1, 1}, 2, {1, 10, 1, 1, 0}), "one trailing byte");
  rejects_header(HandFrame({1, 1}, 1u << 20, {1, 10, 1, 1}),
                 "huge row count");
  rejects(HandFrame({1, 1}, 2,
                    {1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                     0x02, 1, 1}),
          "measure beyond 64 bits");
  rejects(HandFrame({1, 1}, 2, {1, 10, 1}), "truncated row");
  // The payload holds exactly its two smallest rows, so every cut of it
  // leaves fewer bytes than the recorded row count needs.
  for (std::size_t n = 0; n < good.size(); ++n) {
    rejects_header(
        ByteBuffer(good.begin(), good.begin() + static_cast<long>(n)),
        "truncated frame");
  }
}

TEST(ViewFrame, WideKeyReaderRejections) {
  // Three 32-bit columns: a 96-bit key in two words (64 + 32 bits).
  ViewResult vr;
  vr.id = ViewId::FromDims({0, 1, 2});
  vr.order = {2, 0, 1};
  vr.rel = Relation(3);
  const Key top = std::numeric_limits<Key>::max();
  vr.rel.Append(std::vector<Key>{top, top, 0}, 1);
  vr.rel.Append(std::vector<Key>{0, 0, top}, 2);
  vr.rel.Append(std::vector<Key>{top, top, top}, 3);
  ExpectSameView(DecodeViewFrame(EncodeViewFrame(vr, 0)).view, vr);
  // magic, version, mask, selected, epoch, order length, order, widths and
  // the row count, which ends the header.
  const std::size_t header = 4 + 4 + 4 + 1 + 8 + 1 + 3 + 3 + 8;
  // A zero key delta for the second row does not increase.
  ViewResult flat = vr;
  flat.rel = Relation(3);
  flat.rel.Append(std::vector<Key>{top, top, top}, 1);
  const ByteBuffer one = EncodeViewFrame(flat, 0);
  ByteBuffer repeated = one;
  repeated[header - 8] = std::byte{2};  // row count 2
  repeated.push_back(std::byte{0});     // delta 0
  repeated.push_back(std::byte{2});     // measure 1
  EXPECT_THROW(DecodeViewFrame(repeated), SncubeCorruptionError);
  // A delta of one more on top of the all-ones key carries out of 96 bits.
  ByteBuffer carry = one;
  carry[header - 8] = std::byte{2};
  carry.push_back(std::byte{1});
  carry.push_back(std::byte{2});
  EXPECT_THROW(DecodeViewFrame(carry), SncubeCorruptionError);
  // A first-row key of 2^95 is the top bit of the widths and decodes; one
  // of 2^96 needs a bit beyond them.
  ByteBuffer big(one.begin(), one.begin() + static_cast<long>(header));
  for (int i = 0; i < 13; ++i) big.push_back(std::byte{0x80});
  big.push_back(std::byte{0x10});  // bit 95 = 13 * 7 + 4
  big.push_back(std::byte{2});
  const ViewResult top_bit = DecodeViewFrame(big).view;
  EXPECT_EQ(top_bit.rel.key(0, 2), Key{1} << 31);  // order[0] = dim 2
  EXPECT_EQ(top_bit.rel.key(0, 0), 0u);
  big[big.size() - 2] = std::byte{0x20};  // bit 96 = 13 * 7 + 5
  EXPECT_THROW(DecodeViewFrame(big), SncubeCorruptionError);
  // Fifteen key bytes exceed ceil(96 / 7) = 14.
  ByteBuffer overlong(one.begin(), one.begin() + static_cast<long>(header));
  for (int i = 0; i < 14; ++i) overlong.push_back(std::byte{0x80});
  overlong.push_back(std::byte{0x01});
  overlong.push_back(std::byte{2});
  EXPECT_THROW(DecodeViewFrame(overlong), SncubeCorruptionError);
}

}  // namespace
}  // namespace sncube
