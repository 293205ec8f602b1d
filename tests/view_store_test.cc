#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

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

// Writes one view (and a one-entry index) through a writer; returns its
// index entry.
ViewEntry SaveView(const ViewStore& store, const ViewResult& view) {
  ViewStore::Writer writer(store, Schema({16, 8, 4}));
  writer.Write(view);
  writer.Commit();
  return store.LoadManifest().views.at(0);
}

// An index as routing sees it: (mask, rows) per entry.
std::vector<std::pair<std::uint32_t, std::uint64_t>> Routing(
    const std::vector<ViewEntry>& index) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
  for (const ViewEntry& entry : index) {
    out.emplace_back(entry.id.mask(), entry.rows);
  }
  return out;
}

TEST_F(ViewStoreTest, SaveLoadRoundTrip) {
  ViewStore store(dir_);
  const ViewResult original = MakeView(ViewId::FromDims({0, 2}), {2, 0}, 50);
  const ViewEntry entry = SaveView(store, original);
  EXPECT_EQ(entry.id, original.id);
  EXPECT_EQ(entry.rows, original.rel.size());
  EXPECT_EQ(entry.bytes,
            std::filesystem::file_size(dir_ / "v00005.e0.sncv"));
  const ViewResult back = store.Load(entry);
  EXPECT_EQ(back.id, original.id);
  EXPECT_EQ(back.order, original.order);
  EXPECT_EQ(back.rel, original.rel);
}

TEST_F(ViewStoreTest, SchemaManifestRoundTrip) {
  ViewStore store(dir_);
  const Schema schema({100, 50, 2}, {"alpha", "beta", "gamma"});
  ViewStore::Writer(store, schema).Commit();  // an empty index
  EXPECT_TRUE(store.LoadManifest().views.empty());
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
  EXPECT_EQ(Routing(store.LoadManifest().views), Routing(IndexOf(cube)));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "v00002.e0.sncv"));
  // The writer persists an auxiliary handed to it, flag and all: the
  // refresh coordinator's store holds every view the tier serves.
  ViewStore::Writer writer(store, Schema({4, 2}));
  writer.Write(cube.views.at(ViewId::FromDims({1})));
  writer.Commit();
  const CubeResult back = store.LoadCube();
  ASSERT_EQ(back.views.size(), 1u);
  EXPECT_FALSE(back.views.begin()->second.selected);
}

TEST_F(ViewStoreTest, OverwriteReplacesContent) {
  ViewStore store(dir_);
  SaveView(store, MakeView(ViewId::FromDims({0}), {0}, 10));
  const ViewEntry entry = SaveView(store, MakeView(ViewId::FromDims({0}), {0}, 3));
  EXPECT_EQ(store.Load(entry).rel.size(), 3u);
}

TEST_F(ViewStoreTest, MissingViewThrows) {
  ViewStore store(dir_);
  EXPECT_THROW(store.Load({ViewId::FromDims({0}), 0}), SncubeIoError);
  EXPECT_THROW(store.LoadManifest(), SncubeIoError);
  // A reader never creates the directory it was pointed at.
  EXPECT_FALSE(std::filesystem::exists(dir_));
}

TEST_F(ViewStoreTest, CorruptFileRejected) {
  ViewStore store(dir_);
  const ViewId id = ViewId::FromDims({0, 1});
  SaveView(store, MakeView(id, {0, 1}, 5));
  // Truncate the file.
  const auto path = dir_ / "v00003.e0.sncv";
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

// The text of every sealed line of a MANIFEST, seals stripped.
std::vector<std::string> ManifestRecords(const std::filesystem::path& dir) {
  std::vector<std::string> records;
  std::istringstream in(ReadText(dir / "MANIFEST"));
  for (std::string line; std::getline(in, line);) {
    const auto text = VerifySealedLine(line);
    EXPECT_TRUE(text.has_value()) << line;
    records.push_back(text.value_or(""));
  }
  return records;
}

// Rewrites a MANIFEST from record texts, each sealed.
void WriteManifest(const std::filesystem::path& dir,
                   const std::vector<std::string>& records) {
  std::string text;
  for (const std::string& record : records) text += SealLine(record) + '\n';
  WriteText(dir / "MANIFEST", text);
}

void ExpectSameCube(const CubeResult& got, const CubeResult& want);
void CommitEpoch(const ViewStore& store, const Schema& schema,
                 std::uint64_t epoch, const CubeResult& cube);

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
  EXPECT_EQ(manifest.epoch, 0u);
  EXPECT_EQ(Routing(manifest.views), Routing(IndexOf(cube)));
  ASSERT_EQ(manifest.schema.dims(), schema.dims());
  for (int i = 0; i < schema.dims(); ++i) {
    EXPECT_EQ(manifest.schema.name(i), schema.name(i));
    EXPECT_EQ(manifest.schema.cardinality(i), schema.cardinality(i));
  }
  // The MANIFEST is the schema record, one prepare (mask:rows:bytes per
  // view) and its commit; the directory is that and one file per indexed
  // view, of the size its entry records.
  std::string prepare = "prepare 0";
  for (const ViewEntry& entry : manifest.views) {
    char name[32];
    std::snprintf(name, sizeof(name), "v%05x.e0.sncv", entry.id.mask());
    EXPECT_EQ(entry.bytes, std::filesystem::file_size(dir_ / name));
    prepare += " " + std::to_string(entry.id.mask()) + ":" +
               std::to_string(entry.rows) + ":" + std::to_string(entry.bytes);
  }
  EXPECT_EQ(ManifestRecords(dir_),
            (std::vector<std::string>{"schema 4 3 D0 8 D1 4 D2 2", prepare,
                                      "commit 0"}));
  EXPECT_NE(prepare.find(" 0:1:"), std::string::npos);
  EXPECT_NE(prepare.find(" 7:64:"), std::string::npos);
  std::size_t files = 0;
  for (const auto& file : std::filesystem::directory_iterator(dir_)) {
    EXPECT_TRUE(file.is_regular_file()) << file.path();
    ++files;
  }
  EXPECT_EQ(files, manifest.views.size() + 1);
  // Every indexed view loads as it was built.
  for (const ViewEntry& entry : manifest.views) {
    const ViewResult loaded = store.Load(entry);
    EXPECT_EQ(loaded.id, entry.id);
    EXPECT_EQ(loaded.order, cube.views.at(entry.id).order);
    EXPECT_EQ(loaded.rel, cube.views.at(entry.id).rel);
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
  ViewStore::Writer stray(ViewStore(dir_ / "stray"), schema);
  stray.Write(MakeView(ViewId::FromDims({1}), {1}, 3));
  stray.Commit();
  std::filesystem::copy_file(dir_ / "stray" / "v00002.e0.sncv",
                             dir_ / "v00002.e0.sncv");
  const CubeResult back = store.LoadCube();
  ASSERT_EQ(back.views.size(), 1u);
  EXPECT_EQ(back.views.begin()->second.rel.size(), 4u);
}

TEST_F(ViewStoreTest, ManifestIsWrittenLast) {
  ViewStore store(dir_);
  Schema schema;
  const CubeResult cube = SaveSmallCube(store, &schema);
  ASSERT_TRUE(std::filesystem::exists(dir_ / "MANIFEST"));
  // Make the write of view {1} (mask 2) fail: a directory sits in its place.
  std::filesystem::remove(dir_ / "v00002.e0.sncv");
  std::filesystem::create_directories(dir_ / "v00002.e0.sncv" / "x");
  EXPECT_THROW(store.SaveCube(cube, schema), SncubeError);
  // The old MANIFEST went first and the new one never came: the directory
  // is refused, not read as a blend, and the failed writer removed the
  // view files it wrote.
  EXPECT_FALSE(std::filesystem::exists(dir_ / "MANIFEST"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "v00001.e0.sncv"));
  EXPECT_THROW(store.LoadCube(), SncubeIoError);
  std::filesystem::remove_all(dir_ / "v00002.e0.sncv");
  store.SaveCube(cube, schema);
  EXPECT_EQ(Routing(store.LoadManifest().views), Routing(IndexOf(cube)));
}

TEST_F(ViewStoreTest, WriterLeavesNoManifestUntilCommit) {
  ViewStore store(dir_);
  Schema schema;
  const CubeResult cube = SaveSmallCube(store, &schema);
  ASSERT_TRUE(std::filesystem::exists(dir_ / "MANIFEST"));
  {
    ViewStore::Writer writer(store, schema);
    EXPECT_FALSE(std::filesystem::exists(dir_ / "MANIFEST"));
    for (const auto& [id, vr] : cube.views) {
      writer.Write(vr);
      EXPECT_FALSE(std::filesystem::exists(dir_ / "MANIFEST"));
    }
  }  // dropped without Commit, as by a build that failed midway
  EXPECT_THROW(store.LoadManifest(), SncubeIoError);
  EXPECT_THROW(store.LoadCube(), SncubeIoError);
  EXPECT_TRUE(std::filesystem::is_empty(dir_));

  // A view written twice fails at Commit, which writes no manifest.
  ViewStore::Writer twice(store, schema);
  twice.Write(cube.views.begin()->second);
  twice.Write(cube.views.begin()->second);
  EXPECT_THROW(twice.Commit(), SncubeError);
  EXPECT_THROW(store.LoadManifest(), SncubeIoError);
}

// A MANIFEST line with a good seal is still outside input: the schema
// record's checks throw SncubeCorruptionError, and a record that does not
// parse ends the durable prefix, so the epoch it would have named is not
// committed.
TEST_F(ViewStoreTest, MalformedManifestsThrowCorruption) {
  ViewStore store(dir_);
  Schema schema;
  SaveSmallCube(store, &schema);
  const std::vector<std::string> good = ManifestRecords(dir_);
  ASSERT_EQ(good.size(), 3u);
  ASSERT_EQ(good[0], "schema 4 3 D0 8 D1 4 D2 2");

  const auto with = [&](std::size_t line, const std::string& from,
                        const std::string& to) {
    std::vector<std::string> records = good;
    const auto at = records[line].find(from);
    EXPECT_NE(at, std::string::npos) << from;
    records[line].replace(at, from.size(), to);
    WriteManifest(dir_, records);
  };
  const auto expect_corrupt = [&](const std::string& from,
                                  const std::string& to) {
    with(0, from, to);
    EXPECT_THROW(store.LoadManifest(), SncubeCorruptionError) << to;
    EXPECT_THROW(store.LoadCube(), SncubeCorruptionError) << to;
  };
  expect_corrupt("schema 4", "schema 5");
  expect_corrupt("schema 4", "schema x");
  expect_corrupt("schema", "schemas");
  expect_corrupt(" 3 D0", " 0 D0");
  expect_corrupt(" 3 D0", " 21 D0");
  expect_corrupt(" 3 D0", " 4 D0");
  expect_corrupt("D0 8", "D0 -8");
  expect_corrupt("D0 8", "D0 0");
  expect_corrupt("D0 8", "D0 1");
  expect_corrupt("D0 8", "D0  8");
  expect_corrupt("D1 4", "D0 4");
  expect_corrupt("D2 2", "D2 2 ");
  WriteManifest(dir_, {good[1], good[2]});  // no schema record first
  EXPECT_THROW(store.LoadManifest(), SncubeCorruptionError);

  const auto expect_uncommitted = [&](const std::string& from,
                                      const std::string& to) {
    with(1, from, to);
    EXPECT_THROW(store.LoadManifest(), SncubeIoError) << to;
    EXPECT_THROW(store.LoadCube(), SncubeIoError) << to;
  };
  expect_uncommitted(" 7:64:", " 8:64:");   // mask outside the schema
  expect_uncommitted(" 2:4:", " 1:4:");     // duplicate mask
  expect_uncommitted(" 1:8:", " 3:8:");     // unsorted masks
  expect_uncommitted(" 1:8:", " g:8:");     // non-hex mask
  expect_uncommitted(" 1:8:", " 1:-8:");    // negative row count
  expect_uncommitted(" 1:8:", " 1:8x:");    // row count garbage
  expect_uncommitted(" 1:8:", " 1 8:");     // no colon
  expect_uncommitted(" 1:8:", " 1:8:x");    // byte count garbage
  expect_uncommitted(" 1:8:", " 1:8");      // no byte count
  expect_uncommitted("prepare 0", "prepare -1");
  expect_uncommitted("prepare", "PREPARE");
  // The `commit` record alone ends the prefix the same way.
  std::vector<std::string> records = good;
  records[2] = "commit 0 now";
  WriteManifest(dir_, records);
  EXPECT_THROW(store.LoadManifest(), SncubeIoError);
}

// Every truncation and every flipped byte of a built MANIFEST (one epoch)
// and of a refreshed one (epoch 1 committed beside epoch 0, whose files are
// still there and then gone) leaves a reader a typed error or the cube of an
// epoch that was committed, never anything else.
TEST_F(ViewStoreTest, EveryTruncationAndFlipOfTheManifestIsTypedOrCommitted) {
  ViewStore store(dir_);
  Schema schema;
  const CubeResult built = SaveSmallCube(store, &schema);
  DatasetSpec spec;
  spec.rows = 700;
  spec.cardinalities = {8, 4, 2};
  spec.seed = 77;
  const CubeResult next =
      SequentialCube(GenerateDataset(spec), schema, AllViews(3));
  std::size_t answered = 0;
  const auto judge = [&](const std::string& bytes, const std::string& what) {
    SCOPED_TRACE(what);
    WriteText(dir_ / "MANIFEST", bytes);
    CubeResult got;
    try {
      got = store.LoadCube();
    } catch (const SncubeError&) {
      return;  // a typed error: the reader refused the directory
    }
    const CubeResult& want =
        got.views.at(ViewId(7)).rel == built.views.at(ViewId(7)).rel ? built
                                                                     : next;
    ExpectSameCube(got, want);
    ++answered;
  };
  const auto damage_every_byte = [&](const std::string& what) {
    const std::string good = ReadText(dir_ / "MANIFEST");
    for (std::size_t n = 0; n < good.size(); ++n) {
      judge(good.substr(0, n), what + " truncated to " + std::to_string(n));
    }
    for (std::size_t i = 0; i < good.size(); ++i) {
      std::string flipped = good;
      flipped[i] = static_cast<char>(good[i] ^ 0x01);
      judge(flipped, what + " bit 0 of byte " + std::to_string(i));
      flipped[i] = static_cast<char>(good[i] ^ 0xff);
      judge(flipped, what + " byte " + std::to_string(i) + " inverted");
    }
    judge(good, what + " intact");
  };
  damage_every_byte("built");
  CommitEpoch(store, schema, 1, next);
  damage_every_byte("refreshed, epoch 0 kept");
  const std::size_t with_old_files = answered;
  store.RemoveEpochsBelow(1);
  damage_every_byte("refreshed");
  // Cutting the last commit record off falls back to epoch 0 while its
  // files are there.
  EXPECT_GT(with_old_files, 3u);
  EXPECT_EQ(answered, with_old_files + 1);
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

// Directories of formats 1 to 3 hold only a text `manifest.txt` index and
// views in older layouts; a reader refuses them with a rebuild hint.
TEST_F(ViewStoreTest, FormatOneManifestSaysRebuild) {
  std::filesystem::create_directories(dir_);
  WriteText(dir_ / "manifest.txt", "sncube-manifest 1\n3\nD0 8\nD1 4\nD2 2\n");
  ExpectRebuildHint(ViewStore(dir_));
}

TEST_F(ViewStoreTest, FormatTwoManifestSaysRebuild) {
  std::filesystem::create_directories(dir_);
  for (const char* version : {"2", "3"}) {
    WriteText(dir_ / "manifest.txt",
              std::string("sncube-manifest ") + version +
                  "\n1\nD0 8\n1\nv00001 8\nend\n");
    ExpectRebuildHint(ViewStore(dir_));
  }
}

TEST_F(ViewStoreTest, ViewDisagreeingWithItsEntryThrowsCorruption) {
  ViewStore store(dir_);
  Schema schema;
  SaveSmallCube(store, &schema);
  const std::vector<std::string> good = ManifestRecords(dir_);

  // A row count that disagrees with the view file's header.
  const CubeManifest manifest = store.LoadManifest();
  ViewEntry wrong = manifest.views[1];
  wrong.rows += 1;
  EXPECT_THROW(store.Load(wrong), SncubeCorruptionError);
  std::vector<std::string> records = good;
  records[1].replace(records[1].find(" 1:8:"), 5, " 1:9:");
  WriteManifest(dir_, records);
  EXPECT_THROW(store.LoadCube(), SncubeCorruptionError);

  // A file holding another view of the same width under the entry's name.
  WriteManifest(dir_, good);
  std::filesystem::copy_file(dir_ / "v00001.e0.sncv", dir_ / "v00002.e0.sncv",
                             std::filesystem::copy_options::overwrite_existing);
  EXPECT_THROW(store.LoadCube(), SncubeCorruptionError);
  EXPECT_THROW(store.Load(store.LoadManifest().views[2]),
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
  const ViewResult back =
      store.Load(SaveView(store, MakeView(ViewId::Empty(), {}, 0)));
  EXPECT_EQ(back.rel.size(), 0u);
  EXPECT_EQ(back.rel.width(), 0);
}

// Every byte of every view file is covered by the seal: a flipped byte or a
// truncation anywhere is a typed error from Load and LoadCube, never a
// changed answer.
TEST_F(ViewStoreTest, EveryFlippedByteAndTruncationOfAViewFileThrows) {
  ViewStore store(dir_);
  Schema schema;
  SaveSmallCube(store, &schema);
  const CubeManifest manifest = store.LoadManifest();
  std::size_t cases = 0;
  for (const ViewEntry& entry : manifest.views) {
    char name[32];
    std::snprintf(name, sizeof(name), "v%05x.e0.sncv", entry.id.mask());
    const auto path = dir_ / name;
    const std::string good = ReadText(path);
    ASSERT_FALSE(good.empty()) << name;
    const auto expect_corrupt = [&](const std::string& bytes,
                                    const std::string& what) {
      WriteText(path, bytes);
      EXPECT_THROW(store.Load(entry), SncubeCorruptionError) << name << what;
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
  }
  EXPECT_GT(cases, 1000u);
}

TEST_F(ViewStoreTest, SnapshotFrameInTheCubeDirectoryIsRefused) {
  ViewStore store(dir_);
  Schema schema;
  const CubeResult cube = SaveSmallCube(store, &schema);
  const ViewEntry entry = store.LoadManifest().views[1];
  DiskModel disk;
  WriteSealedFile(dir_ / "v00001.e0.sncv",
                  EncodeViewFrame(cube.views.at(entry.id), /*epoch=*/3), disk);
  EXPECT_THROW(store.Load(entry), SncubeCorruptionError);
}

// ---------------------------------------------------------------------------
// Epochs and recovery: the refresh coordinator's use of the store.

CubeResult SmallCube(std::uint64_t seed, Schema* schema) {
  DatasetSpec spec;
  spec.rows = 300;
  spec.cardinalities = {6, 4, 3};
  spec.seed = seed;
  *schema = spec.MakeSchema();
  return SequentialCube(GenerateSlice(spec, 1, 0), *schema, AllViews(3));
}

void ExpectSameCube(const CubeResult& got, const CubeResult& want) {
  ASSERT_EQ(got.views.size(), want.views.size());
  for (const auto& [id, vr] : want.views) {
    const auto it = got.views.find(id);
    ASSERT_NE(it, got.views.end()) << id.mask();
    EXPECT_EQ(it->second.id, vr.id);
    EXPECT_EQ(it->second.order, vr.order);
    EXPECT_EQ(it->second.selected, vr.selected);
    EXPECT_EQ(it->second.rel, vr.rel);
  }
}

// Writes `cube` as epoch `epoch` of `store` and commits it.
void CommitEpoch(const ViewStore& store, const Schema& schema,
                 std::uint64_t epoch, const CubeResult& cube) {
  ViewStore::Writer writer(store, schema, epoch);
  for (const auto& [id, vr] : cube.views) writer.Write(vr);
  writer.Commit();
}

// The names of a directory's files of epoch `epoch` >= 1 (its segments),
// set-aside ones included.
std::set<std::string> EpochFiles(const std::filesystem::path& dir,
                                 std::uint64_t epoch) {
  const std::string segment = "e" + std::to_string(epoch) + ".";
  std::set<std::string> names;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    const std::string name = file.path().filename().string();
    if (name.rfind(segment, 0) == 0) names.insert(name);
  }
  return names;
}

TEST(StoreEpochs, WriteCommitLoadRoundTripsByteIdentical) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sncube_epochs_roundtrip_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  DiskModel disk;
  const ViewStore store(dir, &disk);
  Schema schema;
  const CubeResult cube = SmallCube(17, &schema);
  CommitEpoch(store, schema, 1, cube);
  EXPECT_GT(disk.blocks_written(), 0u);  // charged to the borrowed model
  ExpectSameCube(store.LoadCube(), cube);
  EXPECT_EQ(store.LoadManifest().epoch, 1u);

  const RecoveredEpoch rec = store.Recover();
  ASSERT_TRUE(rec.has_cube);
  EXPECT_EQ(rec.epoch, 1u);
  EXPECT_TRUE(rec.set_aside.empty());
  ExpectSameCube(rec.cube, cube);
  // A committed epoch is never written again.
  EXPECT_THROW(ViewStore::Writer(store, schema, 1), SncubeError);
  std::filesystem::remove_all(dir);
}

TEST(StoreEpochs, RecoverQuarantinesUncommittedEpochAndServesCommitted) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sncube_epochs_uncommitted_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const ViewStore store(dir);
  Schema schema;
  const CubeResult old_cube = SmallCube(17, &schema);
  const CubeResult new_cube = SmallCube(18, &schema);
  CommitEpoch(store, schema, 1, old_cube);
  const std::string committed_manifest = ReadText(dir / "MANIFEST");
  {
    // Dropped after its prepare: the directory is as it was.
    ViewStore::Writer dropped(store, schema, 2);
    for (const auto& [id, vr] : new_cube.views) dropped.Write(vr);
    dropped.Prepare();
  }
  EXPECT_EQ(ReadText(dir / "MANIFEST"), committed_manifest);
  EXPECT_TRUE(EpochFiles(dir, 2).empty());
  {
    // Abandoned (a crash) between "prepare" and "commit": what landed
    // stays, and readers still see epoch 1.
    ViewStore::Writer crashed(store, schema, 2);
    for (const auto& [id, vr] : new_cube.views) crashed.Write(vr);
    crashed.Prepare();
    crashed.CommitShard(0);
    crashed.Abandon();
  }
  ASSERT_EQ(EpochFiles(dir, 2).size(), 1u);  // a small epoch's one segment
  ExpectSameCube(store.LoadCube(), old_cube);

  const RecoveredEpoch rec = store.Recover();
  ASSERT_TRUE(rec.has_cube);
  EXPECT_EQ(rec.epoch, 1u);
  ExpectSameCube(rec.cube, old_cube);
  // The half-installed epoch is set aside, not deleted and not live.
  ASSERT_EQ(rec.set_aside.size(), 1u);
  EXPECT_EQ(EpochFiles(dir, 2),
            std::set<std::string>{"e2.0.sncv.quarantine"});
  std::filesystem::remove_all(dir);
}

TEST(StoreEpochs, RecoverFallsBackPastCorruptCommittedEpoch) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sncube_epochs_corrupt_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const ViewStore store(dir);
  Schema schema;
  const CubeResult old_cube = SmallCube(17, &schema);
  const CubeResult new_cube = SmallCube(18, &schema);
  CommitEpoch(store, schema, 1, old_cube);
  CommitEpoch(store, schema, 2, new_cube);

  // Silent single-byte corruption of one epoch-2 view frame after commit:
  // the CRC trailer catches it and recovery falls back to epoch 1.
  const ViewEntry one = store.LoadManifest().views.at(1);
  const auto victim = dir / "e2.0.sncv";
  std::string bytes = ReadText(victim);
  ASSERT_GT(bytes.size(), one.offset + 12);
  bytes[one.offset + 12] = static_cast<char>(bytes[one.offset + 12] ^ 0x40);
  WriteText(victim, bytes);

  const RecoveredEpoch rec = store.Recover();
  ASSERT_TRUE(rec.has_cube);
  EXPECT_EQ(rec.epoch, 1u);
  ExpectSameCube(rec.cube, old_cube);
  ASSERT_EQ(rec.set_aside.size(), 1u);
  EXPECT_TRUE(rec.set_aside[0].ends_with("e2.0.sncv.corrupt"));
  std::filesystem::remove_all(dir);
}

// A later epoch larger than one segment fills several, in mask order: each
// holds whole frames, at most 256 KiB of them unless one frame is larger,
// and every view reads back from its own range.
TEST(StoreEpochs, LargeEpochSpansSegments) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sncube_epochs_segments_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  DatasetSpec spec;
  spec.rows = 60000;
  spec.cardinalities = {200, 100, 50, 10};
  const Schema schema = spec.MakeSchema();
  const CubeResult cube =
      SequentialCube(GenerateDataset(spec), schema, AllViews(4));
  const ViewStore store(dir);
  CommitEpoch(store, schema, 1, cube);
  const CubeManifest manifest = store.LoadManifest();
  std::map<std::uint64_t, std::uint64_t> used;  // segment -> bytes
  std::map<std::uint64_t, int> frames;
  for (const ViewEntry& entry : manifest.views) {
    EXPECT_EQ(entry.offset, used[entry.segment]);
    used[entry.segment] += entry.bytes;
    ++frames[entry.segment];
  }
  ASSERT_GT(used.size(), 2u);
  EXPECT_EQ(EpochFiles(dir, 1).size(), used.size());
  for (const auto& [segment, bytes] : used) {
    const auto path = dir / ("e1." + std::to_string(segment) + ".sncv");
    EXPECT_EQ(std::filesystem::file_size(path), bytes);
    EXPECT_TRUE(bytes <= (256u << 10) || frames[segment] == 1) << segment;
  }
  ExpectSameCube(store.LoadCube(), cube);
  std::filesystem::remove_all(dir);
}

TEST(StoreEpochs, TornManifestTailEndsDurablePrefix) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sncube_epochs_torntail_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const ViewStore store(dir);
  Schema schema;
  const CubeResult cube = SmallCube(17, &schema);
  const CubeResult next = SmallCube(18, &schema);
  CommitEpoch(store, schema, 1, cube);
  // A torn append: half a record with no valid seal. Everything before it
  // stays durable; the junk is not parsed as a record.
  const std::string durable = ReadText(dir / "MANIFEST");
  WriteText(dir / "MANIFEST", durable + "commit 99");
  const RecoveredEpoch rec = store.Recover();
  ASSERT_TRUE(rec.has_cube);
  EXPECT_EQ(rec.epoch, 1u);
  // The next writer cuts the junk before it appends, or its records would
  // land after it, outside the prefix.
  CommitEpoch(store, schema, 2, next);
  EXPECT_EQ(store.LoadManifest().epoch, 2u);
  EXPECT_EQ(ReadText(dir / "MANIFEST").substr(0, durable.size()), durable);
  ExpectSameCube(store.LoadCube(), next);
  std::filesystem::remove_all(dir);
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
  for (int trial = 0; trial < 400; ++trial) {
    const int dims = trial % (ViewId::kMaxDims + 1);
    const std::size_t max_rows = trial % 7 == 0 ? 1 : 300;
    const ViewResult vr = RandomView(rng, dims, max_rows);
    const std::uint64_t epoch = rng.Next();
    const ByteBuffer frame = EncodeViewFrame(vr, epoch);
    const ViewFrame back = DecodeViewFrame(frame);
    EXPECT_EQ(back.epoch, epoch) << trial;
    ExpectSameView(back.view, vr);
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
  ByteBuffer bad = good;
  bad[0] ^= std::byte{1};
  rejects(bad, "bad magic");
  bad = good;
  bad[4] = std::byte{2};
  rejects(bad, "unknown version");
  bad = good;
  bad[12] = std::byte{2};
  rejects(bad, "selected flag");
  rejects(HandFrame({1, 1}, 2, {1, 10, 1, 1}, {0, 0}),
                 "repeated dimension");
  rejects(HandFrame({1, 1}, 2, {1, 10, 1, 1}, {0, 2}),
                 "dimension off mask");
  rejects(HandFrame({1}, 2, {1, 10, 1, 1}, {0}), "order too short");
  rejects(HandFrame({33, 1}, 2, {1, 10, 1, 1}), "width above 32");
  rejects(HandFrame({1, 1}, 2, {0x81, 0x00, 10, 1, 1}), "overlong varint");
  rejects(HandFrame({8, 8}, 2, {0x81, 0x00, 10, 1, 1}), "non-minimal varint");
  rejects(HandFrame({1, 1}, 2, {1, 10, 0, 1}), "key does not increase");
  rejects(HandFrame({1, 1}, 2, {1, 10, 3, 1}), "key beyond the widths");
  rejects(HandFrame({1, 1}, 3, {1, 10, 1, 1}), "fewer rows than recorded");
  rejects(HandFrame({1, 1}, 1, {1, 10, 1, 1}), "trailing bytes");
  rejects(HandFrame({1, 1}, 2, {1, 10, 1, 1, 0}), "one trailing byte");
  rejects(HandFrame({1, 1}, 1u << 20, {1, 10, 1, 1}),
                 "huge row count");
  rejects(HandFrame({1, 1}, 2,
                    {1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                     0x02, 1, 1}),
          "measure beyond 64 bits");
  rejects(HandFrame({1, 1}, 2, {1, 10, 1}), "truncated row");
  // The payload holds exactly its two smallest rows, so every cut of it
  // leaves fewer bytes than the recorded row count needs.
  for (std::size_t n = 0; n < good.size(); ++n) {
    rejects(
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
