#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "data/generator.h"
#include "lattice/lattice.h"
#include "seqcube/seq_cube.h"
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

TEST_F(ViewStoreTest, SaveLoadRoundTrip) {
  ViewStore store(dir_);
  const ViewResult original = MakeView(ViewId::FromDims({0, 2}), {2, 0}, 50);
  store.Save(original);
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
}

TEST_F(ViewStoreTest, OverwriteReplacesContent) {
  ViewStore store(dir_);
  store.Save(MakeView(ViewId::FromDims({0}), {0}, 10));
  store.Save(MakeView(ViewId::FromDims({0}), {0}, 3));
  EXPECT_EQ(store.Load({ViewId::FromDims({0}), 3}).rel.size(), 3u);
}

TEST_F(ViewStoreTest, MissingViewThrows) {
  ViewStore store(dir_);
  EXPECT_THROW(store.Load({ViewId::FromDims({0}), 0}), SncubeError);
  EXPECT_THROW(store.LoadManifest(), SncubeIoError);
}

TEST_F(ViewStoreTest, CorruptFileRejected) {
  ViewStore store(dir_);
  const ViewId id = ViewId::FromDims({0, 1});
  store.Save(MakeView(id, {0, 1}, 5));
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
  for (const ViewEntry& entry : manifest.views) {
    EXPECT_EQ(store.Load(entry).rel, cube.views.at(entry.id).rel);
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

TEST_F(ViewStoreTest, MalformedManifestsThrowCorruption) {
  ViewStore store(dir_);
  Schema schema;
  SaveSmallCube(store, &schema);
  const std::string good = ReadText(dir_ / "manifest.txt");
  ASSERT_EQ(good.substr(0, 24), "sncube-manifest 2\n3\nD0 8");

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
  expect_corrupt(replace("sncube-manifest 2", "sncube-manifest 3"),
                 "unknown version");
  expect_corrupt(replace("sncube-manifest 2", "sncube-manifest x"),
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

TEST_F(ViewStoreTest, FormatOneManifestSaysRebuild) {
  ViewStore store(dir_);
  Schema schema;
  SaveSmallCube(store, &schema);
  WriteText(dir_ / "manifest.txt", "sncube-manifest 1\n3\nD0 8\nD1 4\nD2 2\n");
  try {
    store.LoadManifest();
    FAIL() << "format-1 manifest accepted";
  } catch (const SncubeCorruptionError& e) {
    EXPECT_NE(std::string(e.what()).find("rebuild"), std::string::npos)
        << e.what();
  }
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
  EXPECT_THROW(store.LoadCube(), SncubeCorruptionError);

  // A file holding another view of the same width under the entry's name.
  WriteText(dir_ / "manifest.txt", good);
  std::filesystem::copy_file(dir_ / "v00001.sncv", dir_ / "v00002.sncv",
                             std::filesystem::copy_options::overwrite_existing);
  EXPECT_THROW(store.LoadCube(), SncubeCorruptionError);
}

TEST_F(ViewStoreTest, RankPartsWriteTheConcatenatedView) {
  // Two "ranks" each holding part of every view: the parts writer must
  // produce the bytes SaveCube writes for the concatenated cube.
  ViewStore whole(dir_ / "whole");
  Schema schema;
  const CubeResult cube = SaveSmallCube(whole, &schema);
  std::vector<CubeResult> parts(2);
  for (const auto& [id, vr] : cube.views) {
    if (!vr.selected) continue;
    const std::size_t half = vr.rel.size() / 2;
    for (int r = 0; r < 2; ++r) {
      ViewResult part;
      part.id = id;
      part.order = vr.order;
      part.rel = Relation(vr.rel.width());
      for (std::size_t i = r == 0 ? 0 : half;
           i < (r == 0 ? half : vr.rel.size()); ++i) {
        part.rel.AppendRow(vr.rel, i);
      }
      parts[static_cast<std::size_t>(r)].views[id] = std::move(part);
    }
  }
  ViewStore split(dir_ / "split");
  split.SaveCubeParts(parts, schema);
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_ / "whole")) {
    const auto name = entry.path().filename();
    EXPECT_EQ(ReadText(entry.path()), ReadText(dir_ / "split" / name)) << name;
    ++files;
  }
  EXPECT_EQ(files, IndexOf(cube).size() + 1);

  // Parts that disagree on a view's sort order are refused.
  parts[1].views.begin()->second.order = {9};
  EXPECT_THROW(split.SaveCubeParts(parts, schema), SncubeError);
}

TEST_F(ViewStoreTest, EmptyViewPersists) {
  ViewStore store(dir_);
  store.Save(MakeView(ViewId::Empty(), {}, 0));
  const ViewResult back = store.Load({ViewId::Empty(), 0});
  EXPECT_EQ(back.rel.size(), 0u);
  EXPECT_EQ(back.rel.width(), 0);
}

}  // namespace
}  // namespace sncube
