// Refresh tests (DESIGN.md §14): delta merge correctness, the offline
// refresh of a cube directory and its crash matrix, the ShardSet epoch
// surface, and THE crash-safety acceptance matrix — the refresh coordinator
// killed at every phase of the two-phase swap, for p ∈ {2, 4}, must leave a
// restarted server serving a cube byte-identical to either the pre-refresh
// or the post-refresh golden cube. Never a blend, never a half-installed
// epoch.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/generator.h"
#include "io/disk.h"
#include "lattice/lattice.h"
#include "net/fault.h"
#include "query/engine.h"
#include "query/greedy_select.h"
#include "refresh/delta.h"
#include "refresh/refresh.h"
#include "relation/aggregate.h"
#include "relation/sort.h"
#include "seqcube/seq_cube.h"
#include "seqcube/view_frame.h"
#include "seqcube/view_store.h"
#include "serve/shard_set.h"

namespace sncube {
namespace {

std::filesystem::path FreshDir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sncube_refresh_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

DatasetSpec BaseSpec() {
  DatasetSpec spec;
  spec.rows = 300;
  spec.cardinalities = {6, 4, 3};
  spec.seed = 17;
  return spec;
}

DatasetSpec DeltaSpec() {
  DatasetSpec spec = BaseSpec();
  spec.rows = 90;
  spec.seed = 91;  // disjoint stream: genuinely new facts
  return spec;
}

// Byte-identity over cubes: same view set, orders, flags, rows.
void ExpectCubesIdentical(const CubeResult& got, const CubeResult& want,
                          const std::string& what) {
  ASSERT_EQ(got.views.size(), want.views.size()) << what;
  auto ig = got.views.begin();
  for (const auto& [id, vw] : want.views) {
    const auto& [idg, vg] = *ig++;
    ASSERT_EQ(idg, id) << what;
    EXPECT_EQ(vg.order, vw.order) << what << " view " << id.mask();
    EXPECT_EQ(vg.selected, vw.selected) << what << " view " << id.mask();
    EXPECT_TRUE(vg.rel == vw.rel)
        << what << " view " << id.mask() << ": " << vg.rel.size() << " vs "
        << vw.rel.size() << " rows";
  }
}

bool CubesIdentical(const CubeResult& a, const CubeResult& b) {
  if (a.views.size() != b.views.size()) return false;
  auto ia = a.views.begin();
  for (const auto& [id, vb] : b.views) {
    const auto& [ida, va] = *ia++;
    if (ida != id || va.order != vb.order || va.selected != vb.selected ||
        !(va.rel == vb.rel)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Delta merge
// ---------------------------------------------------------------------------

TEST(DeltaMerge, MergeAggregateByOrderMergesAndCombines) {
  // Rows sorted by column order {1, 0}, a view's own order: the merge
  // compares in the order it is given, not the canonical one.
  Relation a(2), b(2);
  const std::vector<int> cols = {1, 0};
  // a sorted by (col1, col0): (…,0), (…,1), (…,2)
  {
    const Key r0[] = {5, 0};
    const Key r1[] = {1, 1};
    const Key r2[] = {2, 1};
    a.Append(r0, 10);
    a.Append(r1, 20);
    a.Append(r2, 30);
  }
  {
    const Key r0[] = {2, 1};  // equal key with a's r2 → combines
    const Key r1[] = {0, 7};  // new key, sorts last
    b.Append(r0, 5);
    b.Append(r1, 1);
  }
  // One output serves every merge; it starts at another width with a stale
  // row, which the merge replaces.
  Relation out(3);
  out.Append(std::vector<Key>{9, 9, 9}, 99);
  MergeSortedAggregate(a, b, cols, AggFn::kSum, out);
  ASSERT_EQ(out.width(), 2);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.RowKeys(0)[0], 5u);
  EXPECT_EQ(out.measure(0), 10);
  EXPECT_EQ(out.RowKeys(2)[0], 2u);
  EXPECT_EQ(out.measure(2), 35);  // 30 + 5 combined
  EXPECT_EQ(out.RowKeys(3)[1], 7u);
  EXPECT_EQ(out.measure(3), 1);

  MergeSortedAggregate(a, b, cols, AggFn::kMin, out);
  EXPECT_EQ(out.measure(2), 5);
  MergeSortedAggregate(a, b, cols, AggFn::kMax, out);
  EXPECT_EQ(out.measure(2), 30);
}

TEST(DeltaMerge, RefreshedCubeEqualsFullRebuildOnEveryView) {
  // The distributivity contract end to end: cube(base) merged with
  // cube(delta) must hold exactly the same aggregates as cube(base ∪ delta),
  // view by view (row ORDER may differ — the full rebuild picks its own
  // pipeline orders — so compare in canonical sort).
  const DatasetSpec spec = BaseSpec();
  const Schema schema = spec.MakeSchema();
  const Relation base_rel = GenerateSlice(spec, 1, 0);
  const Relation delta_rel = GenerateSlice(DeltaSpec(), 1, 0);
  const CubeResult base = SequentialCube(base_rel, schema, AllViews(schema.dims()));

  const CubeResult merged = MergeDeltaCube(
      base, ComputeDeltaCube(delta_rel, schema,
                             AffectedViews(base, delta_rel)));

  Relation both = base_rel;
  both.Concat(Relation(delta_rel));
  const CubeResult full = SequentialCube(both, schema, AllViews(schema.dims()));

  ASSERT_EQ(merged.views.size(), full.views.size());
  for (const auto& [id, vm] : merged.views) {
    const auto it = full.views.find(id);
    ASSERT_NE(it, full.views.end());
    const auto canon = IdentityOrder(vm.rel.width());
    EXPECT_TRUE(SortRelation(vm.rel, canon) ==
                SortRelation(it->second.rel, canon))
        << "view " << id.mask();
    // Merged views keep the BASE view's sort order: drop-in for consumers.
    EXPECT_EQ(vm.order, base.views.at(id).order);
  }
}

TEST(DeltaMerge, EmptyDeltaIsByteIdenticalPassThrough) {
  const DatasetSpec spec = BaseSpec();
  const Schema schema = spec.MakeSchema();
  const CubeResult base =
      SequentialCube(GenerateSlice(spec, 1, 0), schema, AllViews(schema.dims()));
  const Relation empty_delta(schema.dims());
  EXPECT_TRUE(AffectedViews(base, empty_delta).empty());
  const CubeResult merged = MergeDeltaCube(
      base, ComputeDeltaCube(empty_delta, schema, {}));
  ExpectCubesIdentical(merged, base, "empty-delta merge");
}

std::string FileBytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Every regular file of a directory, by name.
std::map<std::string, std::string> DirBytes(const std::filesystem::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_TRUE(e.is_regular_file()) << e.path();  // the layout is flat
    out[e.path().filename().string()] = FileBytes(e.path());
  }
  return out;
}

// The live files of epoch `epoch` >= 1 (its segments, not set aside), by
// name.
std::map<std::string, std::string> EpochFiles(const std::filesystem::path& dir,
                                              std::uint64_t epoch) {
  const std::string segment = "e" + std::to_string(epoch) + ".";
  std::map<std::string, std::string> out;
  for (auto& [name, bytes] : DirBytes(dir)) {
    if (name.rfind(segment, 0) == 0 && name.ends_with(".sncv")) {
      out[name] = std::move(bytes);
    }
  }
  return out;
}

// Writes `cube` (every view, auxiliaries included) as epoch `epoch` of the
// store at `dir` and commits it.
void CommitEpoch(const std::filesystem::path& dir, const Schema& schema,
                 std::uint64_t epoch, const CubeResult& cube) {
  ViewStore::Writer writer(ViewStore(dir), schema, epoch);
  for (const auto& [id, vr] : cube.views) writer.Write(vr);
  writer.Commit();
}

// `n` facts of three columns whose codes are below 2^bits.
Relation CodeFacts(Rng& rng, std::size_t n, int bits) {
  Relation rel(3);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Key> row(3);
    for (Key& k : row) {
      k = static_cast<Key>(rng.Below(std::uint64_t{1} << bits));
    }
    rel.Append(row, static_cast<Measure>(rng.Below(1000)));
  }
  return rel;
}

// The first `n` rows of `rel` (their groups meet the base's), then the
// first `wide` of them again with column `col` set to `code`.
Relation WithCode(const Relation& rel, std::size_t n, std::size_t wide,
                  int col, Key code) {
  Relation out(rel.width());
  for (std::size_t r = 0; r < n; ++r) out.AppendRow(rel, r);
  for (std::size_t r = 0; r < wide; ++r) {
    std::vector<Key> row(rel.RowKeys(r).begin(), rel.RowKeys(r).end());
    row[static_cast<std::size_t>(col)] = code;
    out.Append(row, rel.measure(r) + 1);
  }
  return out;
}

// The streamed refresh of a cube directory (what `sncube refresh` runs)
// commits the next epoch with exactly the bytes of the whole-cube path, on
// a full cube and on greedy partial cubes, and leaves the MANIFEST and that
// epoch's files only. Besides the generated facts, the inputs cover every
// way the packed merge meets a key layout: a delta whose codes widen a
// narrow key (at most 64 bits) and stay narrow, widen it past 64 bits, or
// widen a multiword key; a multiword key the delta does not widen; and an
// empty base, whose views the delta's fill.
TEST(DeltaMerge, StreamedStoreRefreshMatchesWholeCubePath) {
  const DatasetSpec spec = BaseSpec();
  const Schema schema = spec.MakeSchema();
  const Relation base_rel = GenerateSlice(spec, 1, 0);
  const Relation delta_rel = GenerateSlice(DeltaSpec(), 1, 0);
  const AnalyticEstimator est(schema, static_cast<double>(base_rel.size()));
  Rng rng(23);
  const Relation base20 = CodeFacts(rng, 300, 20);  // the top view: 60 bits
  const Relation base22 = CodeFacts(rng, 300, 22);  // the top view: 66 bits
  struct Case {
    std::string what;
    Relation base;
    Relation delta;
    bool narrow_before, narrow_after;  // the top view's key
  };
  const std::vector<Case> cases = {
      {"generated", base_rel, delta_rel, true, true},
      {"narrow widens", base_rel, WithCode(delta_rel, 90, 20, 1, 1000), true,
       true},
      {"narrow to multiword", base20,
       WithCode(base20, 40, 20, 1, Key{1} << 31), true, false},
      {"multiword widens", base22, WithCode(base22, 40, 20, 2, Key{1} << 30),
       false, false},
      {"multiword", base22, WithCode(base22, 40, 20, 0, 5), false, false},
      {"empty base", Relation(3), delta_rel, true, true},
  };
  const ViewId top = ViewId::FromDims({0, 1, 2});
  const auto top_narrow = [&](const ViewStore& store) {
    for (const ViewEntry& entry : store.LoadManifest().views) {
      if (entry.id == top) {
        return FrameCursor(store.ReadFrame(entry)).layout().narrow();
      }
    }
    ADD_FAILURE() << "no top view";
    return false;
  };
  const auto dir = FreshDir("streamed");
  for (const Case& c : cases) {
    for (const int count : {8, 1, 3, 5}) {
      const std::vector<ViewId> selected =
          count == 8 ? AllViews(3) : GreedySelectViews(3, count, est);
      const CubeResult cube = SequentialCube(c.base, schema, selected);
      const Relation& delta = c.delta;
      const std::string what = c.what + ", " + std::to_string(count) + " views";
      std::filesystem::remove_all(dir);
      const ViewStore streamed(dir / "streamed");
      const ViewStore whole(dir / "whole");
      streamed.SaveCube(cube, schema);
      whole.SaveCube(cube, schema);

      const bool full = count == 8;
      if (full) {
        EXPECT_EQ(top_narrow(streamed), c.narrow_before) << what;
      }
      const StoreRefreshResult result =
          RefreshViewStore(streamed, streamed.LoadManifest(), delta);
      if (full) {
        EXPECT_EQ(top_narrow(streamed), c.narrow_after) << what;
      }

      const CubeResult base = whole.LoadCube();
      const CubeResult merged = MergeDeltaCube(
          base, ComputeDeltaCube(delta, schema, AffectedViews(base, delta)));
      CommitEpoch(whole.dir(), schema, 1, merged);
      whole.RemoveEpochsBelow(1);

      EXPECT_EQ(DirBytes(dir / "streamed"), DirBytes(dir / "whole")) << what;
      // The MANIFEST and epoch 1's one segment (a small cube).
      EXPECT_EQ(DirBytes(dir / "streamed").size(), 2u) << what;
      EXPECT_EQ(streamed.LoadManifest().views, whole.LoadManifest().views)
          << what;
      EXPECT_EQ(result.epoch, 1u) << what;
      EXPECT_EQ(result.views_refreshed, IndexOf(merged).size()) << what;
      EXPECT_EQ(result.merged_rows, merged.TotalRows()) << what;
    }
  }
  std::filesystem::remove_all(dir);
}

// A frame whose recorded widths exceed its columns' decodes, but no writer
// makes one, and the packed merge, which keeps the base's widths, could not
// write the bytes of the decoded path: it refuses the frame.
TEST(DeltaMerge, MergeDeltaFrameRefusesWidthsNoWriterRecords) {
  const DatasetSpec spec = BaseSpec();
  const Schema schema = spec.MakeSchema();
  const CubeResult base =
      SequentialCube(GenerateSlice(spec, 1, 0), schema, AllViews(3));
  const CubeResult delta = ComputeDeltaCube(GenerateSlice(DeltaSpec(), 1, 0),
                                            schema, AllViews(3));
  const ViewResult& top = base.views.at(ViewId::FromDims({0, 1, 2}));
  ByteBuffer frame = EncodeViewFrame(top, 0);
  ViewResult want;
  MergeDeltaView(top, delta, AggFn::kSum, want);
  EXPECT_EQ(MergeDeltaFrame(frame, delta, 1), EncodeViewFrame(want, 1));
  // One more bit for the most significant column (the header's widths
  // start at byte 25 for three dimensions): every key keeps its value.
  frame[25] = static_cast<std::byte>(std::to_integer<int>(frame[25]) + 1);
  EXPECT_TRUE(DecodeViewFrame(frame).view.rel == top.rel);
  EXPECT_THROW(MergeDeltaFrame(frame, delta, 1), SncubeCorruptionError);
}

// An empty delta commits nothing: on a full cube and on greedy partial
// cubes, at the build's epoch 0 and at a refreshed epoch 1, every byte of
// the directory stays, and the result names the committed epoch and its
// row total.
TEST(DeltaMerge, EmptyDeltaStoreRefreshCommitsNothing) {
  const DatasetSpec spec = BaseSpec();
  const Schema schema = spec.MakeSchema();
  const Relation base_rel = GenerateSlice(spec, 1, 0);
  const Relation delta = GenerateSlice(DeltaSpec(), 1, 0);
  const AnalyticEstimator est(schema, static_cast<double>(base_rel.size()));
  const auto dir = FreshDir("empty_delta");
  for (const int count : {8, 1, 3, 5}) {
    const std::vector<ViewId> selected =
        count == 8 ? AllViews(3) : GreedySelectViews(3, count, est);
    std::filesystem::remove_all(dir);
    const ViewStore store(dir);
    store.SaveCube(SequentialCube(base_rel, schema, selected), schema);
    for (const std::uint64_t epoch : {0, 1}) {
      if (epoch == 1) RefreshViewStore(store, store.LoadManifest(), delta);
      const std::string what = std::to_string(count) + " views, epoch " +
                               std::to_string(epoch);
      const auto before = DirBytes(dir);
      const StoreRefreshResult result =
          RefreshViewStore(store, store.LoadManifest(), Relation(3));
      EXPECT_EQ(DirBytes(dir), before) << what;
      EXPECT_EQ(result.epoch, epoch) << what;
      EXPECT_EQ(result.views_refreshed, 0u) << what;
      EXPECT_EQ(result.merged_rows, store.LoadCube().TotalRows()) << what;
    }
  }
  std::filesystem::remove_all(dir);
}

// Each group-by of a cube directory as `sncube query` answers it: route on
// the newest committed index, load the routed view, execute. A typed error
// fails the test.
std::vector<Relation> AnswerEveryGroupBy(const std::filesystem::path& dir) {
  const ViewStore store(dir);
  const CubeManifest manifest = store.LoadManifest();
  std::vector<Relation> answers;
  for (const ViewId v : AllViews(manifest.schema.dims())) {
    Query q;
    q.group_by = v;
    const ViewEntry& routed = RouteQuery(q, manifest.views);
    q.from_view = routed.id;
    CubeResult one;
    one.views.emplace(routed.id, store.Load(routed));
    answers.push_back(CubeQueryEngine(one).Execute(q).rel);
  }
  return answers;
}

// Thrown by CrashAtWrite in place of the write it stops.
struct Crash {};

// Copies the store's directory and then throws at the store's k-th write (a
// view file or a MANIFEST append): the copy is the directory a crash at
// that write leaves, whatever the writer's cleanup does afterwards.
class CrashAtWrite : public DiskFaultHook {
 public:
  CrashAtWrite(std::filesystem::path dir, std::filesystem::path copy, int k)
      : dir_(std::move(dir)), copy_(std::move(copy)), k_(k) {}
  bool NextOpFails(bool is_write) override {
    if (!is_write || ++writes_ != k_) return false;
    std::filesystem::copy(dir_, copy_);
    throw Crash{};
  }
  int writes() const { return writes_; }

 private:
  std::filesystem::path dir_;
  std::filesystem::path copy_;
  int k_;
  int writes_ = 0;
};

// The offline refresh is old-or-new at every write: a crash before the
// commit record lands leaves a directory every fresh reader answers exactly
// as before the refresh, and once it lands (whole, with the old epoch's
// files still there) exactly as after. Never a typed error, never a blend;
// and a refresh that throws leaves every byte of the directory as it was.
TEST(DeltaMerge, StoreRefreshCrashAtEveryWriteAnswersOldOrNew) {
  const DatasetSpec spec = BaseSpec();
  const Schema schema = spec.MakeSchema();
  const Relation delta = GenerateSlice(DeltaSpec(), 1, 0);
  const auto root = FreshDir("store_crash");
  const auto cube_dir = root / "cube";
  ViewStore(cube_dir).SaveCube(
      SequentialCube(GenerateSlice(spec, 1, 0), schema, AllViews(3)), schema);
  const auto base_bytes = DirBytes(cube_dir);
  const std::vector<Relation> before = AnswerEveryGroupBy(cube_dir);

  // The fault-free refresh, for the after answers and the write count.
  const auto done_dir = root / "done";
  std::filesystem::copy(cube_dir, done_dir);
  CrashAtWrite never(done_dir, root / "unused", 0);
  DiskModel counting;
  counting.set_fault_hook(&never);
  const ViewStore done(done_dir, &counting);
  RefreshViewStore(done, done.LoadManifest(), delta);
  const std::vector<Relation> after = AnswerEveryGroupBy(done_dir);
  ASSERT_NE(before, after);
  const int writes = never.writes();
  ASSERT_EQ(writes, 8 + 2);  // 8 view files, then prepare and commit

  std::filesystem::path before_commit;
  for (int k = 1; k <= writes; ++k) {
    SCOPED_TRACE("crash at write " + std::to_string(k));
    const auto copy = root / ("crash" + std::to_string(k));
    CrashAtWrite hook(cube_dir, copy, k);
    DiskModel disk;
    disk.set_fault_hook(&hook);
    const ViewStore store(cube_dir, &disk);
    EXPECT_THROW(RefreshViewStore(store, store.LoadManifest(), delta), Crash);
    EXPECT_EQ(DirBytes(cube_dir), base_bytes);
    EXPECT_EQ(AnswerEveryGroupBy(copy), before);
    before_commit = copy;
  }

  // Every cut of the commit record over the state it was appended to.
  std::string manifest = FileBytes(before_commit / "MANIFEST");
  const std::string full = FileBytes(done_dir / "MANIFEST");
  ASSERT_EQ(full.substr(0, manifest.size()), manifest);
  const std::string commit = full.substr(manifest.size());
  ASSERT_EQ(commit.rfind("commit 1 ", 0), 0u) << commit;
  for (std::size_t n = 0; n <= commit.size(); ++n) {
    SCOPED_TRACE("commit record cut to " + std::to_string(n) + " bytes");
    std::ofstream(before_commit / "MANIFEST", std::ios::binary | std::ios::trunc)
        << manifest + commit.substr(0, n);
    EXPECT_EQ(AnswerEveryGroupBy(before_commit),
              n == commit.size() ? after : before);
  }
  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// ShardSet epoch surface
// ---------------------------------------------------------------------------

CubeResult SmallCube(std::uint64_t seed) {
  DatasetSpec spec = BaseSpec();
  spec.seed = seed;
  const Schema schema = spec.MakeSchema();
  return SequentialCube(GenerateSlice(spec, 1, 0), schema,
                        AllViews(schema.dims()));
}

TEST(ShardSetEpochs, TwoPhaseSwapServesPinnedEpochThenRetires) {
  const CubeResult old_cube = SmallCube(17);
  const CubeResult new_cube = SmallCube(18);
  const CubeResult third = SmallCube(19);

  ManualServeClock clock;
  ShardSetOptions opts;
  opts.shards = 2;
  opts.clock = &clock;
  opts.server.workers = 1;
  opts.server.deadline = std::chrono::microseconds(0);
  ShardSet set(old_cube, opts);
  EXPECT_EQ(set.serving_epoch(), 0u);

  Query q;
  q.group_by = ViewId(0);  // the "all" row: lives on slice 0 of every epoch
  q.from_view = ViewId(0);

  set.PrepareEpoch(1, PartitionCubeForServing(new_cube, 2));
  EXPECT_EQ(set.serving_epoch(), 0u);  // prepared ≠ serving
  EXPECT_EQ(set.HostedEpochs(), (std::vector<std::uint64_t>{0, 1}));
  set.CommitShard(1, 0);
  set.CommitShard(1, 1);
  EXPECT_EQ(set.serving_epoch(), 0u);  // committed ≠ serving either

  // A request pinned to epoch 0 answers from the OLD cube mid-swap.
  const TryResult r0 = set.ExecuteOnShard(0, 0, q, 0, 0);
  ASSERT_EQ(r0.outcome, TryOutcome::kOk);
  EXPECT_TRUE(r0.answer->rel ==
              old_cube.views.at(ViewId(0)).rel);

  set.FinalizeEpoch(1);
  EXPECT_EQ(set.serving_epoch(), 1u);
  // Epoch 0 is retained for in-flight drains until the NEXT finalize.
  EXPECT_EQ(set.HostedEpochs(), (std::vector<std::uint64_t>{0, 1}));
  const TryResult r1 = set.ExecuteOnShard(0, 0, q, 1, 1);
  ASSERT_EQ(r1.outcome, TryOutcome::kOk);
  EXPECT_TRUE(r1.answer->rel == new_cube.views.at(ViewId(0)).rel);

  set.PrepareEpoch(2, PartitionCubeForServing(third, 2));
  set.CommitShard(2, 0);
  set.CommitShard(2, 1);
  set.FinalizeEpoch(2);
  EXPECT_EQ(set.HostedEpochs(), (std::vector<std::uint64_t>{1, 2}));
  // Epoch 0 has retired: a long-stalled request fails TYPED, it is never
  // answered from a different snapshot.
  const TryResult gone = set.ExecuteOnShard(0, 0, q, 2, 0);
  EXPECT_EQ(gone.outcome, TryOutcome::kEpochGone);
  EXPECT_EQ(gone.answer, nullptr);
  set.Shutdown();
}

TEST(ShardSetEpochs, AbandonEpochDropsPreparedState) {
  const CubeResult old_cube = SmallCube(17);
  const CubeResult new_cube = SmallCube(18);
  ManualServeClock clock;
  ShardSetOptions opts;
  opts.shards = 2;
  opts.clock = &clock;
  opts.server.workers = 1;
  opts.server.deadline = std::chrono::microseconds(0);
  ShardSet set(old_cube, opts);
  set.PrepareEpoch(1, PartitionCubeForServing(new_cube, 2));
  EXPECT_EQ(set.HostedEpochs(), (std::vector<std::uint64_t>{0, 1}));
  set.AbandonEpoch(1);
  set.AbandonEpoch(1);  // idempotent
  EXPECT_EQ(set.HostedEpochs(), (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(set.serving_epoch(), 0u);
  set.Shutdown();
}

// ---------------------------------------------------------------------------
// Slice-only epochs: the coordinator merges slice by slice
// ---------------------------------------------------------------------------

// Facts whose every key hashes to the slice of key 0, so each view's delta
// lands on that one slice (the 0-dim view's row stays on slice 0).
Relation OneSliceDelta(const Schema& schema, int shards) {
  const int target = SliceOfLeadingKey(0, shards);
  std::vector<std::vector<Key>> values(static_cast<std::size_t>(schema.dims()));
  for (int d = 0; d < schema.dims(); ++d) {
    for (Key v = 0; v < schema.cardinality(d); ++v) {
      if (SliceOfLeadingKey(v, shards) == target) {
        values[static_cast<std::size_t>(d)].push_back(v);
      }
    }
  }
  Relation delta(schema.dims());
  std::vector<Key> row(values.size());
  for (std::size_t r = 0; r < 40; ++r) {
    for (std::size_t d = 0; d < values.size(); ++d) {
      row[d] = values[d][(r * (d + 1)) % values[d].size()];
    }
    delta.Append(row, static_cast<Measure>(r % 7) + 1);
  }
  return delta;
}

// After every Refresh the hosted slices are exactly the partition of the
// whole-cube merge, and the epoch's view files are exactly what the store's
// writer writes for that merged cube: shards 1-4, full and partial
// cubes (auxiliary views included), sum/min/max, and three stacked
// refreshes per set — a random delta, an empty one, and one whose rows all
// hash to a single slice.
TEST(RefreshSlices, HostedSlicesAndSnapshotsMatchTheWholeCubeMerge) {
  const DatasetSpec spec = BaseSpec();
  const Schema schema = spec.MakeSchema();
  const Relation base_rel = GenerateSlice(spec, 1, 0);
  const AnalyticEstimator est(schema, static_cast<double>(base_rel.size()));
  const std::vector<std::vector<ViewId>> selections = {
      AllViews(3),
      GreedySelectViews(3, 3, est),
      {ViewId::FromDims({0, 1}), ViewId::FromDims({0, 2})}};  // + 1 aux
  std::size_t aux_views = 0;
  for (const AggFn fn : {AggFn::kSum, AggFn::kMin, AggFn::kMax}) {
    for (const auto& selected : selections) {
      const CubeResult cube = SequentialCube(base_rel, schema, selected, fn);
      aux_views += cube.views.size() - IndexOf(cube).size();
      for (int shards = 1; shards <= 4; ++shards) {
        const std::string what = "fn " + std::to_string(static_cast<int>(fn)) +
                                 ", " + std::to_string(selected.size()) +
                                 " views, " + std::to_string(shards) +
                                 " shards";
        const auto dir = FreshDir("slices");
        ManualServeClock clock;
        ShardSetOptions sopts;
        sopts.shards = shards;
        sopts.clock = &clock;
        sopts.server.workers = 1;
        sopts.server.deadline = std::chrono::microseconds(0);
        ShardSet set(cube, sopts);
        RefreshOptions ropts;
        ropts.dir = (dir / "live").string();
        ropts.fn = fn;
        RefreshCoordinator coordinator(
            set, std::make_shared<const CubeResult>(cube), schema, ropts);

        const Relation one_slice = OneSliceDelta(schema, shards);
        {
          // The one-slice delta really touches one slice (plus slice 0,
          // which holds the 0-dim view).
          const auto parts = PartitionCubeForServing(
              ComputeDeltaCube(one_slice, schema, selected, fn), shards);
          const auto target =
              static_cast<std::size_t>(SliceOfLeadingKey(0, shards));
          for (std::size_t s = 0; s < parts.size(); ++s) {
            for (const auto& [id, vr] : parts[s].views) {
              if (s != target && !id.empty()) {
                EXPECT_TRUE(vr.rel.empty()) << what;
              }
            }
          }
        }
        CubeResult want = cube;
        for (const Relation& delta :
             {GenerateSlice(DeltaSpec(), 1, 0), Relation(3), one_slice}) {
          want = MergeDeltaCube(
              want,
              ComputeDeltaCube(delta, schema, AffectedViews(want, delta), fn),
              fn);
          const std::uint64_t epoch = coordinator.Refresh(delta);
          const std::string at = what + ", epoch " + std::to_string(epoch);
          const auto hosted = set.Slices(epoch);
          ASSERT_NE(hosted, nullptr) << at;
          const std::vector<CubeResult> expect =
              PartitionCubeForServing(want, shards);
          ASSERT_EQ(hosted->size(), expect.size()) << at;
          for (std::size_t s = 0; s < expect.size(); ++s) {
            ExpectCubesIdentical((*hosted)[s], expect[s],
                                 at + ", slice " + std::to_string(s));
          }
          CommitEpoch(dir / "whole", schema, epoch, want);
          EXPECT_EQ(EpochFiles(dir / "live", epoch),
                    EpochFiles(dir / "whole", epoch))
              << at;
        }
        set.Shutdown();
        std::filesystem::remove_all(dir);
      }
    }
  }
  EXPECT_GT(aux_views, 0u);  // the partial cubes carried auxiliary views
}

// ---------------------------------------------------------------------------
// Crash-safety acceptance matrix
// ---------------------------------------------------------------------------

struct RefreshRig {
  Schema schema;
  CubeResult pre;    // golden old
  CubeResult post;   // golden new
  Relation delta;

  RefreshRig() {
    const DatasetSpec spec = BaseSpec();
    schema = spec.MakeSchema();
    pre = SequentialCube(GenerateSlice(spec, 1, 0), schema,
                         AllViews(schema.dims()));
    delta = GenerateSlice(DeltaSpec(), 1, 0);
    post = MergeDeltaCube(
        pre, ComputeDeltaCube(delta, schema, AffectedViews(pre, delta)));
  }
};

TEST(RefreshCrashSafety, KilledAtEveryPhaseRecoversToOldOrNewGolden) {
  const RefreshRig rig;
  for (const int shards : {2, 4}) {
    // Phase 3 (between per-shard commits) is entered shards-1 times; the
    // kill fires on the FIRST entry — exactly one shard committed.
    for (int phase = 0; phase <= 5; ++phase) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " refreshkill:" + std::to_string(phase));
      const auto dir = FreshDir("kill_p" + std::to_string(shards) + "_" +
                                std::to_string(phase));
      FaultInjector injector(
          FaultPlan::Parse("refreshkill:" + std::to_string(phase) +
                           ";seed:1"),
          /*rank=*/0);

      ManualServeClock clock;
      ShardSetOptions sopts;
      sopts.shards = shards;
      sopts.clock = &clock;
      sopts.server.workers = 1;
      sopts.server.deadline = std::chrono::microseconds(0);
      ShardSet set(rig.pre, sopts);

      RefreshOptions ropts;
      ropts.dir = dir.string();
      ropts.injector = &injector;
      int phases_seen = -1;
      ropts.on_phase = [&](int p) { phases_seen = p; };
      RefreshCoordinator coordinator(
          set,
          std::shared_ptr<const CubeResult>(&rig.pre,
                                            [](const CubeResult*) {}),
          rig.schema, ropts);
      EXPECT_THROW(coordinator.Refresh(rig.delta), InjectedFaultError);
      EXPECT_EQ(phases_seen, phase - 1);  // died ON entry, before the hook
      set.Shutdown();

      // Simulated restart: a fresh process recovers from the store alone
      // and falls back to the pre-refresh base when nothing committed.
      DiskModel disk;
      const RecoveredEpoch rec = ViewStore(dir, &disk).Recover();
      const CubeResult& served = rec.has_cube ? rec.cube : rig.pre;

      if (phase <= 4) {
        // No commit record sealed: the old cube, bit for bit.
        EXPECT_FALSE(rec.has_cube);
        ExpectCubesIdentical(served, rig.pre, "recovered (old)");
      } else {
        // Commit sealed before phase 5: the new cube, bit for bit.
        ASSERT_TRUE(rec.has_cube);
        EXPECT_EQ(rec.epoch, 1u);
        ExpectCubesIdentical(served, rig.post, "recovered (new)");
      }
      // Never a blend, and every partially written epoch is quarantined,
      // not serveable.
      EXPECT_TRUE(CubesIdentical(served, rig.pre) ||
                  CubesIdentical(served, rig.post));
      EXPECT_FALSE(!EpochFiles(dir, 1).empty() && !rec.has_cube);

      // The recovered cube actually serves: spot-check one query against
      // the matching golden engine.
      CubeQueryEngine engine(served);
      Query q;
      q.group_by = ViewId(1);
      const QueryAnswer a = engine.Execute(q);
      CubeQueryEngine golden(phase <= 4 ? rig.pre : rig.post);
      EXPECT_TRUE(a.rel == golden.Execute(q).rel);
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(RefreshCrashSafety, CompletedRefreshInstallsDurableNewEpoch) {
  const RefreshRig rig;
  const auto dir = FreshDir("complete");
  ManualServeClock clock;
  ShardSetOptions sopts;
  sopts.shards = 2;
  sopts.clock = &clock;
  sopts.server.workers = 1;
  sopts.server.deadline = std::chrono::microseconds(0);
  ShardSet set(rig.pre, sopts);

  RefreshOptions ropts;
  ropts.dir = dir.string();
  RefreshCoordinator coordinator(
      set,
      std::shared_ptr<const CubeResult>(&rig.pre, [](const CubeResult*) {}),
      rig.schema, ropts);
  EXPECT_EQ(coordinator.Refresh(rig.delta), 1u);
  EXPECT_EQ(set.serving_epoch(), 1u);
  ExpectCubesIdentical(AssembleServingCube(*set.Slices(1)), rig.post,
                       "installed");

  // Durable state agrees with what is being served.
  DiskModel disk;
  const RecoveredEpoch rec = ViewStore(dir, &disk).Recover();
  ASSERT_TRUE(rec.has_cube);
  EXPECT_EQ(rec.epoch, 1u);
  ExpectCubesIdentical(rec.cube, rig.post, "durable");

  // A second refresh stacks: epoch 2 in, epoch 0 retired.
  EXPECT_EQ(coordinator.Refresh(rig.delta), 2u);
  EXPECT_EQ(set.serving_epoch(), 2u);
  EXPECT_EQ(set.HostedEpochs(), (std::vector<std::uint64_t>{1, 2}));
  set.Shutdown();
  std::filesystem::remove_all(dir);
}

// The coordinator's store is a cube directory: after every Refresh a plain
// reader loads exactly the serving epoch's cube, auxiliary views included,
// and the directory is flat, holding the serving epoch and the one before.
TEST(RefreshCrashSafety, CoordinatorStoreIsACubeDirectory) {
  const DatasetSpec spec = BaseSpec();
  const Schema schema = spec.MakeSchema();
  const CubeResult cube =
      SequentialCube(GenerateSlice(spec, 1, 0), schema,
                     {ViewId::FromDims({0, 1}), ViewId::FromDims({0, 2})});
  ASSERT_GT(cube.views.size(), IndexOf(cube).size());  // auxiliaries
  const auto dir = FreshDir("coordinator_store");
  ManualServeClock clock;
  ShardSetOptions sopts;
  sopts.shards = 3;
  sopts.clock = &clock;
  sopts.server.workers = 1;
  sopts.server.deadline = std::chrono::microseconds(0);
  ShardSet set(cube, sopts);
  RefreshOptions ropts;
  ropts.dir = (dir / "store").string();
  RefreshCoordinator coordinator(
      set, std::make_shared<const CubeResult>(cube), schema, ropts);
  for (std::uint64_t k = 1; k <= 3; ++k) {
    DatasetSpec dspec = DeltaSpec();
    dspec.seed += k;
    EXPECT_EQ(coordinator.Refresh(GenerateSlice(dspec, 1, 0)), k);
    const ViewStore store(dir / "store");
    EXPECT_EQ(store.LoadManifest().epoch, k);
    ExpectCubesIdentical(store.LoadCube(),
                         AssembleServingCube(*set.Slices(k)),
                         "epoch " + std::to_string(k));
    // The MANIFEST and the one segment of each of epochs k - 1 (if any)
    // and k (a small cube).
    EXPECT_EQ(DirBytes(dir / "store").size(), k == 1 ? 2u : 3u);
  }
  set.Shutdown();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sncube
