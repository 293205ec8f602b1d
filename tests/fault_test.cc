// Fault injection and hardened failure paths: plan parsing, deterministic
// injector streams, typed cluster aborts, cluster reusability after a
// failure, straggler clock stretching, disk-error escalation, and the
// cube directory as the build's checkpoint: a build aborted by an injected
// rank failure leaves the view files of its finished Di-partitions, and a
// resumed build — after any damage to those files — leaves a directory
// byte-identical to a fault-free build's.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "core/parallel_cube.h"
#include "core/partition_writer.h"
#include "data/generator.h"
#include "lattice/lattice.h"
#include "net/cluster.h"
#include "net/fault.h"

namespace sncube {
namespace {

TEST(FaultPlan, ParsesFullSpec) {
  const FaultPlan plan =
      FaultPlan::Parse("kill:1@5;slow:2x3.5;diskerr:0:0.25;seed:42");
  ASSERT_EQ(plan.kills.size(), 1u);
  EXPECT_EQ(plan.kills[0].rank, 1);
  EXPECT_EQ(plan.kills[0].at_superstep, 5u);
  ASSERT_EQ(plan.stragglers.size(), 1u);
  EXPECT_EQ(plan.stragglers[0].rank, 2);
  EXPECT_DOUBLE_EQ(plan.stragglers[0].factor, 3.5);
  ASSERT_EQ(plan.disk_errors.size(), 1u);
  EXPECT_EQ(plan.disk_errors[0].rank, 0);
  EXPECT_DOUBLE_EQ(plan.disk_errors[0].rate, 0.25);
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(FaultPlan{}.empty());
  EXPECT_TRUE(FaultPlan::Parse("").empty());
}

TEST(FaultPlan, MalformedSpecsThrow) {
  for (const char* bad :
       {"kill:1", "kill:x@2", "kill:@2", "kill:1@", "slow:1", "slow:1x0.5",
        "diskerr:0", "diskerr:0:1.5", "bogus:3", "kill",
        // Hardened rejections: duplicates, out-of-range and garbage values.
        "kill:1@3;kill:1@5", "slow:2x2.0;slow:2x3.0",
        "diskerr:0:0.1;diskerr:0:0.2", "bitflip:0:0.5;bitflip:0:0.5",
        "tornwrite:1:0.1;tornwrite:1:0.2", "seed:1;seed:2",
        "diskerr:0:-0.1", "bitflip:0:1.5", "tornwrite:0:-1",
        "bitflip:0:nan", "slow:1xnan", "diskerr:0:0.5junk", "slow:1x2.0abc",
        "kill:1@2x", "seed:12junk", "seed:"}) {
    EXPECT_THROW(FaultPlan::Parse(bad), SncubeError) << bad;
  }
  // The typed error names the offending clause.
  try {
    FaultPlan::Parse("kill:0@1;diskerr:2:7.5");
    FAIL() << "expected throw";
  } catch (const SncubeError& e) {
    EXPECT_NE(std::string(e.what()).find("diskerr:2:7.5"), std::string::npos);
  }
}

TEST(FaultPlan, ParsesCorruptionClausesAndRoundTripsToSpec) {
  const FaultPlan plan = FaultPlan::Parse(
      "kill:1@5;slow:2x3.5;diskerr:0:0.25;bitflip:0:0.5;tornwrite:1:0.125;"
      "seed:42");
  ASSERT_EQ(plan.bit_flips.size(), 1u);
  EXPECT_EQ(plan.bit_flips[0].rank, 0);
  EXPECT_DOUBLE_EQ(plan.bit_flips[0].rate, 0.5);
  ASSERT_EQ(plan.torn_writes.size(), 1u);
  EXPECT_EQ(plan.torn_writes[0].rank, 1);
  EXPECT_DOUBLE_EQ(plan.torn_writes[0].rate, 0.125);

  const std::string spec = plan.ToSpec();
  const FaultPlan reparsed = FaultPlan::Parse(spec);
  EXPECT_EQ(reparsed.ToSpec(), spec);
  EXPECT_EQ(reparsed.kills.size(), 1u);
  EXPECT_EQ(reparsed.seed, 42u);
  EXPECT_DOUBLE_EQ(reparsed.torn_writes[0].rate, 0.125);

  // An all-defaults plan still round-trips (seed-only spec).
  EXPECT_TRUE(FaultPlan::Parse(FaultPlan{}.ToSpec()).empty());
}

TEST(FaultPlan, ParsesServeClausesAndRoundTripsToSpec) {
  // Serve-tier clauses: windows are half-open [from, until) intervals of
  // router request sequence numbers; an omitted until means "forever".
  const FaultPlan plan = FaultPlan::Parse(
      "shardkill:1:10-60;shardkill:2:40;shardslow:0:0-120:4;"
      "shardslow:3:25:2.5;seed:7");
  ASSERT_EQ(plan.shard_kills.size(), 2u);
  EXPECT_EQ(plan.shard_kills[0].shard, 1);
  EXPECT_EQ(plan.shard_kills[0].from, 10u);
  EXPECT_EQ(plan.shard_kills[0].until, 60u);
  EXPECT_EQ(plan.shard_kills[1].shard, 2);
  EXPECT_EQ(plan.shard_kills[1].from, 40u);
  EXPECT_EQ(plan.shard_kills[1].until, FaultPlan::kNoEnd);
  ASSERT_EQ(plan.shard_slows.size(), 2u);
  EXPECT_EQ(plan.shard_slows[0].shard, 0);
  EXPECT_EQ(plan.shard_slows[0].from, 0u);
  EXPECT_EQ(plan.shard_slows[0].until, 120u);
  EXPECT_DOUBLE_EQ(plan.shard_slows[0].factor, 4.0);
  EXPECT_EQ(plan.shard_slows[1].until, FaultPlan::kNoEnd);
  EXPECT_DOUBLE_EQ(plan.shard_slows[1].factor, 2.5);
  EXPECT_FALSE(plan.empty());

  const std::string spec = plan.ToSpec();
  const FaultPlan reparsed = FaultPlan::Parse(spec);
  EXPECT_EQ(reparsed.ToSpec(), spec);
  EXPECT_EQ(reparsed.shard_kills[1].until, FaultPlan::kNoEnd);
  EXPECT_DOUBLE_EQ(reparsed.shard_slows[0].factor, 4.0);
  // Endless windows serialize without the -until suffix.
  EXPECT_NE(spec.find("shardkill:2:40;"), std::string::npos);
  EXPECT_NE(spec.find("shardkill:1:10-60"), std::string::npos);
}

TEST(FaultPlan, MalformedServeClausesThrow) {
  for (const char* bad :
       {"shardkill:1", "shardkill:x:5", "shardkill:1:", "shardkill:1:x",
        "shardkill:1:90-40",   // empty window (until <= from)
        "shardkill:1:5-5",     // likewise
        "shardkill:1:5;shardkill:1:9",  // duplicate shard
        "shardslow:0:5",       // missing factor
        "shardslow:0:5:0.5",   // factor < 1 would be a speedup
        "shardslow:0:5:nan", "shardslow:0:5-2:3",
        "shardslow:0:5:2;shardslow:0:9:3", "shardkill:1:4-5junk"}) {
    EXPECT_THROW(FaultPlan::Parse(bad), SncubeError) << bad;
  }
}

TEST(FaultPlan, ParsesRefreshClausesAndRoundTripsToSpec) {
  const FaultPlan plan =
      FaultPlan::Parse("refreshkill:3;refreshkill:0;tornwrite:0:1;seed:11");
  ASSERT_EQ(plan.refresh_kills.size(), 2u);
  EXPECT_EQ(plan.refresh_kills[0].phase, 3);
  EXPECT_EQ(plan.refresh_kills[1].phase, 0);
  EXPECT_FALSE(plan.empty());

  const std::string spec = plan.ToSpec();
  const FaultPlan reparsed = FaultPlan::Parse(spec);
  EXPECT_EQ(reparsed.ToSpec(), spec);
  ASSERT_EQ(reparsed.refresh_kills.size(), 2u);
  EXPECT_EQ(reparsed.refresh_kills[0].phase, 3);
}

TEST(FaultPlan, MalformedRefreshClausesThrow) {
  for (const char* bad :
       {"refreshkill", "refreshkill:", "refreshkill:x", "refreshkill:-1",
        "refreshkill:2.5", "refreshkill:3junk", "refreshkill:nan",
        "refreshkill:2;refreshkill:2"}) {  // duplicate phase
    EXPECT_THROW(FaultPlan::Parse(bad), SncubeError) << bad;
  }
  // The typed error names the offending clause.
  try {
    FaultPlan::Parse("refreshkill:1;refreshkill:zzz");
    FAIL() << "expected throw";
  } catch (const SncubeError& e) {
    EXPECT_NE(std::string(e.what()).find("refreshkill:zzz"),
              std::string::npos);
  }
}

TEST(FaultInjector, RefreshKillFiresOnlyAtItsPhases) {
  const FaultPlan plan = FaultPlan::Parse("refreshkill:1;refreshkill:4");
  // Refresh kills are not rank-scoped: any injector sees them.
  FaultInjector inj(plan, 0);
  EXPECT_NO_THROW(inj.OnRefreshPhase(0));
  EXPECT_THROW(inj.OnRefreshPhase(1), InjectedFaultError);
  EXPECT_NO_THROW(inj.OnRefreshPhase(2));
  EXPECT_NO_THROW(inj.OnRefreshPhase(3));
  EXPECT_THROW(inj.OnRefreshPhase(4), InjectedFaultError);
  FaultInjector none(FaultPlan{}, 0);
  for (int phase = 0; phase < 8; ++phase) {
    EXPECT_NO_THROW(none.OnRefreshPhase(phase));
  }
}

TEST(FaultInjector, WriteFaultStreamIsDeterministicAndSeparate) {
  const FaultPlan plan =
      FaultPlan::Parse("diskerr:0:0.5;bitflip:0:0.5;tornwrite:0:0.5;seed:7");
  // Identical draws for identical (plan, rank).
  FaultInjector a(plan, 0);
  FaultInjector b(plan, 0);
  int flips = 0;
  int tears = 0;
  for (int i = 0; i < 256; ++i) {
    const WriteFault fa = a.NextWriteFault(64);
    const WriteFault fb = b.NextWriteFault(64);
    EXPECT_EQ(static_cast<int>(fa.kind), static_cast<int>(fb.kind));
    EXPECT_EQ(fa.offset, fb.offset);
    if (fa.kind == WriteFault::Kind::kBitFlip) {
      ++flips;
      EXPECT_LT(fa.offset, 64u * 8u);
    } else if (fa.kind == WriteFault::Kind::kTornWrite) {
      ++tears;
      EXPECT_LT(fa.offset, 64u);
    }
  }
  EXPECT_GT(flips, 0);
  EXPECT_GT(tears, 0);

  // The corruption stream must not perturb the transient-error stream:
  // a plan with and without corruption clauses makes the same ops fail.
  FaultInjector with(plan, 0);
  FaultInjector without(FaultPlan::Parse("diskerr:0:0.5;seed:7"), 0);
  for (int i = 0; i < 256; ++i) {
    if (i % 3 == 0) with.NextWriteFault(128);  // interleaved corruption draws
    EXPECT_EQ(with.NextOpFails(false), without.NextOpFails(false)) << i;
  }

  // A rank the plan doesn't target is never corrupted; zero-byte writes
  // consume no draws.
  FaultInjector other(plan, 1);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(static_cast<int>(other.NextWriteFault(64).kind),
              static_cast<int>(WriteFault::Kind::kNone));
    EXPECT_EQ(static_cast<int>(a.NextWriteFault(0).kind),
              static_cast<int>(WriteFault::Kind::kNone));
  }
}

TEST(FaultInjector, DiskErrorStreamIsDeterministicPerRankAndSeed) {
  const FaultPlan plan = FaultPlan::Parse("diskerr:0:0.5;seed:7");
  FaultInjector a(plan, 0);
  FaultInjector b(plan, 0);
  std::vector<bool> sa;
  std::vector<bool> sb;
  for (int i = 0; i < 256; ++i) {
    sa.push_back(a.NextOpFails(false));
    sb.push_back(b.NextOpFails(i % 2 == 0));  // is_write doesn't perturb it
  }
  EXPECT_EQ(sa, sb);
  EXPECT_NE(std::count(sa.begin(), sa.end(), true), 0);

  // A rank the plan doesn't target never fails.
  FaultInjector other(plan, 1);
  for (int i = 0; i < 64; ++i) EXPECT_FALSE(other.NextOpFails(false));

  // A different seed yields a different stream.
  FaultInjector reseeded(FaultPlan::Parse("diskerr:0:0.5;seed:8"), 0);
  std::vector<bool> sc;
  for (int i = 0; i < 256; ++i) sc.push_back(reseeded.NextOpFails(false));
  EXPECT_NE(sa, sc);
}

TEST(FaultInjector, KillAndSlowdownApplyOnlyToTargetRank) {
  const FaultPlan plan = FaultPlan::Parse("kill:1@3;slow:1x6.0");
  FaultInjector victim(plan, 1);
  EXPECT_DOUBLE_EQ(victim.slowdown(), 6.0);
  victim.OnCollective(0);
  victim.OnCollective(2);
  EXPECT_THROW(victim.OnCollective(3), InjectedFaultError);
  FaultInjector bystander(plan, 0);
  EXPECT_DOUBLE_EQ(bystander.slowdown(), 1.0);
  bystander.OnCollective(3);  // no throw
}

TEST(Fault, KillAtSuperstepAbortsWithTypedError) {
  Cluster cluster(3);
  cluster.set_fault_plan(FaultPlan::Parse("kill:2@3"));
  try {
    cluster.Run([](Comm& comm) {
      for (int i = 0; i < 10; ++i) comm.AllReduceSum(1);
    });
    FAIL() << "injected kill must abort the Run";
  } catch (const ClusterAbortedError& e) {
    EXPECT_EQ(e.failed_rank(), 2);
    EXPECT_EQ(e.superstep(), 3u);
    EXPECT_NE(std::string(e.what()).find("rank 2"), std::string::npos);
  }
  ASSERT_TRUE(cluster.last_failure().has_value());
  EXPECT_EQ(cluster.last_failure()->failed_rank, 2);
  EXPECT_EQ(cluster.last_failure()->superstep, 3u);
  ASSERT_EQ(cluster.last_failure()->partial_stats.size(), 3u);
  EXPECT_TRUE(cluster.last_failure()->partial_stats[2].failed);
  // The doomed Run's numbers never reach the cluster's accumulated metrics.
  EXPECT_EQ(cluster.BytesSent(), 0u);
  EXPECT_DOUBLE_EQ(cluster.SimTimeSeconds(), 0.0);
}

TEST(Fault, RankThatFinishedBeforeTheFailureIsNotFlagged) {
  Cluster cluster(2);
  try {
    cluster.Run([](Comm& comm) {
      if (comm.rank() == 0) return;  // completes without any collective
      throw SncubeError("rank 1 exploded");
    });
    FAIL() << "Run must rethrow";
  } catch (const ClusterAbortedError& e) {
    EXPECT_EQ(e.failed_rank(), 1);
  }
  ASSERT_TRUE(cluster.last_failure().has_value());
  EXPECT_FALSE(cluster.last_failure()->partial_stats[0].failed);
  EXPECT_TRUE(cluster.last_failure()->partial_stats[1].failed);
}

TEST(Fault, ClusterReusableAfterFailureInsideAllToAllv) {
  // Rank 1 dies on entry to its third AllToAllv while the others are mid-
  // collective; the cluster must stay fully usable, and the second Run's
  // metrics must not carry anything from the failed attempt.
  Cluster cluster(4);
  cluster.set_fault_plan(FaultPlan::Parse("kill:1@2"));
  auto exchange = [](Comm& comm, std::size_t bytes) {
    std::vector<ByteBuffer> send(comm.size());
    send[(comm.rank() + 1) % comm.size()] = ByteBuffer(bytes);
    return comm.AllToAllv(std::move(send));
  };
  EXPECT_THROW(cluster.Run([&](Comm& comm) {
    for (int i = 0; i < 6; ++i) exchange(comm, 1000);
  }),
               ClusterAbortedError);
  ASSERT_TRUE(cluster.last_failure().has_value());

  cluster.clear_fault_plan();
  cluster.Run([&](Comm& comm) { exchange(comm, 50); });
  EXPECT_FALSE(cluster.last_failure().has_value());  // reset by the new Run
  // Only the second Run's traffic (payload + per-message trailer).
  EXPECT_EQ(cluster.BytesSent(), 4u * (50u + kFrameTrailerBytes));
  for (const auto& rs : cluster.stats()) {
    EXPECT_EQ(rs.supersteps, 1u);
    EXPECT_FALSE(rs.failed);
  }
}

TEST(Fault, StragglerStretchesTheSimulatedClock) {
  auto run = [](const char* plan) {
    Cluster cluster(2);
    if (plan != nullptr) cluster.set_fault_plan(FaultPlan::Parse(plan));
    cluster.Run([](Comm& comm) {
      comm.ChargeCpu(1.0);
      comm.Barrier();
    });
    return cluster.SimTimeSeconds();
  };
  const double base = run(nullptr);
  const double slow = run("slow:1x4.0");
  // Rank 1's second of CPU becomes four; the barrier latency term cancels.
  EXPECT_NEAR(slow - base, 3.0, 1e-9);
}

TEST(Fault, TransientDiskErrorOutsideRetryPathKillsTheRank) {
  // Disk charges in the compute path have no retry wrapper: a transient
  // error there is a rank failure, surfaced as a typed cluster abort.
  Cluster cluster(2);
  cluster.set_fault_plan(FaultPlan::Parse("diskerr:0:1.0;seed:3"));
  try {
    cluster.Run([](Comm& comm) {
      if (comm.rank() == 0) comm.disk().ChargeRead(4096);
      comm.Barrier();
    });
    FAIL() << "transient disk error must abort the Run";
  } catch (const ClusterAbortedError& e) {
    EXPECT_EQ(e.failed_rank(), 0);
    EXPECT_NE(std::string(e.what()).find("transient"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// The cube directory is the checkpoint. A build writes each Di-partition's
// views as the partition finishes; a killed build leaves those files and no
// MANIFEST; --resume keeps every partition whose files all verify.

using DirBytes = std::map<std::string, std::string>;

DirBytes ReadDir(const std::filesystem::path& dir) {
  DirBytes files;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(file.path(), std::ios::binary);
    files[file.path().filename().string()] = std::string(
        std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return files;
}

std::filesystem::path FreshDir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("sncube_fault_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

// Builds `spec`'s full cube on `cluster` into `dir` through a
// PartitionWriter, resuming what is there with `resume`. False when the
// build aborted, which leaves the finished partitions' files. `stats`, when
// given, gets rank 0's. Without `commit` the finished build is abandoned
// before its commit, as a kill there would leave it.
bool BuildInto(Cluster& cluster, const std::filesystem::path& dir,
               const DatasetSpec& spec, bool resume,
               ParallelCubeStats* stats = nullptr, bool commit = true) {
  const Schema schema = spec.MakeSchema();
  const std::vector<ViewId> selected = AllViews(schema.dims());
  const int p = cluster.size();
  PartitionWriter writer(ViewStore(dir), schema, GenerateDataset(spec),
                         selected, p, resume);
  ParallelCubeOptions opts;
  writer.Attach(opts);
  try {
    cluster.Run([&](Comm& comm) {
      ParallelCubeStats st;
      const Relation raw = GenerateSlice(spec, p, comm.rank());
      BuildParallelCube(comm, raw, schema, selected, opts, &st);
      if (comm.rank() == 0 && stats != nullptr) *stats = st;
    });
  } catch (const ClusterAbortedError&) {
    writer.Abandon();
    return false;
  }
  if (commit) {
    writer.Commit();
  } else {
    writer.Abandon();
  }
  return true;
}

// Acceptance: kill rank 1 at superstep k, resume in the same directory, and
// compare every file, MANIFEST included, with a fault-free build's — for
// p in {2, 4} and two kill points each.
TEST(FaultTolerance, KilledBuildRestartedFromCheckpointIsByteIdentical) {
  DatasetSpec spec;
  spec.rows = 2500;
  spec.cardinalities = {12, 6, 4};
  spec.seed = 99;

  for (int p : {2, 4}) {
    const auto ref_dir = FreshDir("ref_p" + std::to_string(p));
    Cluster reference(p);
    ASSERT_TRUE(BuildInto(reference, ref_dir, spec, /*resume=*/false));
    const DirBytes golden = ReadDir(ref_dir);
    std::filesystem::remove_all(ref_dir);
    const std::uint64_t total_supersteps = reference.stats()[0].supersteps;
    ASSERT_GT(total_supersteps, 3u);

    const std::uint64_t kill_points[] = {total_supersteps / 3,
                                         (2 * total_supersteps) / 3};
    ASSERT_NE(kill_points[0], kill_points[1]);
    for (const std::uint64_t kill_at : kill_points) {
      const auto dir = FreshDir("p" + std::to_string(p) + "_k" +
                                std::to_string(kill_at));
      Cluster cluster(p);
      cluster.set_fault_plan(
          FaultPlan::Parse("kill:1@" + std::to_string(kill_at)));
      EXPECT_FALSE(BuildInto(cluster, dir, spec, /*resume=*/false));
      ASSERT_TRUE(cluster.last_failure().has_value());
      EXPECT_EQ(cluster.last_failure()->failed_rank, 1);
      EXPECT_EQ(cluster.last_failure()->superstep, kill_at);
      EXPECT_FALSE(std::filesystem::exists(dir / "MANIFEST"));

      // Resume in the same directory, faults cleared.
      cluster.clear_fault_plan();
      ParallelCubeStats stats;
      ASSERT_TRUE(BuildInto(cluster, dir, spec, /*resume=*/true, &stats));
      EXPECT_EQ(ReadDir(dir), golden) << "p=" << p << " kill@" << kill_at;
      // The later kill point falls after at least one finished partition,
      // so the resume must skip work instead of redoing it all.
      if (kill_at == kill_points[1]) {
        EXPECT_GT(stats.partitions_skipped, 0)
            << "p=" << p << " kill@" << kill_at;
      }
      std::filesystem::remove_all(dir);
    }
  }
}

// The resume crash matrix: a --procs 2 build killed after at least two of
// its four partitions, then each file it left deleted, truncated at
// several offsets, or with one byte flipped at several offsets. For a view
// file the resumed build recomputes exactly the damaged file's partition
// and leaves the fault-free build's bytes; for the input record it refuses
// and leaves every byte of the directory as it was.
TEST(CheckpointCrashPoints, AllTornWriteScenariosRestartByteIdentical) {
  DatasetSpec spec;
  spec.rows = 800;
  spec.cardinalities = {8, 5, 3, 2};
  spec.seed = 31;
  const int p = 2;

  const auto ref_dir = FreshDir("matrix_ref");
  Cluster reference(p);
  ASSERT_TRUE(BuildInto(reference, ref_dir, spec, /*resume=*/false));
  const DirBytes golden = ReadDir(ref_dir);
  std::filesystem::remove_all(ref_dir);

  // Killed in its last superstep: every partition but the last is written.
  const auto killed = FreshDir("matrix_killed");
  {
    Cluster cluster(p);
    cluster.set_fault_plan(FaultPlan::Parse(
        "kill:1@" + std::to_string(reference.stats()[0].supersteps - 1)));
    ASSERT_FALSE(BuildInto(cluster, killed, spec, /*resume=*/false));
  }
  const DirBytes interrupted = ReadDir(killed);
  ASSERT_EQ(interrupted.count("MANIFEST"), 0u);
  ASSERT_EQ(interrupted.count(ViewStore::kBuildInputName), 1u);

  const auto dir = FreshDir("matrix");
  // Resumes a copy of the interrupted directory after `damage` and checks
  // the bytes and the partitions it skipped.
  const auto resume = [&](const std::string& what, int want_skipped,
                          const auto& damage) {
    std::filesystem::remove_all(dir);
    std::filesystem::copy(killed, dir);
    damage();
    Cluster cluster(p);
    ParallelCubeStats stats;
    ASSERT_TRUE(BuildInto(cluster, dir, spec, /*resume=*/true, &stats))
        << what;
    EXPECT_EQ(ReadDir(dir), golden) << what;
    EXPECT_EQ(stats.partitions_skipped, want_skipped) << what;
  };
  // Resumes a copy after `damage` to the input record: refused, no byte
  // changed.
  const auto refused = [&](const std::string& what, const auto& damage) {
    std::filesystem::remove_all(dir);
    std::filesystem::copy(killed, dir);
    damage();
    const DirBytes damaged = ReadDir(dir);
    Cluster cluster(p);
    EXPECT_THROW(BuildInto(cluster, dir, spec, /*resume=*/true), SncubeError)
        << what;
    EXPECT_EQ(ReadDir(dir), damaged) << what;
  };

  ParallelCubeStats undamaged;
  {
    std::filesystem::remove_all(dir);
    std::filesystem::copy(killed, dir);
    Cluster cluster(p);
    ASSERT_TRUE(BuildInto(cluster, dir, spec, /*resume=*/true, &undamaged));
    EXPECT_EQ(ReadDir(dir), golden);
  }
  const int written = undamaged.partitions_skipped;
  ASSERT_GE(written, 2);
  ASSERT_LT(written, undamaged.partitions);

  for (const auto& [name, bytes] : interrupted) {
    const auto path = dir / name;
    const std::uintmax_t size = bytes.size();
    const auto check = [&](const std::string& what, const auto& damage) {
      if (name == ViewStore::kBuildInputName) {
        refused(what, damage);
      } else {
        resume(what, written - 1, damage);
      }
    };
    check(name + " deleted", [&] { std::filesystem::remove(path); });
    for (const std::uintmax_t keep : {std::uintmax_t{0}, std::uintmax_t{1},
                                      size / 2, size - 1}) {
      check(name + " truncated to " + std::to_string(keep),
            [&] { std::filesystem::resize_file(path, keep); });
    }
    for (const std::uintmax_t at : {std::uintmax_t{0}, size / 2, size - 1}) {
      check(name + " flipped at " + std::to_string(at), [&] {
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(static_cast<std::streamoff>(at));
        const char flipped = static_cast<char>(f.peek() ^ 0x20);
        f.seekp(static_cast<std::streamoff>(at));
        f.put(flipped);
      });
    }
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(killed);
}

// Every partition written and no MANIFEST (a kill after the last write,
// before the commit): a resume with another input or view selection is
// refused and changes no byte; the build's own resume skips every
// partition, writes only the MANIFEST and removes the input record.
TEST(Checkpoint, FullyCheckpointedBuildRestoresEveryPartition) {
  DatasetSpec spec;
  spec.rows = 1200;
  spec.cardinalities = {10, 5, 3};
  spec.seed = 17;
  Cluster cluster(2);
  const auto ref_dir = FreshDir("full_ref");
  ASSERT_TRUE(BuildInto(cluster, ref_dir, spec, /*resume=*/false));
  const DirBytes golden = ReadDir(ref_dir);
  std::filesystem::remove_all(ref_dir);

  const auto dir = FreshDir("full");
  ParallelCubeStats first;
  ASSERT_TRUE(BuildInto(cluster, dir, spec, /*resume=*/false, &first,
                        /*commit=*/false));
  EXPECT_EQ(first.partitions_skipped, 0);
  EXPECT_FALSE(std::filesystem::exists(dir / "MANIFEST"));
  const DirBytes interrupted = ReadDir(dir);

  DatasetSpec other = spec;
  other.seed = 18;
  EXPECT_THROW(BuildInto(cluster, dir, other, /*resume=*/true), SncubeError);
  EXPECT_EQ(ReadDir(dir), interrupted);
  const Schema schema = spec.MakeSchema();
  EXPECT_THROW(PartitionWriter(ViewStore(dir), schema, GenerateDataset(spec),
                               {ViewId::Full(schema.dims())}, 2,
                               /*resume=*/true),
               SncubeError);
  EXPECT_EQ(ReadDir(dir), interrupted);

  ParallelCubeStats second;
  ASSERT_TRUE(BuildInto(cluster, dir, spec, /*resume=*/true, &second));
  EXPECT_EQ(second.partitions_skipped, second.partitions);
  EXPECT_EQ(ReadDir(dir), golden);
  std::filesystem::remove_all(dir);
}

// Rank shards that disagree on a view are refused, not written.
TEST(Checkpoint, ShardsThatDisagreeOnAViewAreRefused) {
  const auto dir = FreshDir("disagree");
  const Schema schema({4, 3});
  const ViewId id = ViewId::FromDims({0, 1});
  PartitionWriter writer(ViewStore(dir), schema, Relation(2), {id}, 2,
                         /*resume=*/false);
  for (int rank = 0; rank < 2; ++rank) {
    CubeResult part;
    ViewResult& view = part.views[id];
    view.id = id;
    view.order = rank == 0 ? std::vector<int>{0, 1} : std::vector<int>{1, 0};
    view.rel = Relation(2);
    if (rank == 0) {
      writer.Deliver(0, rank, std::move(part));
    } else {
      EXPECT_THROW(writer.Deliver(0, rank, std::move(part)), SncubeError);
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sncube
