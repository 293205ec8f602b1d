// Crash-safe versioned snapshot store for online cube refresh.
//
// One directory holds every refresh-produced epoch of the cube plus a
// MANIFEST whose sealed lines (io/checked_file.h, " crc <8-hex>" suffix) are
// the ONLY source of truth about what is installed:
//
//   <dir>/MANIFEST                       append-only sealed records
//   <dir>/epoch_<E>/v<mask>.snap        one sealed view frame per view of
//                                        epoch E (seqcube/view_frame.h; the
//                                        cube directory's format, epoch E)
//
// Record grammar (one per line, in swap order):
//
//   prepare <E> <mask> <mask> ...        every named view file of E is durable
//   commitshard <E> <shard>              shard has adopted E
//   commit <E>                           THE commit point: E is serving
//
// Durability protocol mirrors the checkpoint layer: data files first, the
// manifest record naming them last, every byte CRC-framed, and every write
// charged to (and fault-injected through) the caller's DiskModel — so a
// refresh plan's bitflip/tornwrite clauses corrupt snapshot bytes below the
// checksum exactly like checkpoint frames, and a refreshkill crash at any
// point leaves a manifest whose durable prefix ends cleanly.
//
// Recover() reads that durable prefix (first unverifiable line ends it,
// crash-truncated and torn tails included) and reduces it to: the newest
// COMMITTED epoch whose view files all verify — loaded and returned — while
// every half-installed epoch directory (prepared but never committed, or
// past the durable prefix entirely) is quarantined aside, and a committed
// epoch with damaged files falls back to the next older committed one. The
// caller serves what Recover returns; when nothing is recoverable it serves
// the pre-refresh base cube, which this store never owned. Either way the
// served bytes are a cube some completed refresh (or the initial build)
// produced in full — never a blend.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "io/disk.h"
#include "seqcube/cube_result.h"

namespace sncube {

struct RecoveredSnapshot {
  // False when no committed epoch could be loaded — the store is empty, its
  // manifest never reached a commit record, or every committed epoch's files
  // are damaged. The caller falls back to the pre-refresh base cube.
  bool has_cube = false;
  std::uint64_t epoch = 0;  // meaningful only when has_cube
  CubeResult cube;
  // Paths moved aside during recovery: half-installed epoch directories
  // (renamed `<dir>.quarantine`) and corrupt view files (`<file>.corrupt`),
  // kept for the post-mortem instead of deleted.
  std::vector<std::string> quarantined;
};

class SnapshotStore {
 public:
  // Creates `dir` if needed. `disk` is borrowed for the store's lifetime;
  // all reads and writes are charged to it, and its fault hook (the refresh
  // coordinator's FaultInjector, acting as rank 0) supplies transient
  // errors and silent corruption.
  SnapshotStore(std::string dir, DiskModel& disk);

  const std::filesystem::path& dir() const { return dir_; }

  // Transient disk-error retries per operation before escalating to a hard
  // SncubeIoError. (No simulated-clock backoff here: the coordinator has no
  // Comm, and src/refresh is wall-clock-banned — retries are immediate.)
  void set_max_io_retries(int n) { max_io_retries_ = n; }

  // The PREPARE step: persists every view of `cube` as a sealed frame under
  // epoch_<E>/, then appends the sealed `prepare` record naming them. The
  // record is the durability commit of the data files — a crash before it
  // leaves an unnamed directory that Recover quarantines. `mid_write`, when
  // set, runs after the first view file lands (the coordinator's mid-prepare
  // kill point).
  void WriteEpoch(std::uint64_t epoch, const CubeResult& cube,
                  const std::function<void()>& mid_write = {});
  // WriteEpoch's two halves, for a caller that has one view in memory at a
  // time: WriteEpochView persists one view's sealed frame under epoch_<E>/,
  // and AppendPrepare appends the `prepare` record naming `masks`.
  void WriteEpochView(std::uint64_t epoch, const ViewResult& vr);
  void AppendPrepare(std::uint64_t epoch, std::vector<std::uint32_t> masks);

  void AppendCommitShard(std::uint64_t epoch, int shard);

  // THE commit point of the two-phase swap: once this sealed line is
  // durable, Recover serves epoch `epoch`; before it, the previous
  // committed epoch (or the pre-refresh base).
  void AppendCommit(std::uint64_t epoch);

  // Retires epoch directories older than `epoch` (the manifest keeps their
  // history). The coordinator calls this with serving_epoch - 1 so the
  // predecessor stays on disk for fallback.
  void RemoveEpochDirsBelow(std::uint64_t epoch);

  // Loads one epoch's views, verifying every frame. Throws SncubeIoError /
  // SncubeCorruptionError when missing or damaged.
  CubeResult LoadEpoch(std::uint64_t epoch);

  // Restart entry point; see the file comment for the protocol.
  RecoveredSnapshot Recover();

 private:
  std::filesystem::path EpochDir(std::uint64_t epoch) const;
  std::filesystem::path ViewPath(std::uint64_t epoch, ViewId id) const;
  std::filesystem::path ManifestPath() const { return dir_ / "MANIFEST"; }
  void AppendRecord(const std::string& text);
  // Runs `op`, retrying SncubeTransientIoError up to max_io_retries_.
  template <typename Fn>
  void WithRetry(const char* what, Fn&& op);

  std::filesystem::path dir_;
  DiskModel& disk_;
  int max_io_retries_ = 4;
};

}  // namespace sncube
