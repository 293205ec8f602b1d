// On-disk persistence for materialized views — the "output files" of the
// paper's timed runs ("all times include the time taken to read the input
// from files and write the output into files").
//
// A cube directory is an epoch store. It is flat, with no subdirectories:
//
//   MANIFEST              append-only sealed records; the only source of
//                         truth about what the directory holds
//   v<mask-hex>.e0.sncv   epoch 0 (the build): one file per view, holding
//                         the view's frame (seqcube/view_frame.h:
//                         delta-varint packed sort keys and zigzag
//                         measures) sealed with a CRC32C trailer by
//                         io/checked_file.h
//   e<E>.<k>.sncv         epoch E >= 1 (a refresh): segments k = 0, 1, ...
//                         holding the epoch's sealed frames back to back
//                         in ascending mask order; a frame starts the next
//                         segment when it would take this one past 256 KiB
//
// A refresh writes every view anew while the committed epoch stays intact,
// so it cannot rewrite files in place, and creating files is what costs: on
// an ext4 without a journal every new inode scans the ones deleted in the
// last minute, so under a benchmark that deletes cube directories each new
// file takes 0.2-0.5 ms (DESIGN.md §3). Segments make a refresh create a
// few files instead of one per view, while no file grows much past the
// build's largest view file. The build keeps a file per view because it
// streams views in schedule-tree order, and its bytes must not depend on
// that order. A parallel build writes them a Di-partition at a time, and
// the files an interrupted one left are what a resumed one keeps
// (core/partition_writer.h).
//
// MANIFEST records are sealed lines (AppendSealedLine: " crc <8-hex>"):
//
//   schema 4 <d> <name> <card> ...           the first line: format 4 and
//                                            the dimensions in canonical
//                                            order
//   prepare <E> <mask-hex>:<rows>:<bytes> ...
//                                            epoch E's views, in ascending
//                                            mask order, are written; bytes
//                                            is each sealed frame's size,
//                                            which places it in a segment
//   commitshard <E> <shard>                  a serving shard adopted E
//   commit <E>                               THE commit point: E is the cube
//
// The durable prefix ends at the first line that lacks its newline, fails
// its CRC or does not parse; nothing after it counts. The cube is the last
// `commit E` of the prefix that follows a `prepare E`, and that prepare is
// its view index. Records carry no time or pid, so a directory's bytes
// depend only on the cubes written into it.
//
// Every write goes through ViewStore::Writer: the views, then `prepare`,
// then any `commitshard`, then `commit`. Epoch 0 starts a new store (a
// build); a refresh writes the epoch after the committed one beside it and
// retires the older one only once its commit record is on disk, so a
// reader sees the old cube or the new one, never a blend and never none.
// Readers (LoadManifest, Load, LoadCube) never write: they route on the
// committed index and read only the frames they need. Recover, the restart
// path of the refresh coordinator, sets aside what no commit names.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "io/disk.h"
#include "relation/schema.h"
#include "relation/serialize.h"
#include "seqcube/cube_result.h"

namespace sncube {

// A cube directory's schema and the index of its newest committed epoch.
struct CubeManifest {
  Schema schema;
  std::uint64_t epoch = 0;
  std::vector<ViewEntry> views;  // ascending mask, each naming `epoch`
};

// What Recover found.
struct RecoveredEpoch {
  // False when no committed epoch could be loaded: the store is empty, its
  // MANIFEST never reached a commit record, or every committed epoch's
  // files are damaged. The caller falls back to the cube it started from.
  bool has_cube = false;
  std::uint64_t epoch = 0;  // meaningful only when has_cube
  CubeResult cube;
  // Files renamed aside, kept for the post-mortem instead of deleted:
  // `<file>.quarantine` for a file of an uncommitted epoch and
  // `<file>.corrupt` for a damaged one of a committed epoch.
  std::vector<std::string> set_aside;
};

class ViewStore {
 public:
  class Writer;

  // Transient disk errors retried per operation before they escalate to
  // SncubeIoError. (No backoff: a store has no clock to charge one to.)
  static constexpr int kMaxIoRetries = 4;

  // A handle on the store rooted at `dir`; nothing is read or created until
  // a method needs it. `disk`, when given, is borrowed: every file read and
  // write is charged to it and passes its fault hook, and transient errors
  // are retried a few times before they escalate to SncubeIoError.
  explicit ViewStore(std::filesystem::path dir, DiskModel* disk = nullptr);

  const std::filesystem::path& dir() const { return dir_; }

  // The schema and the newest committed epoch's index. Throws SncubeIoError
  // when there is no MANIFEST or it commits no epoch, and
  // SncubeCorruptionError when its schema record is damaged or invalid (a
  // format other than 4, a dimension count out of range, cardinalities that
  // increase, a repeated name) or the directory has the text index of an
  // older format (rebuild it).
  CubeManifest LoadManifest() const;

  // Persists the selected views of `cube` as a new store at epoch 0.
  void SaveCube(const CubeResult& cube, const Schema& schema) const;

  // Reads the frame an index entry names (seqcube/view_frame.h) and checks
  // its header. Throws SncubeIoError when its file is missing and
  // SncubeCorruptionError, naming the file, when any byte of the frame is
  // damaged, the file ends before it, or the header disagrees with the
  // entry's mask, epoch or row count. The rows are checked by whoever
  // walks them.
  ByteBuffer ReadFrame(const ViewEntry& entry) const;
  // Loads the view an index entry names: ReadFrame, then DecodeViewFrame.
  ViewResult Load(const ViewEntry& entry) const;
  // Loads every view of the newest committed epoch.
  CubeResult LoadCube() const;

  // The name of the file that holds an entry's frame, for messages.
  static std::string FileName(const ViewEntry& entry);

  // The entry of view `id`'s epoch-0 file (the build's own file) when its
  // sealed frame verifies: the seal, and a header naming `id` at epoch 0.
  // std::nullopt when the file is missing or any of that fails. A resumed
  // build adopts what an interrupted one wrote through this.
  std::optional<ViewEntry> VerifyBuildFile(ViewId id) const;

  // Writer-side maintenance. Clear removes the MANIFEST, then every view
  // file and segment (set-aside ones included) but the files of `keep`,
  // creating the directory if needed. RemoveEpochsBelow removes the live
  // files of every epoch below `epoch`.
  void Clear(std::span<const ViewEntry> keep = {}) const;
  void RemoveEpochsBelow(std::uint64_t epoch) const;

  // The restart path: loads the newest committed epoch whose frames all
  // verify. A damaged committed epoch's bad files are set aside and the
  // next older committed epoch is tried. Every file of an epoch no commit
  // record names (a crash before the commit) is set aside too.
  RecoveredEpoch Recover() const;

 private:
  // Runs op(disk) on the borrowed or a scratch DiskModel, retrying
  // transient errors.
  template <typename Op>
  void WithDisk(const char* what, Op&& op) const;

  std::filesystem::path dir_;
  DiskModel* disk_;
};

// The one writer of a cube directory. It writes one epoch: views land one
// at a time as the caller produces them, then Prepare appends the `prepare`
// record naming them all, CommitShard a `commitshard`, and Commit the
// `commit` record. Its first append cuts the MANIFEST back to its durable
// prefix (a torn tail would swallow the record) and starts an empty one
// with the schema record.
//
// A writer dropped before Commit undoes what it did: the MANIFEST is cut
// back to its length before the first append (removed if this writer
// started it) and every file it wrote is removed, so a build or refresh
// that throws leaves the directory as it was, and a failed build leaves no
// MANIFEST. Abandon drops it without that, as a crash would.
class ViewStore::Writer {
 public:
  // Starts epoch `epoch` of `store`, creating the directory. Epoch 0 starts
  // a new store: Clear() runs first, and views may come in any order. A
  // later epoch is written beside the store's committed ones, must be newer
  // than each of them, and takes its views in ascending mask order
  // (checked).
  Writer(const ViewStore& store, Schema schema, std::uint64_t epoch = 0);
  // Starts epoch 0 over what an interrupted build left: the files of `kept`
  // (entries VerifyBuildFile returned) stay and count as written by this
  // writer; the MANIFEST and every other view file go.
  Writer(const ViewStore& store, Schema schema, std::vector<ViewEntry> kept);
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  std::uint64_t epoch() const { return epoch_; }

  // Writes a whole view's sealed frame, keeping its selected flag.
  void Write(const ViewResult& view);
  // Writes the selected view `id` whose rows are the concatenation of
  // `parts` (rank parts in rank order, each a sorted range of the view in
  // `order`); the bytes are those of the whole view.
  void Write(ViewId id, const std::vector<int>& order,
             std::span<const Relation* const> parts);
  // Writes an already-encoded frame of this writer's epoch (checked) and
  // returns its index entry: the view and row count its header records.
  ViewEntry WriteFrame(std::span<const std::byte> frame);
  // Appends `prepare`, its entries in ascending mask order. A view written
  // twice fails a check.
  void Prepare();
  void CommitShard(int shard);
  // Appends `commit` (after Prepare, if that has not run).
  void Commit();
  void Abandon() { done_ = true; }

 private:
  void Append(const std::string& record);

  ViewStore store_;
  Schema schema_;
  std::uint64_t epoch_;
  std::vector<ViewEntry> views_;
  bool prepared_ = false;
  bool done_ = false;  // committed or abandoned: nothing to undo
  bool appended_ = false;
  std::uintmax_t manifest_bytes_ = 0;  // the durable prefix at construction
};

}  // namespace sncube
