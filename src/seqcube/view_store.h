// On-disk persistence for materialized views — the "output files" of the
// paper's timed runs ("all times include the time taken to read the input
// from files and write the output into files").
//
// A cube directory holds one file `v<mask-hex>.sncv` per persisted view —
// the view's frame (seqcube/view_frame.h, epoch 0: delta-varint packed sort
// keys and zigzag-varint measures) sealed with a CRC32C trailer by
// io/checked_file.h — plus `manifest.txt`, the directory's index:
//
//   sncube-manifest 3
//   <d>                      schema: the dimension count, then one line
//   <name> <cardinality>     per dimension in canonical order
//   ...
//   <n>                      view index: the view count, then one line
//   v<mask-hex> <rows>       per persisted view in ascending mask order
//   ...
//   end
//
// The manifest is the directory's commit point. The one writer,
// ViewStore::Writer, removes the old one, writes view files as they arrive,
// and writes the new one last (temp file + rename); a write that fails
// midway leaves view files and no manifest, which every reader refuses.
// Readers walk the index, never the directory listing, so a reader that
// needs one view opens the manifest and that view's file only. The manifest
// is outside input: LoadManifest bounds-checks every line, and a view loaded
// through the index must verify and match its entry (DESIGN.md §3).
// Per-rank shard stores simply use per-rank directories.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "io/disk.h"
#include "relation/schema.h"
#include "seqcube/cube_result.h"

namespace sncube {

// A cube directory's manifest: its schema and its view index.
struct CubeManifest {
  Schema schema;
  std::vector<ViewEntry> views;  // ascending mask
};

class ViewStore {
 public:
  class Writer;

  // Opens (creating if needed) a store rooted at `dir`.
  explicit ViewStore(std::filesystem::path dir);

  const std::filesystem::path& dir() const { return dir_; }

  // Writes the manifest through a temp file and a rename.
  void SaveManifest(const CubeManifest& manifest) const;
  // Reads and checks the manifest. Throws SncubeIoError when it is missing
  // and SncubeCorruptionError when it is malformed, truncated, of another
  // version (formats 1 and 2 name view files of older layouts: rebuild such
  // a directory), repeats a dimension name, names a mask outside the
  // schema's dimensions, or lists masks out of order.
  CubeManifest LoadManifest() const;

  // Persists the selected views of a cube computed as rank-order parts:
  // view v's file holds parts[0]'s rows of v, then parts[1]'s, and so on
  // (the global view, since each rank holds a globally sorted range),
  // encoded without concatenating them in memory, so the bytes are those of
  // the whole view. Then writes the manifest. Every part must hold the same
  // selected views in the same sort orders.
  void SaveCubeParts(std::span<const CubeResult> parts,
                     const Schema& schema) const;
  // The one-part case: persists every selected view plus the manifest.
  void SaveCube(const CubeResult& cube, const Schema& schema) const;

  // Loads the view file an index entry names. Throws SncubeIoError when it
  // is missing and SncubeCorruptionError when any byte of it is damaged,
  // it is truncated, or its frame disagrees with the entry's mask or row
  // count.
  ViewResult Load(const ViewEntry& entry) const;
  // The same into `view`, whose storage is reused (DecodeViewFrame).
  void Load(const ViewEntry& entry, ViewResult& view) const;
  // Reads the file an entry names and checks its seal and its frame header
  // against the entry (mask, epoch 0, rows) without decoding the rows:
  // one read and CRC of the file. Throws as Load does for a missing file,
  // any damaged byte, or a header that disagrees with the entry.
  void Check(const ViewEntry& entry) const;
  // Loads every view the index names.
  CubeResult LoadCube() const;

  bool Contains(ViewId id) const;

 private:
  std::filesystem::path PathFor(ViewId id) const;

  std::filesystem::path dir_;
};

// The one writer of a cube directory: views land one at a time as the
// caller produces them, and the manifest comes last. Creating a writer
// removes the store's manifest, so no reader pairs the old index with new
// view files; Commit writes the new one. A writer dropped without Commit
// (a build or refresh that failed midway) leaves view files and no
// manifest: LoadManifest throws SncubeIoError, never reads a partial index.
class ViewStore::Writer {
 public:
  Writer(const ViewStore& store, Schema schema);

  // Writes a whole view's sealed frame and records its index entry. An
  // unselected (auxiliary) view is not persisted.
  void Write(const ViewResult& view);
  // Writes the view `id` whose rows are the concatenation of `parts` (rank
  // parts in rank order, each a sorted range of the view in `order`); the
  // bytes are those of the whole view.
  void Write(ViewId id, const std::vector<int>& order,
             std::span<const Relation* const> parts);
  // Writes the manifest, its entries in ascending mask order. A view
  // written twice fails a check.
  void Commit();

 private:
  ViewStore store_;
  CubeManifest manifest_;
  // The cube directory is not on a simulated rank's disk: the model only
  // carries the sealed-file calls' charges, and nothing reads them.
  DiskModel disk_;
};

}  // namespace sncube
