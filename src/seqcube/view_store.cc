#include "seqcube/view_store.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <utility>

#include "common/crc32c.h"
#include "common/status.h"
#include "io/checked_file.h"
#include "seqcube/view_frame.h"

namespace sncube {
namespace {

constexpr const char* kManifestName = "MANIFEST";
constexpr int kFormat = 4;
// A later epoch's frames fill segment files in mask order; the next frame
// starts a new segment when it would take one past this size. Segments
// stay near the size of a view file, so a refresh creates a few files
// instead of one per view, and no single file is much larger than the
// build's largest view file.
constexpr std::uint64_t kSegmentBytes = 256 << 10;

[[noreturn]] void Corrupt(const std::string& what) {
  throw SncubeCorruptionError("MANIFEST: " + what);
}

// Parses all of `text` as a number; false on empty input, a sign the type
// does not allow, overflow or trailing characters.
template <typename T>
bool ParseNumber(std::string_view text, T* out, int base = 10) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out, base);
  return !text.empty() && ec == std::errc() && ptr == end;
}

// The fields of a record, split at every space (so a doubled space gives an
// empty field, which no field grammar accepts).
std::vector<std::string_view> Fields(std::string_view line) {
  std::vector<std::string_view> fields;
  for (std::size_t start = 0;;) {
    const auto sp = line.find(' ', start);
    fields.push_back(line.substr(start, sp - start));
    if (sp == std::string_view::npos) return fields;
    start = sp + 1;
  }
}

// The file that holds an entry's frame: its own file at epoch 0, a
// segment of its epoch later.
std::string FileOf(const ViewEntry& entry) {
  char name[64];
  if (entry.epoch == 0) {
    std::snprintf(name, sizeof(name), "v%05x.e0.sncv", entry.id.mask());
  } else {
    std::snprintf(name, sizeof(name), "e%llu.%llu.sncv",
                  static_cast<unsigned long long>(entry.epoch),
                  static_cast<unsigned long long>(entry.segment));
  }
  return name;
}

// Places a later epoch's next frame of `bytes` bytes: its segment and
// offset, after the frames `last` ended with (all zero for the first).
void PlaceInSegment(const ViewEntry* last, ViewEntry& entry) {
  if (last == nullptr) return;
  entry.segment = last->segment;
  entry.offset = last->offset + last->bytes;
  if (entry.offset > 0 && entry.offset + entry.bytes > kSegmentBytes) {
    ++entry.segment;
    entry.offset = 0;
  }
}

// A regular file of a store named "v<mask-hex>.e0.sncv" or
// "e<epoch>.<segment>.sncv", or that name plus a set-aside suffix (then
// not live).
struct ViewFile {
  std::filesystem::path path;
  std::uint64_t epoch = 0;
  bool live = false;
};

std::vector<ViewFile> ListViewFiles(const std::filesystem::path& dir) {
  std::vector<ViewFile> files;
  std::error_code ec;
  for (const auto& file : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = file.path().filename().string();
    const auto first = name.find('.');
    const auto ext = name.find(".sncv", first);
    if (!file.is_regular_file() || ext == std::string::npos || ext == first) {
      continue;
    }
    // The two dot-separated fields before ".sncv".
    const std::string_view a = std::string_view(name).substr(0, first);
    const std::string_view b =
        std::string_view(name).substr(first + 1, ext - first - 1);
    std::uint32_t mask = 0;
    std::uint64_t segment = 0;
    ViewFile view{file.path(), 0, ext + 5 == name.size()};
    const bool own = a.size() > 1 && a[0] == 'v' &&
                     ParseNumber(a.substr(1), &mask, 16) && b == "e0";
    const bool seg = a.size() > 1 && a[0] == 'e' &&
                     ParseNumber(a.substr(1), &view.epoch) &&
                     ParseNumber(b, &segment);
    if (own || seg) files.push_back(std::move(view));
  }
  return files;
}

std::string SchemaRecord(const Schema& schema) {
  std::string text = "schema " + std::to_string(kFormat) + ' ' +
                     std::to_string(schema.dims());
  for (int i = 0; i < schema.dims(); ++i) {
    SNCUBE_CHECK_MSG(!schema.name(i).empty() &&
                         schema.name(i).find_first_of(" \n") ==
                             std::string::npos,
                     "dimension names must be non-empty and unspaced");
    text += ' ' + schema.name(i) + ' ' + std::to_string(schema.cardinality(i));
  }
  return text;
}

Schema ParseSchema(const std::vector<std::string_view>& f) {
  int format = 0;
  int d = 0;
  if (f.size() < 3 || f[0] != "schema" || !ParseNumber(f[1], &format)) {
    Corrupt("the first record is not a schema record");
  }
  if (format != kFormat) Corrupt("unsupported format " + std::string(f[1]));
  if (!ParseNumber(f[2], &d) || d < 1 || d > ViewId::kMaxDims) {
    Corrupt("dimension count " + std::string(f[2]) + " out of range");
  }
  if (f.size() != 3 + 2 * static_cast<std::size_t>(d)) {
    Corrupt("the schema record does not list " + std::to_string(d) +
            " dimensions");
  }
  std::vector<std::string> names;
  std::vector<std::uint32_t> cards;
  for (std::size_t i = 3; i < f.size(); i += 2) {
    std::uint32_t card = 0;
    if (f[i].empty() || !ParseNumber(f[i + 1], &card) || card < 1 ||
        (!cards.empty() && card > cards.back())) {
      Corrupt("bad dimension " + std::to_string(names.size()));
    }
    // Queries name dimensions, so a repeated name would make them ambiguous.
    if (std::find(names.begin(), names.end(), f[i]) != names.end()) {
      Corrupt("duplicate dimension name \"" + std::string(f[i]) + "\"");
    }
    names.emplace_back(f[i]);
    cards.push_back(card);
  }
  return Schema(cards, names);
}

// One record after the schema record.
struct Record {
  enum Kind { kPrepare, kCommitShard, kCommit } kind = kCommit;
  std::uint64_t epoch = 0;
  std::vector<ViewEntry> views;  // kPrepare only
};

// A record of a store with `d` dimensions, or nullopt when it does not
// parse: an unknown tag, a bad number, a mask outside the schema or masks
// out of order.
std::optional<Record> ParseRecord(const std::vector<std::string_view>& f,
                                  int d) {
  Record rec;
  if (f.size() < 2 || !ParseNumber(f[1], &rec.epoch)) return std::nullopt;
  if (f[0] == "prepare") {
    rec.kind = Record::kPrepare;
    for (std::size_t i = 2; i < f.size(); ++i) {
      const auto colon = f[i].find(':');
      const auto second = f[i].find(':', colon + 1);
      std::uint32_t mask = 0;
      ViewEntry entry;
      entry.epoch = rec.epoch;
      if (second == std::string_view::npos ||
          !ParseNumber(f[i].substr(0, colon), &mask, 16) || (mask >> d) != 0 ||
          !ParseNumber(f[i].substr(colon + 1, second - colon - 1),
                       &entry.rows) ||
          !ParseNumber(f[i].substr(second + 1), &entry.bytes)) {
        return std::nullopt;
      }
      entry.id = ViewId(mask);
      if (!rec.views.empty() && !(rec.views.back().id < entry.id)) {
        return std::nullopt;
      }
      if (rec.epoch != 0) {
        PlaceInSegment(rec.views.empty() ? nullptr : &rec.views.back(), entry);
      }
      rec.views.push_back(entry);
    }
    return rec;
  }
  int shard = 0;
  if (f[0] == "commitshard" && f.size() == 3 && ParseNumber(f[2], &shard)) {
    rec.kind = Record::kCommitShard;
    return rec;
  }
  if (f[0] == "commit" && f.size() == 2) return rec;
  return std::nullopt;
}

// A MANIFEST's durable prefix.
struct ManifestLog {
  bool exists = false;
  std::optional<Schema> schema;
  std::string error;  // why there is no schema, when the file exists
  std::vector<Record> records;
  std::uintmax_t durable_bytes = 0;
};

ManifestLog ReadLog(const std::filesystem::path& dir) {
  ManifestLog log;
  std::ifstream in(dir / kManifestName, std::ios::binary);
  if (!in.good()) return log;
  log.exists = true;
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  int d = 0;
  for (std::size_t pos = 0;;) {
    const auto nl = text.find('\n', pos);
    if (nl == std::string::npos) break;
    const auto line = VerifySealedLine(text.substr(pos, nl - pos));
    if (!line.has_value()) break;
    const auto fields = Fields(*line);
    if (!log.schema.has_value()) {
      try {
        log.schema = ParseSchema(fields);
      } catch (const SncubeCorruptionError& e) {
        log.error = e.what();
        break;
      }
      d = log.schema->dims();
    } else {
      auto rec = ParseRecord(fields, d);
      if (!rec.has_value()) break;
      log.records.push_back(std::move(*rec));
    }
    pos = nl + 1;
    log.durable_bytes = pos;
  }
  if (!log.schema.has_value() && log.error.empty()) {
    log.error = "MANIFEST: no intact schema record";
  }
  return log;
}

// The committed epochs of a durable prefix in record order, each with the
// index of the last `prepare` before its `commit`.
std::vector<Record> Committed(const std::vector<Record>& records) {
  std::map<std::uint64_t, const Record*> prepared;
  std::vector<Record> committed;
  for (const Record& rec : records) {
    if (rec.kind == Record::kPrepare) prepared[rec.epoch] = &rec;
    if (rec.kind != Record::kCommit) continue;
    const auto it = prepared.find(rec.epoch);
    if (it != prepared.end()) committed.push_back(*it->second);
  }
  return committed;
}

}  // namespace

ViewStore::ViewStore(std::filesystem::path dir, DiskModel* disk)
    : dir_(std::move(dir)), disk_(disk) {}

template <typename Op>
void ViewStore::WithDisk(const char* what, Op&& op) const {
  DiskModel scratch;
  DiskModel& disk = disk_ != nullptr ? *disk_ : scratch;
  for (int attempt = 0;; ++attempt) {
    try {
      op(disk);
      return;
    } catch (const SncubeTransientIoError& e) {
      if (attempt >= kMaxIoRetries) {
        throw SncubeIoError(std::string(what) +
                            ": transient I/O error persisted after " +
                            std::to_string(kMaxIoRetries) +
                            " retries: " + e.what());
      }
    }
  }
}

CubeManifest ViewStore::LoadManifest() const {
  const ManifestLog log = ReadLog(dir_);
  if (!log.exists) {
    if (std::filesystem::exists(dir_ / "manifest.txt")) {
      throw SncubeCorruptionError(
          "manifest.txt: the text index of an older format, before the "
          "epoch store; rebuild the cube directory with `sncube build`");
    }
    throw SncubeIoError("missing manifest: " + (dir_ / kManifestName).string());
  }
  if (!log.schema.has_value()) throw SncubeCorruptionError(log.error);
  const std::vector<Record> committed = Committed(log.records);
  if (committed.empty()) {
    throw SncubeIoError("MANIFEST commits no epoch: " +
                        (dir_ / kManifestName).string());
  }
  return {*log.schema, committed.back().epoch, committed.back().views};
}

void ViewStore::SaveCube(const CubeResult& cube, const Schema& schema) const {
  Writer writer(*this, schema);
  for (const auto& [id, view] : cube.views) {
    if (view.selected) writer.Write(view);
  }
  writer.Commit();
}

ByteBuffer ViewStore::ReadFrame(const ViewEntry& entry) const {
  const std::string name = FileOf(entry);
  ByteBuffer frame;
  FrameHeader header;
  try {
    WithDisk("view read", [&](DiskModel& disk) {
      frame = ReadSealedRange(dir_ / name, entry.offset, entry.bytes, disk);
    });
    header = FrameCursor(frame).header();
  } catch (const SncubeCorruptionError& e) {
    throw SncubeCorruptionError(name + ": " + e.what());
  }
  if (header.id != entry.id) {
    throw SncubeCorruptionError(name + " holds a different view");
  }
  if (header.epoch != entry.epoch) {
    throw SncubeCorruptionError(name + " holds a frame of epoch " +
                                std::to_string(header.epoch));
  }
  if (header.rows != entry.rows) {
    throw SncubeCorruptionError(name + " holds " +
                                std::to_string(header.rows) +
                                " rows; the MANIFEST says " +
                                std::to_string(entry.rows));
  }
  return frame;
}

ViewResult ViewStore::Load(const ViewEntry& entry) const {
  const ByteBuffer frame = ReadFrame(entry);
  try {
    return DecodeViewFrame(frame).view;
  } catch (const SncubeCorruptionError& e) {
    throw SncubeCorruptionError(FileOf(entry) + ": " + e.what());
  }
}

std::string ViewStore::FileName(const ViewEntry& entry) {
  return FileOf(entry);
}

CubeResult ViewStore::LoadCube() const {
  CubeResult cube;
  for (const ViewEntry& entry : LoadManifest().views) {
    cube.views.emplace(entry.id, Load(entry));
  }
  return cube;
}

std::optional<ViewEntry> ViewStore::VerifyBuildFile(ViewId id) const {
  ViewEntry entry{id, 0, 0};
  try {
    ByteBuffer frame;
    WithDisk("view read", [&](DiskModel& disk) {
      frame = ReadSealedFile(dir_ / FileOf(entry), disk);
    });
    const FrameHeader header = FrameCursor(frame).header();
    if (header.id != id || header.epoch != 0) return std::nullopt;
    entry.rows = header.rows;
    entry.bytes = frame.size() + kFrameTrailerBytes;
  } catch (const SncubeIoError&) {
    return std::nullopt;  // missing or unreadable
  } catch (const SncubeCorruptionError&) {
    return std::nullopt;
  }
  return entry;
}

void ViewStore::Clear(std::span<const ViewEntry> keep) const {
  std::filesystem::create_directories(dir_);
  std::filesystem::remove(dir_ / kManifestName);
  std::filesystem::remove(dir_ / kBuildInputName);
  std::set<std::string> kept;
  for (const ViewEntry& entry : keep) kept.insert(FileOf(entry));
  for (const ViewFile& file : ListViewFiles(dir_)) {
    if (kept.count(file.path.filename().string()) == 0) {
      std::filesystem::remove(file.path);
    }
  }
}

void ViewStore::RemoveEpochsBelow(std::uint64_t epoch) const {
  for (const ViewFile& file : ListViewFiles(dir_)) {
    if (file.live && file.epoch < epoch) std::filesystem::remove(file.path);
  }
}

RecoveredEpoch ViewStore::Recover() const {
  RecoveredEpoch out;
  const ManifestLog log = ReadLog(dir_);
  const std::vector<Record> committed = Committed(log.records);
  const auto set_aside = [&](const std::filesystem::path& path,
                             const char* suffix) {
    std::error_code ec;
    const std::string target = path.string() + suffix;
    std::filesystem::rename(path, target, ec);
    if (!ec) out.set_aside.push_back(target);
  };

  // The newest committed epoch whose files all verify; a damaged file is
  // set aside and recovery falls back to the next older commit.
  for (auto it = committed.rbegin(); it != committed.rend(); ++it) {
    CubeResult cube;
    bool intact = true;
    for (const ViewEntry& entry : it->views) {
      try {
        cube.views.emplace(entry.id, Load(entry));
      } catch (const SncubeCorruptionError&) {
        intact = false;
        set_aside(dir_ / FileOf(entry), ".corrupt");
      } catch (const SncubeIoError&) {
        intact = false;  // missing: the MANIFEST records it
      }
    }
    if (intact) {
      out.has_cube = true;
      out.epoch = it->epoch;
      out.cube = std::move(cube);
      break;
    }
  }

  // Every file of an epoch no commit record names: a crash before the
  // commit, or records torn off the MANIFEST's tail.
  std::set<std::uint64_t> live;
  for (const Record& rec : committed) live.insert(rec.epoch);
  for (const ViewFile& file : ListViewFiles(dir_)) {
    if (file.live && live.count(file.epoch) == 0) {
      set_aside(file.path, ".quarantine");
    }
  }
  return out;
}

ViewStore::Writer::Writer(const ViewStore& store, Schema schema,
                          std::uint64_t epoch)
    : store_(store), schema_(std::move(schema)), epoch_(epoch) {
  if (epoch_ == 0) {
    store_.Clear();
    return;
  }
  std::filesystem::create_directories(store_.dir_);
  const ManifestLog log = ReadLog(store_.dir_);
  for (const Record& rec : Committed(log.records)) {
    SNCUBE_CHECK_MSG(rec.epoch < epoch_,
                     "epoch " + std::to_string(epoch_) +
                         " is not newer than the store's committed epoch " +
                         std::to_string(rec.epoch));
  }
  manifest_bytes_ = log.durable_bytes;
  // Segments of this epoch no commit names (a killed attempt) would put
  // garbage before the frames this writer appends.
  for (const ViewFile& file : ListViewFiles(store_.dir_)) {
    if (file.live && file.epoch == epoch_) std::filesystem::remove(file.path);
  }
}

ViewStore::Writer::Writer(const ViewStore& store, Schema schema,
                          std::vector<ViewEntry> kept)
    : store_(store),
      schema_(std::move(schema)),
      epoch_(0),
      views_(std::move(kept)) {
  for (const ViewEntry& entry : views_) SNCUBE_CHECK(entry.epoch == 0);
  store_.Clear(views_);
}

ViewStore::Writer::~Writer() {
  if (done_) return;
  // A destructor cannot throw: what cannot be removed stays, and no record
  // names it.
  std::error_code ec;
  const auto manifest = store_.dir_ / kManifestName;
  if (appended_ && manifest_bytes_ == 0) std::filesystem::remove(manifest, ec);
  if (appended_ && manifest_bytes_ > 0) {
    std::filesystem::resize_file(manifest, manifest_bytes_, ec);
  }
  for (const ViewEntry& entry : views_) {
    std::filesystem::remove(store_.dir_ / FileOf(entry), ec);
  }
}

void ViewStore::Writer::Write(const ViewResult& view) {
  WriteFrame(EncodeViewFrame(view, epoch_));
}

void ViewStore::Writer::Write(ViewId id, const std::vector<int>& order,
                              std::span<const Relation* const> parts) {
  WriteFrame(EncodeViewFrame(id, order, /*selected=*/true, epoch_, parts));
}

ViewEntry ViewStore::Writer::WriteFrame(std::span<const std::byte> frame) {
  const FrameCursor cursor(frame);
  const FrameHeader& header = cursor.header();
  const ViewId id = header.id;
  SNCUBE_CHECK_MSG(header.epoch == epoch_, "a frame of another epoch");
  SNCUBE_CHECK_MSG(!prepared_, "view written after its epoch's prepare");
  SNCUBE_CHECK_MSG(epoch_ == 0 || views_.empty() || views_.back().id < id,
                   "a segment takes its views in ascending mask order");
  ViewEntry entry{id, header.rows, epoch_};
  entry.bytes = frame.size() + kFrameTrailerBytes;
  if (epoch_ != 0) {
    PlaceInSegment(views_.empty() ? nullptr : &views_.back(), entry);
  }
  // Recorded first, so a drop removes a file whose write failed midway.
  views_.push_back(entry);
  const auto path = store_.dir_ / FileOf(entry);
  store_.WithDisk("view write", [&](DiskModel& disk) {
    const std::uint64_t sealed = epoch_ == 0
                                     ? WriteSealedFile(path, frame, disk)
                                     : AppendSealedFrame(path, frame, disk);
    SNCUBE_CHECK(sealed == entry.bytes);
  });
  return entry;
}

void ViewStore::Writer::Append(const std::string& record) {
  const auto manifest = store_.dir_ / kManifestName;
  if (!appended_) {
    appended_ = true;
    if (std::filesystem::exists(manifest)) {
      std::filesystem::resize_file(manifest, manifest_bytes_);
    }
    if (manifest_bytes_ == 0) {
      store_.WithDisk("manifest append", [&](DiskModel& disk) {
        AppendSealedLine(manifest, SchemaRecord(schema_), disk);
      });
    }
  }
  store_.WithDisk("manifest append", [&](DiskModel& disk) {
    AppendSealedLine(manifest, record, disk);
  });
}

void ViewStore::Writer::Prepare() {
  SNCUBE_CHECK_MSG(!prepared_, "epoch prepared twice");
  std::sort(views_.begin(), views_.end(),
            [](const ViewEntry& a, const ViewEntry& b) { return a.id < b.id; });
  std::string record = "prepare " + std::to_string(epoch_);
  for (std::size_t i = 0; i < views_.size(); ++i) {
    SNCUBE_CHECK_MSG(i == 0 || views_[i - 1].id < views_[i].id,
                     "view written twice");
    char entry[64];
    std::snprintf(entry, sizeof(entry), " %x:%llu:%llu", views_[i].id.mask(),
                  static_cast<unsigned long long>(views_[i].rows),
                  static_cast<unsigned long long>(views_[i].bytes));
    record += entry;
  }
  prepared_ = true;
  Append(record);
}

void ViewStore::Writer::CommitShard(int shard) {
  SNCUBE_CHECK_MSG(prepared_, "commitshard before prepare");
  Append("commitshard " + std::to_string(epoch_) + ' ' +
         std::to_string(shard));
}

void ViewStore::Writer::Commit() {
  if (!prepared_) Prepare();
  Append("commit " + std::to_string(epoch_));
  done_ = true;
}

}  // namespace sncube
