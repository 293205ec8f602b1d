#include "seqcube/view_store.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "common/status.h"
#include "io/checked_file.h"
#include "seqcube/view_frame.h"

namespace sncube {
namespace {

constexpr const char* kManifestName = "manifest.txt";
constexpr int kManifestVersion = 3;
// A full 20-dimension index is ~1M lines of under 30 bytes; anything much
// larger is not a manifest this store wrote.
constexpr std::uintmax_t kMaxManifestBytes = 64u << 20;

[[noreturn]] void Corrupt(const std::string& what) {
  throw SncubeCorruptionError("manifest.txt: " + what);
}

// Parses all of `text` as a number; false on empty input, a sign the type
// does not allow, overflow or trailing characters.
template <typename T>
bool ParseNumber(std::string_view text, T* out, int base = 10) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out, base);
  return !text.empty() && ec == std::errc() && ptr == end;
}

// Line-at-a-time cursor over the manifest text; every line must end in '\n'.
class ManifestLines {
 public:
  explicit ManifestLines(std::string_view text) : rest_(text) {}

  std::string_view Next() {
    const auto nl = rest_.find('\n');
    if (nl == std::string_view::npos) Corrupt("truncated");
    const std::string_view line = rest_.substr(0, nl);
    rest_.remove_prefix(nl + 1);
    return line;
  }

  // Splits the next line into exactly two fields around one space.
  std::pair<std::string_view, std::string_view> NextPair() {
    const std::string_view line = Next();
    const auto sp = line.find(' ');
    if (sp == std::string_view::npos || sp == 0 ||
        line.find(' ', sp + 1) != std::string_view::npos) {
      Corrupt("malformed line \"" + std::string(line) + "\"");
    }
    return {line.substr(0, sp), line.substr(sp + 1)};
  }

  template <typename T>
  T NextNumber() {
    const std::string_view line = Next();
    T value{};
    if (!ParseNumber(line, &value)) {
      Corrupt("expected a number, got \"" + std::string(line) + "\"");
    }
    return value;
  }

  bool AtEnd() const { return rest_.empty(); }

 private:
  std::string_view rest_;
};

CubeManifest ParseManifest(std::string_view text) {
  ManifestLines lines(text);
  const auto [magic, version_text] = lines.NextPair();
  int version = 0;
  if (magic != "sncube-manifest" || !ParseNumber(version_text, &version)) {
    Corrupt("not an sncube manifest");
  }
  if (version == 1 || version == 2) {
    Corrupt("format " + std::string(version_text) +
            " predates the sealed view frames; rebuild the cube directory "
            "with `sncube build`");
  }
  if (version != kManifestVersion) {
    Corrupt("unsupported format " + std::string(version_text));
  }

  const int d = lines.NextNumber<int>();
  if (d < 1 || d > ViewId::kMaxDims) {
    Corrupt("dimension count " + std::to_string(d) + " out of range");
  }
  std::vector<std::string> names;
  std::vector<std::uint32_t> cards;
  for (int i = 0; i < d; ++i) {
    const auto [name, card_text] = lines.NextPair();
    std::uint32_t card = 0;
    if (!ParseNumber(card_text, &card) || card < 1 ||
        (!cards.empty() && card > cards.back())) {
      Corrupt("bad cardinality for dimension " + std::to_string(i));
    }
    // Queries name dimensions, so a repeated name would make them ambiguous.
    if (std::find(names.begin(), names.end(), name) != names.end()) {
      Corrupt("duplicate dimension name \"" + std::string(name) + "\"");
    }
    names.emplace_back(name);
    cards.push_back(card);
  }

  CubeManifest manifest;
  manifest.schema = Schema(cards, names);
  const auto count = lines.NextNumber<std::uint64_t>();
  if (count > (std::uint64_t{1} << d)) Corrupt("view count out of range");
  manifest.views.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto [name, rows_text] = lines.NextPair();
    std::uint32_t mask = 0;
    ViewEntry entry;
    if (name[0] != 'v' || !ParseNumber(name.substr(1), &mask, 16) ||
        !ParseNumber(rows_text, &entry.rows)) {
      Corrupt("malformed view entry \"" + std::string(name) + "\"");
    }
    if ((mask >> d) != 0) {
      Corrupt("view " + std::string(name) + " is outside the schema's " +
              std::to_string(d) + " dimensions");
    }
    entry.id = ViewId(mask);
    if (!manifest.views.empty() && !(manifest.views.back().id < entry.id)) {
      Corrupt("view " + std::string(name) + " is duplicate or out of order");
    }
    manifest.views.push_back(entry);
  }
  if (lines.Next() != "end" || !lines.AtEnd()) Corrupt("missing end line");
  return manifest;
}

// The checks a frame read through an index entry must pass beyond its own.
void CheckAgainstEntry(const std::string& name, ViewId id,
                       std::uint64_t epoch, std::uint64_t rows,
                       const ViewEntry& entry) {
  if (id != entry.id) {
    throw SncubeCorruptionError(name + " holds a different view");
  }
  if (epoch != 0) {
    throw SncubeCorruptionError(name + " is a snapshot frame of epoch " +
                                std::to_string(epoch));
  }
  if (rows != entry.rows) {
    throw SncubeCorruptionError(name + " holds " + std::to_string(rows) +
                                " rows; the manifest says " +
                                std::to_string(entry.rows));
  }
}

}  // namespace

ViewStore::ViewStore(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

ViewStore::Writer::Writer(const ViewStore& store, Schema schema)
    : store_(store), manifest_{std::move(schema), {}} {
  std::filesystem::remove(store_.dir_ / kManifestName);
}

void ViewStore::Writer::Write(const ViewResult& view) {
  if (!view.selected) return;
  const Relation* part = &view.rel;
  Write(view.id, view.order, {&part, 1});
}

void ViewStore::Writer::Write(ViewId id, const std::vector<int>& order,
                              std::span<const Relation* const> parts) {
  std::uint64_t rows = 0;
  for (const Relation* rel : parts) rows += rel->size();
  WriteSealedFile(store_.PathFor(id),
                  EncodeViewFrame(id, order, /*selected=*/true, /*epoch=*/0,
                                  parts),
                  disk_);
  manifest_.views.push_back({id, rows});
}

void ViewStore::Writer::Commit() {
  std::vector<ViewEntry>& views = manifest_.views;
  std::sort(views.begin(), views.end(),
            [](const ViewEntry& a, const ViewEntry& b) { return a.id < b.id; });
  for (std::size_t i = 1; i < views.size(); ++i) {
    SNCUBE_CHECK_MSG(views[i - 1].id < views[i].id, "view written twice");
  }
  store_.SaveManifest(manifest_);
}

std::filesystem::path ViewStore::PathFor(ViewId id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "v%05x.sncv", id.mask());
  return dir_ / name;
}

void ViewStore::SaveManifest(const CubeManifest& manifest) const {
  const Schema& schema = manifest.schema;
  std::string text = "sncube-manifest " + std::to_string(kManifestVersion) +
                     "\n" + std::to_string(schema.dims()) + "\n";
  for (int i = 0; i < schema.dims(); ++i) {
    SNCUBE_CHECK_MSG(!schema.name(i).empty() &&
                         schema.name(i).find_first_of(" \n") ==
                             std::string::npos,
                     "dimension names must be non-empty and unspaced");
    text += schema.name(i) + ' ' + std::to_string(schema.cardinality(i)) + '\n';
  }
  text += std::to_string(manifest.views.size()) + '\n';
  for (const ViewEntry& entry : manifest.views) {
    char line[48];
    std::snprintf(line, sizeof(line), "v%05x %llu\n", entry.id.mask(),
                  static_cast<unsigned long long>(entry.rows));
    text += line;
  }
  text += "end\n";

  const auto path = dir_ / kManifestName;
  auto tmp = path;
  tmp += ".tmp";
  {
    // sncheck:allow(raw-file-write): text index, to become a sealed manifest
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    SNCUBE_CHECK_MSG(out.good(), "cannot write manifest");
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    SNCUBE_CHECK_MSG(out.good(), "short write to manifest");
  }
  std::filesystem::rename(tmp, path);
}

CubeManifest ViewStore::LoadManifest() const {
  const auto path = dir_ / kManifestName;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw SncubeIoError("missing manifest: " + path.string());
  std::string text;
  char chunk[1 << 14];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
    if (text.size() > kMaxManifestBytes) Corrupt("too large");
  }
  return ParseManifest(text);
}

void ViewStore::SaveCubeParts(std::span<const CubeResult> parts,
                              const Schema& schema) const {
  SNCUBE_CHECK(!parts.empty());
  Writer writer(*this, schema);
  std::vector<const Relation*> rels(parts.size());
  for (const auto& [id, first] : parts[0].views) {
    if (!first.selected) continue;
    for (std::size_t r = 0; r < parts.size(); ++r) {
      const auto it = parts[r].views.find(id);
      SNCUBE_CHECK_MSG(it != parts[r].views.end() && it->second.selected &&
                           it->second.order == first.order,
                       "cube parts disagree on a view");
      rels[r] = &it->second.rel;
    }
    writer.Write(id, first.order, rels);
  }
  writer.Commit();
}

void ViewStore::SaveCube(const CubeResult& cube, const Schema& schema) const {
  SaveCubeParts({&cube, 1}, schema);
}

void ViewStore::Load(const ViewEntry& entry, ViewResult& view) const {
  const auto path = PathFor(entry.id);
  const std::string name = path.filename().string();
  DiskModel disk;
  ViewFrame frame{0, std::move(view)};
  try {
    DecodeViewFrame(ReadSealedFile(path, disk), frame);
  } catch (const SncubeCorruptionError& e) {
    throw SncubeCorruptionError(name + ": " + e.what());
  }
  view = std::move(frame.view);
  CheckAgainstEntry(name, view.id, frame.epoch, view.rel.size(), entry);
}

ViewResult ViewStore::Load(const ViewEntry& entry) const {
  ViewResult view;
  Load(entry, view);
  return view;
}

void ViewStore::Check(const ViewEntry& entry) const {
  const auto path = PathFor(entry.id);
  const std::string name = path.filename().string();
  DiskModel disk;
  ViewFrameHeader header;
  try {
    header = DecodeViewFrameHeader(ReadSealedFile(path, disk));
  } catch (const SncubeCorruptionError& e) {
    throw SncubeCorruptionError(name + ": " + e.what());
  }
  CheckAgainstEntry(name, header.id, header.epoch, header.rows, entry);
}

bool ViewStore::Contains(ViewId id) const {
  return std::filesystem::exists(PathFor(id));
}

CubeResult ViewStore::LoadCube() const {
  CubeResult cube;
  for (const ViewEntry& entry : LoadManifest().views) {
    cube.views.emplace(entry.id, Load(entry));
  }
  return cube;
}

}  // namespace sncube
