#include "seqcube/view_store.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "common/status.h"
#include "net/wire.h"
#include "relation/serialize.h"

namespace sncube {
namespace {

constexpr std::uint32_t kMagic = 0x534E4356;  // "SNCV"
constexpr std::uint32_t kVersion = 1;
constexpr const char* kManifestName = "manifest.txt";
constexpr int kManifestVersion = 2;
// A full 20-dimension index is ~1M lines of under 30 bytes; anything much
// larger is not a manifest this store wrote.
constexpr std::uintmax_t kMaxManifestBytes = 64u << 20;
// Rows serialized per write, so a view file is written without a second
// in-memory copy of the view.
constexpr std::size_t kWriteChunkRows = 1 << 16;

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
  if (version == 1) {
    Corrupt("format 1 has no view index; rebuild the cube directory with "
            "`sncube build`");
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

// Writes one view file whose rows are the concatenation of `parts`; returns
// its row count.
std::uint64_t WriteViewFile(const std::filesystem::path& path, ViewId id,
                            const std::vector<int>& order,
                            std::span<const Relation* const> parts) {
  std::uint64_t rows = 0;
  for (const Relation* rel : parts) rows += rel->size();
  ByteBuffer buf;
  WirePut(buf, kMagic);
  WirePut(buf, kVersion);
  WirePut(buf, id.mask());
  WirePut(buf, static_cast<std::uint32_t>(id.dim_count()));
  WirePutVector(buf, std::vector<std::uint8_t>(order.begin(), order.end()));
  WirePut(buf, rows);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  SNCUBE_CHECK_MSG(out.good(), "cannot open view file for writing");
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  for (const Relation* rel : parts) {
    SNCUBE_CHECK(rel->width() == id.dim_count());
    for (std::size_t begin = 0; begin < rel->size(); begin += kWriteChunkRows) {
      buf.clear();
      SerializeRows(*rel, begin, std::min(rel->size(), begin + kWriteChunkRows),
                    buf);
      out.write(reinterpret_cast<const char*>(buf.data()),
                static_cast<std::streamsize>(buf.size()));
    }
  }
  SNCUBE_CHECK_MSG(out.good(), "short write to view file");
  return rows;
}

}  // namespace

ViewStore::ViewStore(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
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
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    SNCUBE_CHECK_MSG(out.good(), "cannot write manifest");
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    SNCUBE_CHECK_MSG(out.good(), "short write to manifest");
  }
  std::filesystem::rename(tmp, path);
}

void ViewStore::RemoveManifest() const {
  std::filesystem::remove(dir_ / kManifestName);
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

void ViewStore::Save(const ViewResult& view) const {
  const Relation* part = &view.rel;
  WriteViewFile(PathFor(view.id), view.id, view.order, {&part, 1});
}

void ViewStore::SaveCubeParts(std::span<const CubeResult> parts,
                              const Schema& schema) const {
  SNCUBE_CHECK(!parts.empty());
  RemoveManifest();
  CubeManifest manifest{schema, IndexOf(parts[0])};
  std::vector<const Relation*> rels(parts.size());
  for (ViewEntry& entry : manifest.views) {
    const ViewResult& first = parts[0].views.at(entry.id);
    for (std::size_t r = 0; r < parts.size(); ++r) {
      const auto it = parts[r].views.find(entry.id);
      SNCUBE_CHECK_MSG(it != parts[r].views.end() && it->second.selected &&
                           it->second.order == first.order,
                       "cube parts disagree on a view");
      rels[r] = &it->second.rel;
    }
    entry.rows = WriteViewFile(PathFor(entry.id), entry.id, first.order, rels);
  }
  SaveManifest(manifest);
}

void ViewStore::SaveCube(const CubeResult& cube, const Schema& schema) const {
  SaveCubeParts({&cube, 1}, schema);
}

ViewResult ViewStore::Load(const ViewEntry& entry) const {
  const ViewId id = entry.id;
  std::ifstream in(PathFor(id), std::ios::binary);
  if (!in.good()) {
    throw SncubeIoError("view file missing: " + PathFor(id).string());
  }
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  ByteBuffer bytes(size);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(size));
  if (in.gcount() != static_cast<std::streamsize>(size)) {
    throw SncubeIoError("short read from view file");
  }

  WireReader reader(bytes);
  if (reader.Get<std::uint32_t>() != kMagic) {
    throw SncubeCorruptionError("bad view magic");
  }
  if (reader.Get<std::uint32_t>() != kVersion) {
    throw SncubeCorruptionError("unsupported view version");
  }
  ViewResult vr;
  vr.id = ViewId(reader.Get<std::uint32_t>());
  if (vr.id != id) {
    throw SncubeCorruptionError("view file holds a different view");
  }
  const auto width = reader.Get<std::uint32_t>();
  if (width != static_cast<std::uint32_t>(id.dim_count())) {
    throw SncubeCorruptionError("view width disagrees with its mask");
  }
  const auto order = reader.GetVector<std::uint8_t>();
  vr.order.assign(order.begin(), order.end());
  const auto rows = reader.Get<std::uint64_t>();
  if (rows != entry.rows) {
    throw SncubeCorruptionError(
        PathFor(id).filename().string() + " holds " + std::to_string(rows) +
        " rows; the manifest says " + std::to_string(entry.rows));
  }
  vr.rel = Relation(static_cast<int>(width));
  // rows is untrusted: bound it by the remaining payload before the
  // rows * RowBytes() multiplication below can wrap.
  if (rows > reader.remaining() / vr.rel.RowBytes()) {
    throw SncubeCorruptionError("view row count exceeds file payload");
  }
  DeserializeRows(reader.GetBytes(rows * vr.rel.RowBytes()), vr.rel);
  if (!reader.AtEnd()) {
    throw SncubeCorruptionError("trailing bytes in view file");
  }
  return vr;
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
