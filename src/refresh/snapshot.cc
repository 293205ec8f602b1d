#include "refresh/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/status.h"
#include "io/checked_file.h"
#include "seqcube/view_frame.h"

namespace sncube {
namespace {

// Decodes one epoch view frame and checks it is the view and epoch its
// path names.
ViewResult DecodeEpochView(const ByteBuffer& bytes, std::uint64_t epoch,
                           ViewId expect_id) {
  ViewFrame frame = DecodeViewFrame(bytes);
  if (frame.epoch != epoch) {
    throw SncubeCorruptionError("snapshot view: wrong epoch");
  }
  if (frame.view.id != expect_id) {
    throw SncubeCorruptionError("snapshot view: mask disagrees with name");
  }
  return std::move(frame.view);
}

// Exact match for "epoch_<digits>" directory names; quarantined dirs
// ("….quarantine") and stray files don't parse.
bool ParseEpochDirName(const std::string& name, std::uint64_t* epoch) {
  constexpr const char kPrefix[] = "epoch_";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.rfind(kPrefix, 0) != 0) return false;
  const std::string digits = name.substr(kPrefixLen);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *epoch = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

// One parsed manifest record from the durable prefix.
struct ManifestRecord {
  enum Kind { kPrepare, kCommitShard, kCommit } kind;
  std::uint64_t epoch = 0;
  std::vector<std::uint32_t> masks;  // kPrepare only
  int shard = 0;                     // kCommitShard only
};

}  // namespace

SnapshotStore::SnapshotStore(std::string dir, DiskModel& disk)
    : dir_(std::move(dir)), disk_(disk) {
  SNCUBE_CHECK_MSG(!dir_.empty(), "snapshot store needs a directory");
  std::filesystem::create_directories(dir_);
}

template <typename Fn>
void SnapshotStore::WithRetry(const char* what, Fn&& op) {
  for (int attempt = 0;; ++attempt) {
    try {
      op();
      return;
    } catch (const SncubeTransientIoError& e) {
      if (attempt >= max_io_retries_) {
        throw SncubeIoError(std::string("snapshot ") + what +
                            ": transient I/O error persisted after " +
                            std::to_string(max_io_retries_) +
                            " retries: " + e.what());
      }
    }
  }
}

std::filesystem::path SnapshotStore::EpochDir(std::uint64_t epoch) const {
  return dir_ / ("epoch_" + std::to_string(epoch));
}

std::filesystem::path SnapshotStore::ViewPath(std::uint64_t epoch,
                                              ViewId id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "v%05x.snap", id.mask());
  return EpochDir(epoch) / name;
}

void SnapshotStore::AppendRecord(const std::string& text) {
  WithRetry("manifest append",
            [&] { AppendSealedLine(ManifestPath(), text, disk_); });
}

void SnapshotStore::WriteEpoch(std::uint64_t epoch, const CubeResult& cube,
                               const std::function<void()>& mid_write) {
  std::vector<std::uint32_t> masks;
  // Ordered map walk: file write order is ascending-mask deterministic.
  for (const auto& [id, vr] : cube.views) {
    WriteEpochView(epoch, vr);
    masks.push_back(id.mask());
    if (masks.size() == 1 && mid_write) mid_write();
  }
  AppendPrepare(epoch, std::move(masks));
}

void SnapshotStore::WriteEpochView(std::uint64_t epoch, const ViewResult& vr) {
  std::filesystem::create_directories(EpochDir(epoch));
  const ByteBuffer bytes = EncodeViewFrame(vr, epoch);
  // Charge + persist inside the retry: a transient failure happens before
  // any bytes land, so a retry rewrites the file from scratch.
  WithRetry("view write",
            [&] { WriteSealedFile(ViewPath(epoch, vr.id), bytes, disk_); });
}

void SnapshotStore::AppendPrepare(std::uint64_t epoch,
                                  std::vector<std::uint32_t> masks) {
  std::sort(masks.begin(), masks.end());
  std::ostringstream line;
  line << "prepare " << epoch;
  for (std::uint32_t m : masks) line << ' ' << m;
  AppendRecord(line.str());
}

void SnapshotStore::AppendCommitShard(std::uint64_t epoch, int shard) {
  AppendRecord("commitshard " + std::to_string(epoch) + ' ' +
               std::to_string(shard));
}

void SnapshotStore::AppendCommit(std::uint64_t epoch) {
  AppendRecord("commit " + std::to_string(epoch));
}

void SnapshotStore::RemoveEpochDirsBelow(std::uint64_t epoch) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    std::uint64_t e = 0;
    if (!ParseEpochDirName(entry.path().filename().string(), &e)) continue;
    if (e < epoch) std::filesystem::remove_all(entry.path(), ec);
  }
}

CubeResult SnapshotStore::LoadEpoch(std::uint64_t epoch) {
  // The prepare record names exactly the view files the epoch consists of;
  // trusting a directory listing instead would resurrect torn writes.
  std::ifstream in(ManifestPath());
  std::vector<std::uint32_t> masks;
  bool found = false;
  std::string raw;
  while (in.good() && std::getline(in, raw)) {
    const auto text = VerifySealedLine(raw);
    if (!text.has_value()) break;
    std::istringstream ls(*text);
    std::string tag;
    std::uint64_t e = 0;
    if (!(ls >> tag >> e)) break;
    if (tag == "prepare" && e == epoch) {
      masks.clear();
      std::uint32_t mask = 0;
      while (ls >> mask) masks.push_back(mask);
      found = true;
    }
  }
  if (!found || masks.empty()) {
    throw SncubeIoError("snapshot: epoch " + std::to_string(epoch) +
                        " has no durable prepare record");
  }
  CubeResult cube;
  for (std::uint32_t mask : masks) {
    const ViewId id(mask);
    ByteBuffer bytes;
    WithRetry("view read",
              [&] { bytes = ReadSealedFile(ViewPath(epoch, id), disk_); });
    cube.views.emplace(id, DecodeEpochView(bytes, epoch, id));
  }
  return cube;
}

RecoveredSnapshot SnapshotStore::Recover() {
  RecoveredSnapshot out;

  // 1. The manifest's durable prefix: first unverifiable or unparsable line
  //    ends it, exactly like the checkpoint manifest.
  std::vector<ManifestRecord> records;
  {
    std::ifstream in(ManifestPath());
    std::string raw;
    while (in.good() && std::getline(in, raw)) {
      const auto text = VerifySealedLine(raw);
      if (!text.has_value()) break;
      std::istringstream ls(*text);
      ManifestRecord rec;
      std::string tag;
      if (!(ls >> tag >> rec.epoch)) break;
      if (tag == "prepare") {
        rec.kind = ManifestRecord::kPrepare;
        std::uint32_t mask = 0;
        while (ls >> mask) rec.masks.push_back(mask);
        if (rec.masks.empty()) break;
      } else if (tag == "commitshard") {
        rec.kind = ManifestRecord::kCommitShard;
        if (!(ls >> rec.shard)) break;
      } else if (tag == "commit") {
        rec.kind = ManifestRecord::kCommit;
      } else {
        break;
      }
      records.push_back(std::move(rec));
    }
  }

  // 2. Reduce: an epoch is committed only when its commit record follows a
  //    prepare record for it inside the durable prefix.
  std::set<std::uint64_t> prepared;
  std::vector<std::uint64_t> committed;  // in record order (ascending swaps)
  for (const auto& rec : records) {
    if (rec.kind == ManifestRecord::kPrepare) prepared.insert(rec.epoch);
    if (rec.kind == ManifestRecord::kCommit &&
        prepared.count(rec.epoch) != 0) {
      committed.push_back(rec.epoch);
    }
  }

  // 3. Newest committed epoch whose files all verify wins; a damaged one is
  //    quarantined file-by-file and recovery falls back to the next older.
  for (auto it = committed.rbegin(); it != committed.rend(); ++it) {
    try {
      out.cube = LoadEpoch(*it);
      out.epoch = *it;
      out.has_cube = true;
      break;
    } catch (const SncubeCorruptionError&) {
      // Quarantine every damaged frame of this epoch so nothing half-reads
      // it later, then try the predecessor.
      for (const auto& rec : records) {
        if (rec.kind != ManifestRecord::kPrepare || rec.epoch != *it) continue;
        for (std::uint32_t mask : rec.masks) {
          const auto path = ViewPath(*it, ViewId(mask));
          ByteBuffer bytes;
          try {
            WithRetry("view verify",
                      [&] { bytes = ReadSealedFile(path, disk_); });
            DecodeEpochView(bytes, *it, ViewId(mask));
          } catch (const SncubeCorruptionError&) {
            std::error_code ec;
            const auto target = path.string() + ".corrupt";
            std::filesystem::rename(path, target, ec);
            if (!ec) out.quarantined.push_back(target);
          } catch (const SncubeIoError&) {
            // Missing file: nothing to quarantine, the manifest records it.
          }
        }
      }
    } catch (const SncubeIoError&) {
      // Missing files or record: fall back to the next older commit.
    }
  }

  // 4. Quarantine half-installed epoch directories: on disk but never
  //    committed inside the durable prefix (crash mid-prepare or mid-commit,
  //    or records torn off the manifest tail).
  const std::set<std::uint64_t> committed_set(committed.begin(),
                                              committed.end());
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    std::uint64_t e = 0;
    if (!ParseEpochDirName(entry.path().filename().string(), &e)) continue;
    if (committed_set.count(e) != 0) continue;
    const auto target = entry.path().string() + ".quarantine";
    std::filesystem::rename(entry.path(), target, ec);
    if (!ec) out.quarantined.push_back(target);
  }
  return out;
}

}  // namespace sncube
