// hostbench_driver — the in-process half of the host-clock benchmark
// (hostbench/run.py drives it; the CLI half runs `sncube` as child
// processes). Every subcommand prints human-readable lines first and one
// JSON object as its last stdout line.
//
//   stamp   compiler, build type and std::thread::hardware_concurrency().
//   refs    reference answers for the check queries, computed here from the
//           fact CSVs with a deliberately independent parser and std::map
//           aggregation, so a library bug cannot hide in its own reference.
//   serve   one serving window of the online path: build the cube, roll
//           per-epoch goldens and start a ShardSet on one vCPU (set-up,
//           timed), then a closed loop of clients through Router::Execute
//           while a refresher thread swaps epochs in with
//           RefreshCoordinator. Every kOk answer must equal the golden of an
//           epoch that was serving during the request. Per-request latencies
//           go to --latency-out, so run.py can pool several windows.
//   trace   the per-layer run: calls each layer's public entry points in the
//           CLI's step order inside spans recorded with obs::TraceRecorder,
//           reads the layers' own counters, and writes a Chrome trace.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_util.h"
#include "core/parallel_cube.h"
#include "data/generator.h"
#include "exec/parallel_algo.h"
#include "exec/task_pool.h"
#include "lattice/lattice.h"
#include "net/cluster.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "refresh/delta.h"
#include "refresh/refresh.h"
#include "relation/csv.h"
#include "relation/sort.h"
#include "seqcube/seq_cube.h"
#include "seqcube/view_store.h"
#include "serve/metrics_bridge.h"
#include "serve/router.h"
#include "serve/shard_set.h"
#include "serve/wall_clock.h"
#include "serve/workload.h"

using namespace sncube;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kInf = std::numeric_limits<double>::infinity();

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- flags --

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) Fail("unexpected argument " + a);
      a = a.substr(2);
      if (a == "corrupt") {
        values_.emplace(a, "1");
      } else if (i + 1 < argc) {
        values_.emplace(a, argv[++i]);
      } else {
        Fail("missing value for --" + a);
      }
    }
  }
  [[noreturn]] static void Fail(const std::string& msg) {
    std::fprintf(stderr, "hostbench_driver: %s\n", msg.c_str());
    std::exit(2);
  }
  bool Has(const std::string& name) const { return values_.contains(name); }
  std::string Str(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) Fail("--" + name + " is required");
    return it->second;
  }
  double Num(const std::string& name) const { return std::stod(Str(name)); }
  std::vector<std::string> All(const std::string& name) const {
    std::vector<std::string> out;
    const auto [lo, hi] = values_.equal_range(name);
    for (auto it = lo; it != hi; ++it) out.push_back(it->second);
    return out;
  }

 private:
  std::multimap<std::string, std::string> values_;
};

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::stringstream ss(s);
  std::string part;
  while (std::getline(ss, part, sep)) parts.push_back(part);
  return parts;
}

// The fact table's generator spec, as run.py hands it to `sncube generate`.
DatasetSpec SpecFromFlags(const Flags& flags, std::int64_t rows,
                          std::uint64_t seed) {
  DatasetSpec spec;
  spec.rows = rows;
  spec.seed = seed;
  for (const auto& c : Split(flags.Str("cards"), ',')) {
    spec.cardinalities.push_back(static_cast<std::uint32_t>(std::stoul(c)));
  }
  if (flags.Has("alphas")) {
    for (const auto& a : Split(flags.Str("alphas"), ',')) {
      spec.alphas.push_back(std::stod(a));
    }
  }
  return spec;
}

// --------------------------------------------------------- host probes --

// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so the next
// PeakRssMb() reading is the peak of the work in between.
void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::uint64_t ProcField(const char* file, const std::string& key) {
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtoull(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return 0;
}

double PeakRssMb() {
  return static_cast<double>(ProcField("/proc/self/status", "VmHWM:")) /
         1024.0;
}

// Bytes this process has passed to write(2) so far.
std::uint64_t WrittenBytes() { return ProcField("/proc/self/io", "wchar:"); }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Confines the calling thread, and every thread it starts from then on, to
// the lowest vCPU it may run on. The serving threads (ShardSet workers,
// clients, refresher) then hand each request over within one vCPU: across
// vCPUs of a shared host a wake-up waits until the host runs the target vCPU,
// which swung closed-loop throughput 2-3x with other tenants' load.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      sched_setaffinity(0, sizeof one, &one);
      return;
    }
  }
}

double DirMb(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return static_cast<double>(bytes) / kMiB;
}

// ------------------------------------------------------------- numbers --

// Nearest-rank quantile; +inf samples (failed requests) sort last.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Flat JSON object builder, insertion-ordered.
class JsonObject {
 public:
  void Num(const std::string& key, double v) { Raw(key, JsonNumber(v)); }
  void Raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += "\"" + key + "\":" + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// FNV-1a over a relation's shape, keys and measures: the goldens are kept as
// digests so every epoch's answers for the whole pool fit in a few KB.
std::uint64_t Digest(const Relation& rel) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<std::uint64_t>(rel.width()));
  mix(rel.size());
  for (std::size_t r = 0; r < rel.size(); ++r) {
    for (Key k : rel.RowKeys(r)) mix(k);
    mix(static_cast<std::uint64_t>(rel.measure(r)));
  }
  return h;
}

// ---------------------------------------------------------------- refs --

// One check query: "G|W|K" = group-by dims, optional "dim=value" filter, and
// top-k (0 = all groups), e.g. "0,1,2||0" or "2,4|1=1|0" or "5,6||5".
struct CheckQuery {
  std::vector<int> group_by;
  int where_dim = -1;
  std::uint32_t where_value = 0;
  int top = 0;
};

CheckQuery ParseCheckQuery(const std::string& spec) {
  const auto parts = Split(spec + " ", '|');
  if (parts.size() != 3) Flags::Fail("bad --query " + spec);
  CheckQuery q;
  for (const auto& d : Split(parts[0], ',')) q.group_by.push_back(std::stoi(d));
  if (!parts[1].empty()) {
    const auto eq = parts[1].find('=');
    q.where_dim = std::stoi(parts[1].substr(0, eq));
    q.where_value = static_cast<std::uint32_t>(std::stoul(parts[1].substr(eq + 1)));
  }
  q.top = std::stoi(parts[2]);
  return q;
}

Query ToQuery(const CheckQuery& cq) {
  Query q;
  q.group_by = ViewId::FromDims(cq.group_by);
  if (cq.where_dim >= 0) q.filters.push_back({cq.where_dim, cq.where_value});
  q.top_k = cq.top;
  return q;
}

// Fact rows as read by the reference: keys then the measure, one vector per
// row. Parsed here with strtoll rather than the library's ReadCsv.
using FactRows = std::vector<std::vector<std::int64_t>>;

void AppendFacts(const std::string& path, FactRows& rows) {
  std::ifstream in(path);
  if (!in.good()) Flags::Fail("cannot read " + path);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::vector<std::int64_t> row;
    const char* p = line.c_str();
    while (*p != '\0') {
      char* end = nullptr;
      row.push_back(std::strtoll(p, &end, 10));
      p = (*end == ',') ? end + 1 : end;
    }
    if (!row.empty()) rows.push_back(std::move(row));
  }
}

// SELECT group_by, SUM(measure) ... ORDER BY key, then the engine's top-k
// rule: measure descending, ties in key order. Rows print as [k..., m].
std::string ReferenceAnswer(const FactRows& facts, const CheckQuery& q,
                            bool corrupt) {
  std::map<std::vector<std::int64_t>, std::int64_t> groups;
  std::vector<std::int64_t> key(q.group_by.size());
  for (const auto& row : facts) {
    if (q.where_dim >= 0 &&
        row[static_cast<std::size_t>(q.where_dim)] != q.where_value) {
      continue;
    }
    for (std::size_t i = 0; i < key.size(); ++i) {
      key[i] = row[static_cast<std::size_t>(q.group_by[i])];
    }
    groups[key] += row.back();
  }
  std::vector<std::pair<std::vector<std::int64_t>, std::int64_t>> out(
      groups.begin(), groups.end());
  if (q.top > 0 && static_cast<std::size_t>(q.top) < out.size()) {
    std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    out.resize(static_cast<std::size_t>(q.top));
  }
  if (corrupt && !out.empty()) out.front().second += 1;
  std::string json = "[";
  for (std::size_t r = 0; r < out.size(); ++r) {
    json += r ? ",[" : "[";
    for (std::int64_t k : out[r].first) json += std::to_string(k) + ",";
    json += std::to_string(out[r].second) + "]";
  }
  return json + "]";
}

int CmdRefs(const Flags& flags) {
  std::vector<CheckQuery> queries;
  for (const auto& s : flags.All("query")) queries.push_back(ParseCheckQuery(s));
  FactRows facts;
  AppendFacts(flags.Str("facts"), facts);
  const auto answers = [&](bool corrupt) {
    std::string json = "[";
    for (std::size_t i = 0; i < queries.size(); ++i) {
      json += (i ? "," : "") + ReferenceAnswer(facts, queries[i], corrupt && i == 0);
    }
    return json + "]";
  };
  JsonObject out;
  out.Raw("facts", answers(flags.Has("corrupt")));
  AppendFacts(flags.Str("delta"), facts);
  out.Raw("facts_delta", answers(false));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// --------------------------------------------------------------- serve --

constexpr int kShards = 2;
// Closed-loop clients, on the one vCPU the serving threads share (see
// PinToOneCpu). Free to use all 4 vCPUs, two clients read 3.7k-9.9k qps on
// one cube_skew input within minutes on a shared host; pinned, 5.0k-5.7k.
constexpr int kClients = 2;
constexpr int kTraceRefreshes = 4;  // the traced run's one window swaps 4 times

// Everything the online path needs before traffic starts.
struct ServeInputs {
  std::uint64_t seed = 0;
  Schema schema;
  std::shared_ptr<const CubeResult> cube;
  std::unique_ptr<QueryMix> mix;
  std::vector<Relation> deltas;  // deltas[k] installs epoch k + 1, in order
  // golden[e][i] = digest of pool query i's answer on epoch e's full cube.
  std::vector<std::vector<std::uint64_t>> golden;
};

// The query mix: Zipf alpha 1 over `pool` distinct queries, default
// filter/top-k shares and the default pool seed. It is part of the
// workload's definition, like its cardinalities, so serving numbers compare
// across data seeds.
WorkloadSpec MixSpec(const Flags& flags) {
  WorkloadSpec wspec;
  wspec.pool_size = static_cast<int>(flags.Num("pool"));
  return wspec;
}

// `delta_seed` seeds the first delta; window w of a run passes its own.
ServeInputs PrepareServe(std::shared_ptr<const CubeResult> cube,
                         const DatasetSpec& spec, const WorkloadSpec& mix,
                         std::int64_t delta_rows, int refreshes,
                         std::uint64_t seed, std::uint64_t delta_seed,
                         bool corrupt) {
  ServeInputs in{seed, spec.MakeSchema(), std::move(cube), nullptr, {}, {}};
  in.mix = std::make_unique<QueryMix>(*in.cube, in.schema, mix);
  for (int k = 0; k < refreshes; ++k) {
    DatasetSpec dspec = spec;
    dspec.rows = delta_rows;
    dspec.seed = delta_seed + static_cast<std::uint64_t>(k);
    in.deltas.push_back(GenerateDataset(dspec));
  }
  // Roll the same deltas offline, one epoch at a time, as serve_load does.
  CubeResult rolling;
  const CubeResult* cur = in.cube.get();
  for (std::size_t e = 0; e <= in.deltas.size(); ++e) {
    if (e > 0) {
      const Relation& delta = in.deltas[e - 1];
      rolling = MergeDeltaCube(
          *cur, ComputeDeltaCube(delta, in.schema, AffectedViews(*cur, delta)));
      cur = &rolling;
    }
    const CubeQueryEngine engine(*cur);
    std::vector<std::uint64_t> digests;
    for (const Query& q : in.mix->pool()) {
      Query bare = q;
      bare.from_view.reset();
      digests.push_back(Digest(engine.Execute(bare).rel));
    }
    in.golden.push_back(std::move(digests));
  }
  if (corrupt) in.golden[0][0] ^= 1;
  return in;
}

ShardSetOptions ServeShardOptions() {
  ShardSetOptions opts;
  opts.shards = kShards;
  opts.server.workers = 1;  // one worker per primary and per replica copy
  return opts;
}

struct WindowResult {
  std::uint64_t requests = 0;
  std::uint64_t refreshes = 0;  // RefreshCoordinator::Refresh calls
  std::uint64_t failed = 0;  // non-kOk outcomes and refresh errors
  std::uint64_t wrong = 0;   // kOk answers matching no serving epoch
  std::uint64_t tries = 0;
  std::vector<double> latency_ms;  // +inf for failed or wrong requests
  double wall_s = 0;
  std::vector<double> swap_s, snapshot_s, commit_s, written_per_delta;
  RouterStatsSnapshot router;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  double server_p50_ms = 0, server_p99_ms = 0;
};

// Absorbs the serving epoch's hosted servers; called before each swap and
// at the end, so every epoch's servers are read once while still alive.
void AbsorbServingEpoch(obs::MetricsRegistry& registry, const ShardSet& set) {
  for (int s = 0; s < set.shards(); ++s) {
    AbsorbServerStats(registry, set.primary_server(s));
    AbsorbServerStats(registry, set.replica_server(s));
  }
}

// The closed loop: kClients threads each wait for their Router::Execute
// reply before sampling the next query; a refresher thread installs the R
// deltas' epochs at each (R+1)-th of the window. With `sink` set, every
// thread records wall-clock spans into it.
WindowResult RunServeWindow(ShardSet& shard_set, const ServeInputs& in,
                            double seconds, const fs::path& snapshot_dir,
                            obs::TraceSink* sink,
                            const WallClockSource* clock) {
  Router router(shard_set);  // the CLI's defaults: 50 ms tries, 2 retries
  obs::MetricsRegistry registry;
  WindowResult res;
  std::mutex mu;  // guards res across client threads
  std::atomic<bool> stop{false};
  std::atomic<int> request_ids{0};

  const auto start = Clock::now();
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };

  std::thread refresher([&] {
    std::optional<obs::TraceRecorder> recorder;
    if (sink != nullptr) recorder.emplace(1 + kClients, clock);
    obs::ThreadRecorderScope scope(recorder ? &*recorder : nullptr);
    Clock::time_point phase0, phase2;
    RefreshOptions opts;
    opts.dir = snapshot_dir.string();
    opts.on_phase = [&](int phase) {
      if (phase == 0) phase0 = Clock::now();
      if (phase == 2) phase2 = Clock::now();
    };
    try {
      RefreshCoordinator coordinator(shard_set, in.cube, in.schema, opts);
      const int refreshes = static_cast<int>(in.deltas.size());
      for (int k = 1; k <= refreshes; ++k) {
        std::this_thread::sleep_until(at(seconds * k / (refreshes + 1)));
        AbsorbServingEpoch(registry, shard_set);
        const Relation& delta = in.deltas[static_cast<std::size_t>(k - 1)];
        const std::uint64_t written0 = WrittenBytes();
        ++res.refreshes;
        const auto t0 = Clock::now();
        {
          obs::ScopedSpan span("refresh.RefreshCoordinator::Refresh", k);
          coordinator.Refresh(delta);
        }
        const auto t1 = Clock::now();
        res.swap_s.push_back(std::chrono::duration<double>(t1 - t0).count());
        res.snapshot_s.push_back(
            std::chrono::duration<double>(phase2 - phase0).count());
        res.commit_s.push_back(std::chrono::duration<double>(t1 - phase2).count());
        res.written_per_delta.push_back(
            static_cast<double>(WrittenBytes() - written0) /
            static_cast<double>(delta.ByteSize()));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "refresh failed: %s\n", e.what());
      const std::lock_guard<std::mutex> lock(mu);
      ++res.failed;
    }
    if (recorder) sink->Absorb(recorder->Finish());
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::optional<obs::TraceRecorder> recorder;
      if (sink != nullptr) recorder.emplace(1 + c, clock);
      obs::ThreadRecorderScope scope(recorder ? &*recorder : nullptr);
      Rng rng(in.seed * 7919ULL + static_cast<std::uint64_t>(c));
      std::vector<double> latency;
      std::uint64_t failed = 0, wrong = 0, tries = 0;
      {
        obs::ScopedSpan client_span("step.client", c);
        while (!stop.load(std::memory_order_acquire)) {
          const Query& q = in.mix->Sample(rng);
          const auto index =
              static_cast<std::size_t>(&q - in.mix->pool().data());
          const std::uint64_t e0 = shard_set.serving_epoch();
          const auto t0 = Clock::now();
          RouterResult r;
          {
            obs::ScopedSpan span("serve.Router::Execute",
                                 request_ids.fetch_add(1));
            try {
              r = router.Execute(q);
            } catch (const std::exception&) {
              r.outcome = RouterOutcome::kFailed;
            }
          }
          const double ms = 1e3 * Since(t0);
          const std::uint64_t e1 = shard_set.serving_epoch();
          tries += static_cast<std::uint64_t>(r.tries);
          bool ok = r.outcome == RouterOutcome::kOk;
          if (!ok) {
            ++failed;
          } else {
            const std::uint64_t d = Digest(r.answer->rel);
            bool match = false;
            for (std::uint64_t e = e0; e <= e1 && e < in.golden.size(); ++e) {
              match = match || in.golden[e][index] == d;
            }
            if (!match) ++wrong;
            ok = match;
          }
          latency.push_back(ok ? ms : kInf);
        }
      }
      if (recorder) sink->Absorb(recorder->Finish());
      const std::lock_guard<std::mutex> lock(mu);
      res.requests += latency.size();
      res.failed += failed;
      res.wrong += wrong;
      res.tries += tries;
      res.latency_ms.insert(res.latency_ms.end(), latency.begin(),
                            latency.end());
    });
  }

  std::this_thread::sleep_until(at(seconds));
  refresher.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  res.wall_s = Since(start);

  AbsorbServingEpoch(registry, shard_set);
  res.router = router.Stats();
  res.cache_hits = registry.GetCounter("serve.cache.hits").value();
  res.cache_misses = registry.GetCounter("serve.cache.misses").value();
  res.cache_evictions = registry.GetCounter("serve.cache.evictions").value();
  const obs::HistogramSnapshot server =
      registry.GetHistogram("serve.latency_us").Read();
  res.server_p50_ms = server.p50 / 1e3;
  res.server_p99_ms = server.p99 / 1e3;
  return res;
}

// Requests and refreshes are the window's operations.
void AddCounts(JsonObject& out, const WindowResult& w) {
  out.Num("attempted", static_cast<double>(w.requests + w.refreshes));
  out.Num("failed", static_cast<double>(w.failed + w.wrong));
  out.Num("wrong", static_cast<double>(w.wrong));
}

int CmdServe(const Flags& flags) {
  const auto seed = static_cast<std::uint64_t>(flags.Num("seed"));
  const DatasetSpec spec = SpecFromFlags(flags, 0, seed);
  const fs::path work = flags.Str("work");
  const auto window = static_cast<std::uint64_t>(flags.Num("window"));

  // Set-up: read the facts, build the cube, roll the goldens, start the
  // shard set.
  const auto t0 = Clock::now();
  std::ifstream facts(flags.Str("facts"));
  const Relation raw = ReadCsv(facts);
  auto cube = std::make_shared<const CubeResult>(
      SequentialCube(raw, spec.MakeSchema(), AllViews(spec.MakeSchema().dims())));
  const ServeInputs in = PrepareServe(
      std::move(cube), spec, MixSpec(flags),
      static_cast<std::int64_t>(flags.Num("delta-rows")),
      static_cast<int>(flags.Num("refreshes")), seed,
      seed + 2000000 + 100 * window, flags.Has("corrupt"));
  PinToOneCpu();
  auto shard_set = std::make_unique<ShardSet>(*in.cube, ServeShardOptions());
  const double setup_s = Since(t0);

  ResetPeakRss();
  const WindowResult w = RunServeWindow(*shard_set, in, flags.Num("seconds"),
                                        work / "snapshots", nullptr, nullptr);
  const double rss_mb = PeakRssMb();
  shard_set.reset();
  fs::remove_all(work / "snapshots");

  std::ofstream latency(flags.Str("latency-out"));
  for (double ms : w.latency_ms) latency << ms << '\n';
  std::printf("serve window %llu: %llu requests in %.2f s, %llu failed, "
              "%llu wrong, %llu scatter\n",
              static_cast<unsigned long long>(window),
              static_cast<unsigned long long>(w.requests), w.wall_s,
              static_cast<unsigned long long>(w.failed),
              static_cast<unsigned long long>(w.wrong),
              static_cast<unsigned long long>(w.router.scatter_queries));
  JsonObject out;
  out.Num("serve_setup_s", setup_s);
  out.Num("requests", static_cast<double>(w.requests));
  out.Num("wall_s", w.wall_s);
  std::string swaps = "[";
  for (double s : w.swap_s) swaps += (swaps.size() > 1 ? "," : "") + JsonNumber(s);
  out.Raw("swap_s", swaps + "]");
  out.Num("serve_rss_mb", rss_mb);
  AddCounts(out, w);
  std::printf("%s\n", out.str().c_str());
  return w.wrong == 0 ? 0 : 1;
}

// --------------------------------------------------------------- trace --

// One timed layer call of the traced run: wall time and the call's own
// peak RSS.
struct CallRecord {
  std::string name;
  double wall_s = 0;
  double rss_mb = 0;
};

class Tracer {
 public:
  // Runs `fn` inside a span named `name` (a string literal) and records it.
  template <typename Fn>
  auto Call(const char* name, Fn&& fn) {
    ResetPeakRss();
    obs::ScopedSpan span(name);
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Record(name, t0);
    } else {
      auto result = fn();
      Record(name, t0);
      return result;
    }
  }
  double Last() const { return calls_.back().wall_s; }
  double LastRss() const { return calls_.back().rss_mb; }
  const std::vector<CallRecord>& calls() const { return calls_; }

 private:
  void Record(const char* name, Clock::time_point t0) {
    calls_.push_back({name, Since(t0), PeakRssMb()});
  }
  std::vector<CallRecord> calls_;
};

struct ClusterBuild {
  double wall_s = 0;
  double cpu_s = 0;
  double rss_mb = 0;
  double sim_s = 0;
  double sent_mb = 0;
  double merge_mb = 0;
  ParallelCubeStats stats;  // rank 0's (case decisions are collective)
  std::vector<bench::PhaseRow> phases;
};

// The CLI's cluster path: p ranks, rows dealt round-robin, W threads per
// rank. The per-rank shards are dropped; concatenating and saving them is
// CLI glue the untraced build pays.
ClusterBuild RunClusterBuild(Tracer& tracer, const char* name,
                             const Relation& raw, const Schema& schema, int p,
                             int threads) {
  ClusterBuild b;
  Cluster cluster(p);
  cluster.set_threads_per_rank(threads);
  std::vector<ParallelCubeStats> stats(static_cast<std::size_t>(p));
  const double cpu0 = CpuSeconds();
  tracer.Call(name, [&] {
    cluster.Run([&](Comm& comm) {
      Relation slice(raw.width());
      for (std::size_t r = static_cast<std::size_t>(comm.rank()); r < raw.size();
           r += static_cast<std::size_t>(comm.size())) {
        slice.AppendRow(raw, r);
      }
      BuildParallelCube(comm, slice, schema, AllViews(schema.dims()), {},
                        &stats[static_cast<std::size_t>(comm.rank())]);
    });
  });
  b.cpu_s = CpuSeconds() - cpu0;
  b.wall_s = tracer.Last();
  b.rss_mb = tracer.LastRss();
  b.sim_s = cluster.SimTimeSeconds();
  b.sent_mb = static_cast<double>(cluster.BytesSent()) / kMiB;
  b.merge_mb = static_cast<double>(cluster.BytesSent("merge")) / kMiB;
  b.stats = stats[0];
  b.phases = bench::CollapsePhases(cluster);
  return b;
}

double PhaseSeconds(const ClusterBuild& b, const std::string& family) {
  for (const auto& row : b.phases) {
    if (row.family == family) return row.total_s();
  }
  return 0;
}

void PrintSimBesideHost(const ClusterBuild& p4, const ClusterBuild& w4) {
  std::printf("\nsim beside host (host wall/CPU of the call; sim phase "
              "families summed over ranks)\n");
  std::printf("%-6s %10s %10s %10s %12s %12s %12s %12s\n", "build", "host_s",
              "cpu_s", "sim_s", "partition_s", "schedule_s", "compute_s",
              "merge_s");
  for (const auto& [label, b] :
       {std::pair<const char*, const ClusterBuild*>{"p4", &p4}, {"w4", &w4}}) {
    std::printf("%-6s %10.3f %10.3f %10.3f %12.3f %12.3f %12.3f %12.3f\n",
                label, b->wall_s, b->cpu_s, b->sim_s,
                PhaseSeconds(*b, "partition"), PhaseSeconds(*b, "schedule"),
                PhaseSeconds(*b, "compute"), PhaseSeconds(*b, "merge"));
  }
}

// Self time of each benchmark span (names with a '.'; the program's own
// spans have none): duration minus the benchmark spans directly inside it.
// Summed per layer, the name's prefix before the first '.'.
std::map<std::string, double> LayerSelfTimes(
    const std::vector<obs::RankTrace>& ranks) {
  std::map<std::string, double> self;
  for (const auto& rt : ranks) {
    std::vector<double> child(rt.spans.size(), 0.0);
    for (const auto& s : rt.spans) {
      if (s.parent >= 0 && std::strchr(s.name, '.') != nullptr) {
        child[static_cast<std::size_t>(s.parent)] += s.end_s - s.begin_s;
      }
    }
    for (std::size_t i = 0; i < rt.spans.size(); ++i) {
      const char* dot = std::strchr(rt.spans[i].name, '.');
      if (dot == nullptr) continue;
      const std::string layer(rt.spans[i].name, dot);
      self[layer] += rt.spans[i].end_s - rt.spans[i].begin_s - child[i];
    }
  }
  return self;
}

// Median rows per second, in millions, over five runs of a permutation sort.
template <typename Sort>
double SortRate(Tracer& tracer, const char* name, std::size_t rows, Sort sort) {
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    tracer.Call(name, sort);
    times.push_back(tracer.Last());
  }
  return static_cast<double>(rows) / Median(times) / 1e6;
}

int CmdTrace(const Flags& flags) {
  const auto seed = static_cast<std::uint64_t>(flags.Num("seed"));
  const DatasetSpec spec = SpecFromFlags(flags, 0, seed);
  const Schema schema = spec.MakeSchema();
  const int d = schema.dims();
  const fs::path work = flags.Str("work");
  const CheckQuery check = ParseCheckQuery(flags.Str("query"));
  const std::string facts_path = flags.Str("facts");
  const std::string delta_path = flags.Str("delta");
  const auto read_csv = [](const std::string& path) {
    std::ifstream in(path);
    return ReadCsv(in);
  };

  const WallClockSource clock;
  obs::TraceSink sink;
  obs::TraceRecorder recorder(0, &clock);
  Tracer tracer;
  JsonObject m;
  std::vector<std::pair<std::string, double>> steps;
  const auto step_done = [&](const char* name, Clock::time_point t0) {
    steps.emplace_back(name, Since(t0));
  };
  ClusterBuild p4, w4;
  WindowResult w;
  {
    obs::ThreadRecorderScope scope(&recorder);
    obs::ScopedSpan run_span("step.run");
    Relation raw;
    {
      obs::ScopedSpan step("step.build_p1");
      const auto t0 = Clock::now();
      raw = tracer.Call("relation.ReadCsv", [&] { return read_csv(facts_path); });
      m.Num("relation.csv_read_s", tracer.Last());
      const CubeResult cube = tracer.Call("seqcube.SequentialCube", [&] {
        return SequentialCube(raw, schema, AllViews(d));
      });
      m.Num("seqcube.cube_s", tracer.Last());
      m.Num("seqcube.cube_rows", static_cast<double>(cube.TotalRows()));
      m.Num("seqcube.cube_rss_mb", tracer.LastRss());
      tracer.Call("seqcube.SaveCube",
                  [&] { ViewStore(work / "p1").SaveCube(cube, schema); });
      m.Num("seqcube.save_s", tracer.Last());
      m.Num("seqcube.save_mb", DirMb(work / "p1"));
      step_done("build_p1", t0);
    }
    {
      obs::ScopedSpan step("step.kernels");
      const std::vector<int> root = IdentityOrder(d);
      m.Num("relation.sort_mrows_per_s",
            SortRate(tracer, "relation.SortedPermutation", raw.size(),
                     [&] { return SortedPermutation(raw, root); }));
      exec::TaskPool pool(4);
      m.Num("exec.sort_mrows_per_s",
            SortRate(tracer, "exec.ParallelSortedPermutation", raw.size(),
                     [&] { return exec::ParallelSortedPermutation(raw, root, &pool); }));
    }
    {
      obs::ScopedSpan step("step.query");
      const auto t0 = Clock::now();
      const CubeResult cube = tracer.Call(
          "seqcube.LoadCube", [&] { return ViewStore(work / "p1").LoadCube(); });
      m.Num("seqcube.load_s", tracer.Last());
      const CubeQueryEngine engine(cube);
      tracer.Call("query.CubeQueryEngine::Execute",
                  [&] { return engine.Execute(ToQuery(check)); });
      step_done("query", t0);

      // The query layer alone over the serving pool, no cache.
      const QueryMix mix(cube, schema, MixSpec(flags));
      std::vector<double> us;
      double scanned = 0, returned = 0;
      for (const Query& q : mix.pool()) {
        const QueryAnswer a =
            tracer.Call("query.CubeQueryEngine::Execute", [&] { return engine.Execute(q); });
        us.push_back(1e6 * tracer.Last());
        scanned += static_cast<double>(a.rows_scanned);
        returned += static_cast<double>(a.rel.size());
      }
      m.Num("query.exec_p50_us", Quantile(us, 0.50));
      m.Num("query.exec_p99_us", Quantile(us, 0.99));
      m.Num("query.rows_scanned_per_row", scanned / std::max(1.0, returned));
    }
    {
      obs::ScopedSpan step("step.build_p4");
      const auto t0 = Clock::now();
      const Relation in = tracer.Call("relation.ReadCsv", [&] { return read_csv(facts_path); });
      p4 = RunClusterBuild(tracer, "core.BuildParallelCube", in, schema, 4, 1);
      step_done("build_p4", t0);
    }
    {
      obs::ScopedSpan step("step.build_w4");
      const auto t0 = Clock::now();
      const Relation in = tracer.Call("relation.ReadCsv", [&] { return read_csv(facts_path); });
      w4 = RunClusterBuild(tracer, "core.BuildParallelCube", in, schema, 1, 4);
      step_done("build_w4", t0);
    }
    {
      obs::ScopedSpan step("step.refresh");
      const auto t0 = Clock::now();
      const CubeResult base = tracer.Call(
          "seqcube.LoadCube", [&] { return ViewStore(work / "p1").LoadCube(); });
      const Relation delta =
          tracer.Call("relation.ReadCsv", [&] { return read_csv(delta_path); });
      const CubeResult delta_cube = tracer.Call("refresh.ComputeDeltaCube", [&] {
        return ComputeDeltaCube(delta, schema, AffectedViews(base, delta));
      });
      m.Num("refresh.delta_cube_s", tracer.Last());
      const CubeResult merged = tracer.Call(
          "refresh.MergeDeltaCube", [&] { return MergeDeltaCube(base, delta_cube); });
      m.Num("refresh.merge_s", tracer.Last());
      tracer.Call("seqcube.SaveCube",
                  [&] { ViewStore(work / "refreshed").SaveCube(merged, schema); });
      step_done("refresh", t0);
    }
    fs::remove_all(work / "refreshed");
    {
      obs::ScopedSpan step("step.serve");
      auto cube = std::make_shared<const CubeResult>(tracer.Call(
          "seqcube.LoadCube", [&] { return ViewStore(work / "p1").LoadCube(); }));
      tracer.Call("serve.PartitionCubeForServing",
                  [&] { return PartitionCubeForServing(*cube, kShards); });
      m.Num("serve.slice_s", tracer.Last());
      const ServeInputs in = PrepareServe(
          cube, spec, MixSpec(flags),
          static_cast<std::int64_t>(flags.Num("delta-rows")),
          kTraceRefreshes, seed, seed + 2000000, false);
      PinToOneCpu();  // as the untraced serve windows run
      auto shard_set = tracer.Call("serve.ShardSet", [&] {
        return std::make_unique<ShardSet>(*in.cube, ServeShardOptions());
      });
      const auto t0 = Clock::now();
      w = RunServeWindow(*shard_set, in, flags.Num("seconds"),
                         work / "snapshots", &sink, &clock);
      step_done("serve", t0);
      shard_set.reset();
      fs::remove_all(work / "snapshots");
    }
  }
  fs::remove_all(work / "p1");
  sink.Absorb(recorder.Finish());
  const std::vector<obs::RankTrace> ranks = sink.Snapshot();
  obs::WriteTextFile(flags.Str("trace-out"), obs::ChromeTraceJson(ranks));

  m.Num("core.p4_s", p4.wall_s);
  m.Num("core.p4_cpu_s", p4.cpu_s);
  m.Num("core.p4_rss_mb", p4.rss_mb);
  m.Num("core.w4_s", w4.wall_s);
  m.Num("core.w4_cpu_s", w4.cpu_s);
  m.Num("core.p4_sim_s", p4.sim_s);
  for (const char* family : {"partition", "schedule", "compute", "merge"}) {
    m.Num(std::string("core.sim.") + family + "_s", PhaseSeconds(p4, family));
  }
  m.Num("net.sent_mb", p4.sent_mb);
  m.Num("net.merge_mb", p4.merge_mb);
  m.Num("core.merge.case2_views", p4.stats.merge.case2_views);
  m.Num("core.merge.case3_views", p4.stats.merge.case3_views);
  m.Num("core.sample_sort_shifts", p4.stats.sample_sort_shifts);

  const double lookups = static_cast<double>(w.cache_hits + w.cache_misses);
  m.Num("serve.cache_hit_rate",
        lookups == 0 ? 0 : static_cast<double>(w.cache_hits) / lookups);
  m.Num("serve.cache_evictions", static_cast<double>(w.cache_evictions));
  m.Num("serve.server_p50_ms", w.server_p50_ms);
  m.Num("serve.server_p99_ms", w.server_p99_ms);
  const double requests = static_cast<double>(std::max<std::uint64_t>(1, w.requests));
  m.Num("serve.router.tries_per_request", static_cast<double>(w.tries) / requests);
  m.Num("serve.router.scatter_share",
        static_cast<double>(w.router.scatter_queries) / requests);
  m.Num("serve.router.retries", static_cast<double>(w.router.retries));
  m.Num("serve.router.timed_out", static_cast<double>(w.router.timed_out));
  m.Num("refresh.snapshot_s", Median(w.snapshot_s));
  m.Num("refresh.commit_s", Median(w.commit_s));
  m.Num("refresh.written_mb_per_delta_mb", Median(w.written_per_delta));
  for (const auto& [layer, s] : LayerSelfTimes(ranks)) {
    if (layer != "step") m.Num(layer + ".self_s", s);
  }

  PrintSimBesideHost(p4, w4);
  std::printf("\nlayer calls (wall s, peak RSS MB of the call)\n");
  std::map<std::string, std::pair<int, double>> per_name;
  for (const auto& c : tracer.calls()) {
    if (c.name == "query.CubeQueryEngine::Execute") {
      auto& [n, s] = per_name[c.name];
      ++n;
      s += c.wall_s;
      continue;
    }
    std::printf("  %-36s %9.4f s %9.1f MB\n", c.name.c_str(), c.wall_s, c.rss_mb);
  }
  for (const auto& [name, agg] : per_name) {
    std::printf("  %-36s %9.4f s in %d calls\n", name.c_str(), agg.second, agg.first);
  }

  JsonObject step_json;
  for (const auto& [name, s] : steps) step_json.Num(name, s);
  JsonObject out;
  out.Raw("metrics", m.str());
  out.Raw("steps", step_json.str());
  AddCounts(out, w);
  out.Num("spans", [&] {
    std::size_t n = 0;
    for (const auto& rt : ranks) n += rt.spans.size();
    return static_cast<double>(n);
  }());
  std::printf("%s\n", out.str().c_str());
  return w.wrong == 0 ? 0 : 1;
}

int CmdStamp() {
  JsonObject out;
  out.Num("hardware_concurrency", std::thread::hardware_concurrency());
#if defined(__clang__)
  out.Raw("compiler", "\"clang " __clang_version__ "\"");
#elif defined(__GNUC__)
  out.Raw("compiler", "\"gcc " __VERSION__ "\"");
#endif
  out.Raw("build_type", "\"" HOSTBENCH_BUILD_TYPE "\"");
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Flags::Fail("usage: hostbench_driver stamp|refs|serve|trace ...");
  const std::string cmd = argv[1];
  try {
    const Flags flags(argc, argv);
    if (cmd == "stamp") return CmdStamp();
    if (cmd == "refs") return CmdRefs(flags);
    if (cmd == "serve") return CmdServe(flags);
    if (cmd == "trace") return CmdTrace(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench_driver: %s\n", e.what());
    return 1;
  }
  Flags::Fail("unknown subcommand " + cmd);
}
