// sncube — command-line front end for the library.
//
//   sncube generate --rows N --cards 256,128,64 [--alphas 1.0,0,0]
//                   [--seed S] --out facts.csv
//   sncube build    --in facts.csv --out cubedir [--procs P]
//                   [--views N | --fraction F] [--gamma G] [--local-trees]
//   sncube info     --cube cubedir
//   sncube query    --cube cubedir --group-by D0,D2 [--where D1=3]
//                   [--min|--max] [--top K] [--json]
//   sncube serve    --cube cubedir --bench [--workers W] [--clients C]
//                   [--queries N] [--queue-depth Q] [--cache-mb MB]
//                   [--alpha A] [--seed S]
//
// `build` runs the paper's parallel shared-nothing algorithm on a simulated
// cluster of P virtual processors (default 1 = plain sequential Pipesort)
// and persists every selected view into the cube directory, which `query`
// then serves with lattice routing. `serve --bench` replays a synthetic
// Zipf-skewed query mix through the concurrent CubeServer (src/serve/) and
// prints its StatsSnapshot as JSON.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chaos/explorer.h"
#include "chaos/refresh_chaos.h"
#include "chaos/serve_chaos.h"
#include "common/timer.h"
#include "core/parallel_cube.h"
#include "core/partition_writer.h"
#include "data/generator.h"
#include "exec/task_pool.h"
#include "lattice/lattice.h"
#include "net/cluster.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "query/greedy_select.h"
#include "refresh/delta.h"
#include "refresh/refresh.h"
#include "relation/csv.h"
#include "relation/schema.h"
#include "relation/sort.h"
#include "seqcube/seq_cube.h"
#include "seqcube/view_store.h"
#include "serve/metrics_bridge.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/shard_set.h"
#include "serve/wall_clock.h"
#include "serve/workload.h"

using namespace sncube;

namespace {

// The single source of truth for CLI documentation. `sncube help` prints
// this to stdout (exit 0); a parse error prints it to stderr (exit 2).
// tools/lint/check_cli_docs.py extracts every --flag token from this text
// and requires each one to be documented in README.md, so a new flag that
// is not added here (or not written up) fails `ctest -L lint`.
constexpr const char* kHelpText =
    "usage: sncube <command> [flags]\n"
    "\n"
    "commands:\n"
    "  generate   synthesize a fact table as CSV\n"
    "  build      build the data cube (sequential or simulated parallel)\n"
    "  info       list the views stored in a cube directory\n"
    "  query      answer one group-by query from a cube directory\n"
    "  refresh    ingest a delta relation and refresh a cube directory\n"
    "  serve      replay a synthetic query mix through the CubeServer\n"
    "  chaos      randomized fault-injection search with plan shrinking\n"
    "  help       print this text\n"
    "\n"
    "A flag not listed for its command is a usage error (exit 2).\n"
    "\n"
    "sncube generate --rows N --cards C0,C1,... --out facts.csv\n"
    "  --rows N           number of fact rows\n"
    "  --cards C0,C1,...  per-dimension cardinalities (defines dimensionality)\n"
    "  --alphas A0,...    per-dimension Zipf skew (default uniform = 0)\n"
    "  --seed S           RNG seed (default 42)\n"
    "  --out FILE         output CSV path\n"
    "\n"
    "sncube build --in facts.csv --out cubedir\n"
    "  --in FILE            input fact table (CSV of dimension codes)\n"
    "  --out DIR            cube directory to create\n"
    "  --procs P            simulated processors (default 1 = sequential)\n"
    "  --threads-per-rank W intra-rank worker threads per simulated processor\n"
    "                       (default 1 = serial; cube bytes identical for any W)\n"
    "  --views N            build only the N greedy-selected views\n"
    "  --fraction F         build the greedy-selected fraction F of views\n"
    "  --gamma G            merge threshold gamma (Merge-Partitions case 3;\n"
    "                       needs --procs >= 2)\n"
    "  --local-trees        per-rank lattice trees + FM-sketch estimator\n"
    "                       (needs --procs >= 2)\n"
    "  --resume             finish a build that failed or was killed: keep\n"
    "                       the Di-partitions whose view files in --out\n"
    "                       verify and compute the rest (same input and\n"
    "                       flags, any --procs >= 2)\n"
    "  --fault-plan SPEC    inject faults, e.g.\n"
    "                       \"kill:1@5;slow:2x3.0;diskerr:0:0.01;seed:7\"\n"
    "                       (needs --procs >= 2)\n"
    "  --trace-out FILE     write a Chrome trace_event JSON timeline of the\n"
    "                       run (simulated clock) and print the run summary\n"
    "                       JSON to stdout\n"
    "  --summary-out FILE   also write the run summary JSON to FILE\n"
    "\n"
    "sncube info --cube cubedir\n"
    "  --cube DIR         cube directory to inspect\n"
    "\n"
    "sncube query --cube cubedir --group-by D0,D2\n"
    "  --cube DIR         cube directory to query\n"
    "  --group-by A,B,... dimension names to group by\n"
    "  --where D=V,...    equality filters (dimension=code)\n"
    "  --min | --max      aggregate MIN/MAX instead of SUM\n"
    "  --top K            keep only the K largest groups\n"
    "  --json             machine-readable output\n"
    "  --trace-out FILE   write a Chrome trace of the query (wall clock)\n"
    "\n"
    "sncube refresh --cube cubedir --delta delta.csv\n"
    "  ingests an insert-only delta: cubes the delta over the affected views\n"
    "  (Section 3 partial schedule), merges it into the stored cube one view\n"
    "  at a time and commits the result as the directory's next epoch; the\n"
    "  directory answers as before until the commit, as after once it lands\n"
    "  (DESIGN.md §3, §14).\n"
    "  --cube DIR         cube directory to refresh\n"
    "  --delta FILE       delta fact rows (CSV with the cube's columns)\n"
    "\n"
    "sncube serve --cube cubedir --bench\n"
    "  --cube DIR         cube directory to serve\n"
    "  --bench            replay a synthetic query mix (required)\n"
    "  --workers W        worker threads (default 4)\n"
    "  --clients C        closed-loop client threads (default 8)\n"
    "  --queries N        total queries to issue (default 20000)\n"
    "  --queue-depth Q    admission queue depth (default 256)\n"
    "  --cache-mb MB      result cache capacity (default 64)\n"
    "  --alpha A          Zipf skew of the query mix (default 1.0)\n"
    "  --seed S           workload RNG seed (default 42)\n"
    "  --trace-out FILE   write a Chrome trace of worker request handling\n"
    "                     (wall clock; non-deterministic by nature; needs\n"
    "                     --shards 1)\n"
    "  --summary-out FILE write unified metrics registry JSON to FILE\n"
    "  --shards N         serve the cube sliced over N shard nodes behind\n"
    "                     the resilient router (default 1 = single server;\n"
    "                     the flags below need N >= 2 and are refused\n"
    "                     without it)\n"
    "  --fault-plan SPEC  serve-tier fault clauses keyed on request sequence,\n"
    "                     e.g. \"shardkill:1:100-900;shardslow:0:0:3.0\"\n"
    "  --per-try-ms MS    router per-try deadline (default 50, 0 disables)\n"
    "  --retries R        extra tries per request after the first (default 2)\n"
    "  --hedge-ms MS      hedge successful tries at least this slow against\n"
    "                     the other replica (default 0 = off)\n"
    "  --breaker-failures F      failures within the rolling window that trip\n"
    "                            a shard's circuit breaker (default 5)\n"
    "  --breaker-cooldown-ms MS  open-state cooldown before half-open probes\n"
    "                            (default 250)\n"
    "  --refresh-every Q  with --shards >= 2: run an online refresh (epoch\n"
    "                     swap under live traffic) after every Q routed\n"
    "                     queries (default 0 = no refreshes)\n"
    "  --refresh-rows R   synthetic delta rows per refresh (default 1000;\n"
    "                     needs --refresh-every)\n"
    "  --snapshot-dir DIR cube directory the refreshes commit their epochs to,\n"
    "                     started empty, so not the --cube directory\n"
    "                     (default: a temp directory, removed on exit;\n"
    "                     needs --refresh-every)\n"
    "\n"
    "sncube chaos --plans N --seed S\n"
    "  runs N random fault plans per cluster size; each trial builds a cube\n"
    "  directory under the plan (resuming it on abort) and checks it\n"
    "  byte-identical to a fault-free build's. A failing plan is\n"
    "  shrunk to a minimal reproducing spec. Exit 0 = all trials upheld the\n"
    "  invariant; exit 4 = integrity violation found (see the JSON report).\n"
    "  --plans N          random fault plans per cluster size (default 16)\n"
    "  --seed S           master seed for plan generation (default 1)\n"
    "  --procs P0,P1,...  cluster sizes to exercise (default 2,4; build\n"
    "                     search only)\n"
    "  --rows R           synthetic fact rows per trial (default 600; 500\n"
    "                     with --refresh)\n"
    "  --fail-out FILE    append each minimal failing plan spec, one per line\n"
    "  --verbose          per-trial progress on stderr\n"
    "  --serve            search the SERVING tier instead: random shardkill/\n"
    "                     shardslow plans against a Router over a ShardSet,\n"
    "                     invariant \"no wrong answers, ever\" (every response\n"
    "                     is bit-correct, a typed error, or an explicit shed).\n"
    "                     Deterministic under a manual clock; failing plans\n"
    "                     are shrunk like build plans. With --serve:\n"
    "  --shards N0,N1,... shard counts to exercise (default 2,4)\n"
    "  --requests N       router requests per trial (default 200; 120 with\n"
    "                     --refresh)\n"
    "  --refresh          search the ONLINE REFRESH path instead: plans mix\n"
    "                     coordinator kills at two-phase-swap phases\n"
    "                     (refreshkill:K), store disk corruption, and\n"
    "                     shard churn while the query stream interleaves\n"
    "                     with every swap step. Invariant: old or new, never\n"
    "                     a blend — every response matches the pre- or\n"
    "                     post-refresh golden, and crash recovery restores\n"
    "                     one of the two cubes byte-identically. Takes the\n"
    "                     same --shards/--requests flags as --serve.\n";

[[noreturn]] void Usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fputs(kHelpText, stderr);
  std::exit(2);
}

// The flags one command reads: `values` take an argument, `switches` do
// not. A flag outside both lists is a usage error.
struct FlagSpec {
  std::vector<std::string> values;
  std::vector<std::string> switches;
};

// Minimal flag parser: --name value pairs plus boolean switches, checked
// against the command's FlagSpec before the command runs.
class Args {
 public:
  Args(const std::string& cmd, int argc, char** argv, const FlagSpec& spec) {
    const auto declared = [](const std::vector<std::string>& names,
                             const std::string& name) {
      return std::find(names.begin(), names.end(), name) != names.end();
    };
    for (int i = 0; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) Usage(("unexpected argument: " + a).c_str());
      a = a.substr(2);
      if (declared(spec.switches, a)) {
        values_[a] = "1";
      } else if (declared(spec.values, a)) {
        if (i + 1 >= argc) Usage(("missing value for --" + a).c_str());
        values_[a] = argv[++i];
      } else {
        Usage(("unknown flag for " + cmd + ": --" + a).c_str());
      }
    }
  }

  std::optional<std::string> Get(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  std::string Require(const std::string& name) const {
    const auto v = Get(name);
    if (!v) Usage(("--" + name + " is required").c_str());
    return *v;
  }
  bool Has(const std::string& name) const { return values_.contains(name); }

 private:
  std::map<std::string, std::string> values_;
};

// Splits at every comma: "a,,b" and "a," keep their empty entries, so a
// list flag rejects them instead of skipping them. An empty string is an
// empty list (`query --group-by ""` asks for the grand total).
std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> parts;
  if (s.empty()) return parts;
  for (std::size_t start = 0;;) {
    const auto comma = s.find(',', start);
    parts.push_back(s.substr(start, comma - start));
    if (comma == std::string::npos) return parts;
    start = comma + 1;
  }
}

int DimIndexByName(const Schema& schema, const std::string& name) {
  for (int i = 0; i < schema.dims(); ++i) {
    if (schema.name(i) == name) return i;
  }
  Usage(("unknown dimension: " + name).c_str());
}

// Parses a whole flag value as an unsigned decimal from `min` to `max`;
// empty, negative, out-of-range and trailing-garbage values are usage
// errors.
template <typename T>
T ParseFlagNumber(const std::string& flag, const std::string& text,
                  T min = 0, T max = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value < min ||
      value > max) {
    Usage((flag + " expects an integer from " + std::to_string(min) +
           " to " + std::to_string(max) + ", got \"" + text + "\"")
              .c_str());
  }
  return value;
}

// Parses a whole flag value as a finite decimal number; anything else is a
// usage error. Callers check the range.
double ParseFlagReal(const std::string& flag, const std::string& text) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end ||
      !std::isfinite(value)) {
    Usage((flag + " expects a number, got \"" + text + "\"").c_str());
  }
  return value;
}

// ParseFlagNumber over every entry of a non-empty comma-separated list.
template <typename T>
std::vector<T> ParseFlagList(const std::string& flag, const std::string& text,
                             T min = 0, T max = std::numeric_limits<T>::max()) {
  if (text.empty()) Usage((flag + " expects a comma-separated list").c_str());
  std::vector<T> values;
  for (const auto& part : SplitCommas(text)) {
    values.push_back(ParseFlagNumber<T>(flag, part, min, max));
  }
  return values;
}

// An optional integer flag with a default; see ParseFlagNumber.
template <typename T>
T FlagOr(const Args& args, const std::string& name, T fallback, T min = 0,
         T max = std::numeric_limits<T>::max()) {
  const auto text = args.Get(name);
  return text ? ParseFlagNumber<T>("--" + name, *text, min, max) : fallback;
}

// Refuses each of `names` that is set: they mean nothing in the mode the
// command runs in, which `why` names.
void RefuseFlags(const Args& args, std::initializer_list<const char*> names,
                 const std::string& why) {
  for (const char* name : names) {
    if (args.Has(name)) Usage(("--" + std::string(name) + " " + why).c_str());
  }
}

constexpr std::uint32_t kIntMax = std::numeric_limits<int>::max();
// Largest millisecond count whose microseconds fit in a uint64.
constexpr std::uint64_t kMaxMs =
    std::numeric_limits<std::uint64_t>::max() / 1000;

// The threads one command may start. Every flag that becomes threads is at
// most this, and so is the total its command starts, checked before any
// input is read or any thread starts: a typo such as `--procs 40000` is a
// usage error, not 40,000 threads.
constexpr std::uint32_t kThreadBudget = 256;

// Refuses `flags` (each at most kThreadBudget) when together they would
// start more than kThreadBudget threads.
void CheckThreads(std::initializer_list<const char*> flags,
                  std::uint64_t threads) {
  if (threads <= kThreadBudget) return;
  std::string names;
  for (const char* flag : flags) {
    names += (names.empty() ? "" : " and ") + std::string(flag);
  }
  Usage((names + " would start " + std::to_string(threads) +
         " threads; a command starts at most " +
         std::to_string(kThreadBudget))
            .c_str());
}

// The server threads of a shard set: a primary and a replica CubeServer of
// `workers` threads per shard, for each epoch it hosts at once (while a
// refresh prepares the next epoch, the serving one and the one before it
// still drain).
std::uint64_t ShardSetThreads(std::uint64_t shards, std::uint64_t workers,
                              bool refreshing) {
  return 2 * shards * workers * (refreshing ? 3 : 1);
}

int CmdGenerate(const Args& args) {
  DatasetSpec spec;
  spec.rows = ParseFlagNumber<std::int64_t>("--rows", args.Require("rows"), 1);
  spec.cardinalities =
      ParseFlagList<std::uint32_t>("--cards", args.Require("cards"), 1);
  if (spec.cardinalities.size() > static_cast<std::size_t>(ViewId::kMaxDims)) {
    Usage("--cards takes at most 20 dimensions");
  }
  if (const auto alphas = args.Get("alphas")) {
    for (const auto& a : SplitCommas(*alphas)) {
      spec.alphas.push_back(ParseFlagReal("--alphas", a));
      if (spec.alphas.back() < 0) Usage("--alphas entries must be >= 0");
    }
    if (spec.alphas.size() != spec.cardinalities.size()) {
      Usage("--alphas needs one entry per --cards entry");
    }
  }
  spec.seed = FlagOr<std::uint64_t>(args, "seed", 42);

  const Relation rel = GenerateDataset(spec);
  const Schema schema = spec.MakeSchema();
  std::vector<std::string> names;
  for (int i = 0; i < schema.dims(); ++i) names.push_back(schema.name(i));

  const std::string out = args.Require("out");
  // sncheck:allow(raw-file-write): a CSV for users and tools, read back by ReadCsv
  std::ofstream os(out);
  if (!os.good()) Usage(("cannot write " + out).c_str());
  WriteCsv(os, rel, names);
  std::printf("wrote %zu rows x %d dims to %s\n", rel.size(), rel.width(),
              out.c_str());
  return 0;
}

int CmdBuild(const Args& args) {
  // Options are checked before the input is read; only --views' upper
  // bound, 2^d, waits for d.
  const auto p = static_cast<int>(ParseFlagNumber<std::uint32_t>(
      "--procs", args.Get("procs").value_or("1"), 1, kThreadBudget));
  const auto threads_per_rank = static_cast<int>(ParseFlagNumber<std::uint32_t>(
      "--threads-per-rank", args.Get("threads-per-rank").value_or("1"), 1,
      kThreadBudget));
  // A thread per rank, each with a pool of threads_per_rank (its own
  // thread included).
  CheckThreads({"--procs", "--threads-per-rank"},
               std::uint64_t{1} * p * threads_per_rank);
  if (args.Has("views") && args.Has("fraction")) {
    Usage("--views and --fraction are exclusive");
  }
  std::optional<double> fraction;
  if (const auto text = args.Get("fraction")) {
    fraction = ParseFlagReal("--fraction", *text);
    if (!(*fraction > 0 && *fraction <= 1)) {
      Usage("--fraction must be in (0, 1]");
    }
  }
  // Merge-Partitions and per-rank trees need two or more processors; the
  // one-processor build would ignore them.
  if (p == 1) {
    RefuseFlags(args, {"gamma", "local-trees"}, "requires --procs >= 2");
  }
  ParallelCubeOptions opts;
  if (const auto text = args.Get("gamma")) {
    opts.gamma_merge = ParseFlagReal("--gamma", *text);
    if (opts.gamma_merge < 0) Usage("--gamma must be >= 0");
  }
  if (args.Has("local-trees")) {
    opts.tree_mode = TreeMode::kLocal;
    opts.estimator = EstimatorKind::kFm;
  }
  const bool resume = args.Has("resume");
  const auto fault_spec = args.Get("fault-plan");
  if (p == 1) {
    RefuseFlags(args, {"resume", "fault-plan"}, "requires --procs >= 2");
  }
  FaultPlan fault_plan;
  if (fault_spec) {
    try {
      fault_plan = FaultPlan::Parse(*fault_spec);
    } catch (const SncubeError& e) {
      Usage(("--fault-plan: " + std::string(e.what())).c_str());
    }
  }
  const std::string out = args.Require("out");

  const std::string in = args.Require("in");
  std::ifstream is(in);
  if (!is.good()) Usage(("cannot read " + in).c_str());
  Relation raw = ReadCsv(is);
  if (raw.empty()) Usage("input has no rows");

  // Infer cardinalities from the data (max code + 1 per column). The
  // largest uint32 code has no such cardinality.
  std::vector<std::uint32_t> cards(static_cast<std::size_t>(raw.width()), 1);
  for (std::size_t r = 0; r < raw.size(); ++r) {
    for (int c = 0; c < raw.width(); ++c) {
      const Key code = raw.key(r, c);
      if (code == std::numeric_limits<Key>::max()) {
        throw SncubeError("input column " + std::to_string(c + 1) +
                          " holds code " + std::to_string(code) +
                          "; codes must be below 2^32-1");
      }
      cards[static_cast<std::size_t>(c)] =
          std::max(cards[static_cast<std::size_t>(c)], code + 1);
    }
  }
  // Schema orders dimensions by decreasing cardinality and names CSV column
  // j "D<j>"; bring the facts into that order.
  const Schema schema(cards);
  const int d = schema.dims();
  const std::vector<int> columns = ColumnsByDefaultName(schema);
  if (!std::is_sorted(columns.begin(), columns.end())) {
    raw = PermuteColumns(raw, columns);
  }

  // View selection.
  const AnalyticEstimator est(schema, static_cast<double>(raw.size()));
  std::vector<ViewId> selected;
  if (const auto count = args.Get("views")) {
    // The lattice refuses d > kMaxDims; the clamp keeps the shift defined.
    const std::uint32_t all = 1u << std::min(d, ViewId::kMaxDims);
    selected = GreedySelectViews(
        d, static_cast<int>(ParseFlagNumber("--views", *count, 1u, all)), est);
  } else if (fraction) {
    selected = GreedySelectFraction(d, *fraction, est);
  } else {
    selected = AllViews(d);
  }

  const auto trace_out = args.Get("trace-out");
  const auto summary_out = args.Get("summary-out");
  // Tracing needs the simulated clock, which only exists on the Cluster
  // path — so a traced single-processor build runs as a 1-rank cluster
  // (BuildParallelCube at p == 1 produces the same views as SequentialCube).
  const bool traced = trace_out.has_value() || summary_out.has_value();

  WallTimer timer;
  std::uint64_t rows_total = 0;
  if (p == 1 && !traced) {
    // Streamed build: each view is written, and freed, as soon as the last
    // pipeline that reads it has run, so the peak is the input plus the
    // schedule tree's live frontier, not the cube. The kernels find the
    // pool (inert at W = 1) through exec::CurrentPool(), as on a rank
    // thread.
    exec::TaskPool pool(threads_per_rank);
    const exec::PoolScope pool_scope(&pool);
    ViewStore::Writer writer(ViewStore(out), schema);
    SequentialCube(raw, schema, selected, AggFn::kSum, nullptr, nullptr,
                   PartialStrategy::kPrunedPipesort, [&](ViewResult view) {
                     if (!view.selected) return;  // auxiliary: not stored
                     rows_total += view.rel.size();
                     writer.Write(view);
                   });
    writer.Commit();
  } else {
    // Simulated shared-nothing build. Each Di-partition's views are written
    // into --out as soon as every rank has merged its shard of them.
    Cluster cluster(p);
    cluster.set_threads_per_rank(threads_per_rank);
    if (!fault_plan.empty()) cluster.set_fault_plan(fault_plan);
    obs::TraceSink trace_sink;
    if (traced) cluster.set_trace_sink(&trace_sink);
    PartitionWriter writer(ViewStore(out), schema, selected, p, resume);
    writer.Attach(opts);
    try {
      cluster.Run([&](Comm& comm) {
        // Deal rows round-robin to ranks (the paper's "distributed
        // arbitrarily" input).
        Relation slice(raw.width());
        for (std::size_t r = comm.rank(); r < raw.size();
             r += static_cast<std::size_t>(comm.size())) {
          slice.AppendRow(raw, r);
        }
        BuildParallelCube(comm, slice, schema, selected, opts);
      });
    } catch (const ClusterAbortedError& e) {
      writer.Abandon();
      std::fprintf(stderr,
                   "build aborted: %s\nthe view files of the finished "
                   "partitions are in %s; rerun with --resume (and without "
                   "the fault) to finish the build\n",
                   e.what(), out.c_str());
      return 3;
    }
    std::printf("simulated %d-processor build: %.2f s simulated parallel "
                "time, %.1f MB communicated\n",
                p, cluster.SimTimeSeconds(),
                cluster.BytesSent() / 1048576.0);
    if (traced) {
      const std::vector<obs::RankTrace> ranks = trace_sink.Snapshot();
      obs::MetricsRegistry registry;
      obs::AbsorbRunStats(registry, cluster.stats(), cluster.SimTimeSeconds());
      const std::string summary = obs::RunSummaryJson(
          cluster.stats(), cluster.SimTimeSeconds(), &ranks, &registry);
      if (trace_out) {
        obs::WriteTextFile(*trace_out, obs::ChromeTraceJson(ranks));
        std::fprintf(stderr, "trace: %s (span coverage %.1f%%)\n",
                     trace_out->c_str(), 100.0 * obs::SpanCoverage(ranks));
      }
      if (summary_out) obs::WriteTextFile(*summary_out, summary);
      std::printf("%s\n", summary.c_str());
    }
    writer.Commit();
    rows_total = writer.rows();
  }
  std::printf("built %zu views (%llu rows) into %s in %.2f s\n",
              selected.size(), static_cast<unsigned long long>(rows_total),
              out.c_str(), timer.Seconds());
  return 0;
}

int CmdInfo(const Args& args) {
  const CubeManifest manifest = ViewStore(args.Require("cube")).LoadManifest();
  const Schema& schema = manifest.schema;
  std::printf("schema:");
  for (int i = 0; i < schema.dims(); ++i) {
    std::printf(" %s(%u)", schema.name(i).c_str(), schema.cardinality(i));
  }
  std::printf("\nviews:\n");
  std::uint64_t rows = 0;
  for (const ViewEntry& entry : manifest.views) {
    std::printf("  %-12s %10llu rows\n", entry.id.Name(schema).c_str(),
                static_cast<unsigned long long>(entry.rows));
    rows += entry.rows;
  }
  std::printf("total: %llu rows\n", static_cast<unsigned long long>(rows));
  return 0;
}

// Appends an answer's rows: keys then measure, comma-separated, each row a
// JSON array (comma-joined) or a text line.
void AppendRows(std::string& out, const Relation& rel, bool json) {
  char num[24];
  const auto put = [&](auto value) {
    out.append(num, std::to_chars(num, num + sizeof(num), value).ptr);
  };
  out.reserve(out.size() + rel.size() * (rel.RowBytes() * 3 + 4));
  for (std::size_t r = 0; r < rel.size(); ++r) {
    if (json) out += r ? ",[" : "[";
    for (const Key k : rel.RowKeys(r)) {
      put(k);
      out += ',';
    }
    put(static_cast<long long>(rel.measure(r)));
    out += json ? ']' : '\n';
  }
}

int CmdQuery(const Args& args) {
  const ViewStore store(args.Require("cube"));
  const CubeManifest manifest = store.LoadManifest();
  const Schema& schema = manifest.schema;

  Query q;
  std::vector<int> dims;
  for (const auto& name : SplitCommas(args.Require("group-by"))) {
    dims.push_back(DimIndexByName(schema, name));
  }
  q.group_by = ViewId::FromDims(dims);
  if (const auto where = args.Get("where")) {
    for (const auto& clause : SplitCommas(*where)) {
      const auto eq = clause.find('=');
      if (eq == std::string::npos) Usage("--where expects name=value");
      const std::string name = clause.substr(0, eq);
      q.filters.push_back(
          {DimIndexByName(schema, name),
           ParseFlagNumber<Key>("--where " + name, clause.substr(eq + 1))});
    }
  }
  if (args.Has("min")) q.fn = AggFn::kMin;
  if (args.Has("max")) q.fn = AggFn::kMax;
  if (const auto top = args.Get("top")) {
    q.top_k = static_cast<int>(ParseFlagNumber<std::uint32_t>(
        "--top", *top, 0, std::numeric_limits<int>::max()));
  }

  // Route on the index, then load only the routed view and answer from it.
  const ViewEntry& routed = RouteQuery(q, manifest.views);
  q.from_view = routed.id;
  CubeResult cube;
  cube.views.emplace(routed.id, store.Load(routed));
  const CubeQueryEngine engine(cube);

  const auto trace_out = args.Get("trace-out");
  WallClockSource trace_clock;
  obs::TraceRecorder trace_recorder(0, &trace_clock);

  WallTimer timer;
  QueryAnswer answer;
  {
    // Single-query trace: rank 0 = the one CLI thread, wall-clock stamps.
    obs::ThreadRecorderScope trace_scope(trace_out ? &trace_recorder
                                                   : nullptr);
    answer = engine.Execute(q);
  }
  const double wall_s = timer.Seconds();
  if (trace_out) {
    std::vector<obs::RankTrace> ranks;
    ranks.push_back(trace_recorder.Finish());
    obs::WriteTextFile(*trace_out, obs::ChromeTraceJson(ranks));
    std::fprintf(stderr, "trace: %s\n", trace_out->c_str());
  }

  // The answer is formatted into one buffer and written once.
  const bool json = args.Has("json");
  std::string out;
  char head[160];
  if (json) {
    // Machine-readable record for load drivers and dashboards.
    std::snprintf(head, sizeof(head),
                  "{\"answered_from\":\"%s\",\"rows_scanned\":%llu,"
                  "\"wall_s\":%.6f,\"columns\":[",
                  answer.answered_from.Name(schema).c_str(),
                  static_cast<unsigned long long>(answer.rows_scanned), wall_s);
    out += head;
    const auto group_dims = q.group_by.DimList();
    for (std::size_t i = 0; i < group_dims.size(); ++i) {
      out += (i ? ",\"" : "\"") + schema.name(group_dims[i]) + '"';
    }
    out += "],\"rows\":[";
    AppendRows(out, answer.rel, true);
    out += "]}\n";
  } else {
    std::snprintf(head, sizeof(head),
                  "-- answered from view %s (%llu rows scanned, %.3f ms)\n",
                  answer.answered_from.Name(schema).c_str(),
                  static_cast<unsigned long long>(answer.rows_scanned),
                  wall_s * 1e3);
    out += head;
    for (int i : q.group_by.DimList()) out += schema.name(i) + ',';
    out += "measure\n";
    AppendRows(out, answer.rel, false);
  }
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

// refresh: one offline delta-ingestion pass over a cube directory — cube
// the delta over the affected views, merge, commit the next epoch. The
// online counterpart (epoch swap under live traffic) is serve
// --refresh-every.
int CmdRefresh(const Args& args) {
  const ViewStore store(args.Require("cube"));
  const CubeManifest manifest = store.LoadManifest();
  const Schema& schema = manifest.schema;

  const std::string delta_path = args.Require("delta");
  std::ifstream is(delta_path);
  if (!is.good()) Usage(("cannot read " + delta_path).c_str());
  Relation delta = ReadCsv(is);
  if (!delta.empty() && delta.width() != schema.dims()) {
    Usage("delta column count does not match the cube's dimensionality");
  }
  // The delta's columns are in the facts' CSV order: column j is "D<j>".
  const std::vector<int> columns = ColumnsByDefaultName(schema);
  if (!delta.empty() && !std::is_sorted(columns.begin(), columns.end())) {
    delta = PermuteColumns(delta, columns);
  }

  WallTimer timer;
  const StoreRefreshResult result = RefreshViewStore(store, manifest, delta);
  std::printf("{\"delta_rows\":%zu,\"views_refreshed\":%zu,"
              "\"merged_rows\":%llu,\"epoch\":%llu,\"wall_s\":%.4f}\n",
              delta.size(), result.views_refreshed,
              static_cast<unsigned long long>(result.merged_rows),
              static_cast<unsigned long long>(result.epoch), timer.Seconds());
  return 0;
}

// What `serve --shards N` (N >= 2) reads beyond the single-server flags:
// the router's policies, the serve-tier fault plan and the online refresh.
struct ShardedServeOptions {
  int shards = 1;
  RouterOptions router;
  FaultPlan plan;
  std::int64_t refresh_every = 0;
  std::int64_t refresh_rows = 1000;
};

// serve --shards N (N >= 2): slice the cube over N in-process shard nodes
// and replay the mix through the resilient Router instead of one CubeServer.
// Runs on the wall clock; any --fault-plan serve clauses key on the router's
// request sequence numbers, so a plan stays meaningful at any request rate.
int CmdServeSharded(const Args& args, const CubeResult& cube,
                    const Schema& schema, const ServerOptions& server_opts,
                    const QueryMix& mix, const WorkloadSpec& wspec,
                    std::int64_t total_queries, int clients,
                    const ShardedServeOptions& sharded) {
  const int shards = sharded.shards;
  const std::int64_t refresh_every = sharded.refresh_every;
  const std::int64_t refresh_rows = sharded.refresh_rows;
  ShardSetOptions sopts;
  sopts.shards = shards;
  sopts.server = server_opts;
  ShardSet shard_set(cube, sopts, sharded.plan);
  Router router(shard_set, sharded.router);

  // Online refresh under traffic: a background coordinator ingests a
  // synthetic delta (deterministic: seed 7777+k for the k-th refresh) and
  // two-phase-swaps the refreshed epoch in after every `refresh_every`
  // routed queries. Clients keep hammering the router throughout — each
  // request answers from exactly one pinned epoch.
  std::atomic<std::int64_t> processed{0};
  std::atomic<bool> serve_done{false};
  std::unique_ptr<RefreshCoordinator> refresher;
  std::thread refresh_thread;
  // A store at the default path is this process's scratch, removed once
  // serving ends; a --snapshot-dir store is the user's and stays.
  const auto snapshot_dir = args.Get("snapshot-dir");
  RefreshOptions refresh_opts;
  refresh_opts.dir = snapshot_dir.value_or(
      (std::filesystem::temp_directory_path() /
       ("sncube_serve_refresh_" + std::to_string(::getpid()))).string());
  if (refresh_every > 0) {
    refresher = std::make_unique<RefreshCoordinator>(
        shard_set,
        std::shared_ptr<const CubeResult>(&cube, [](const CubeResult*) {}),
        schema, refresh_opts);
    refresh_thread = std::thread([&] {
      DatasetSpec dspec;
      dspec.rows = refresh_rows;
      for (int i = 0; i < schema.dims(); ++i) {
        dspec.cardinalities.push_back(schema.cardinality(i));
      }
      for (std::uint64_t k = 1;
           !serve_done.load(std::memory_order_acquire);) {
        if (processed.load(std::memory_order_acquire) <
            static_cast<std::int64_t>(k) * refresh_every) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        dspec.seed = 7777 + k;
        try {
          refresher->Refresh(GenerateDataset(dspec));
        } catch (const SncubeError& e) {
          std::fprintf(stderr, "refresh failed: %s\n", e.what());
          break;
        }
        ++k;
      }
    });
  }

  WallTimer timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(wspec.seed + 1000003ULL * static_cast<std::uint64_t>(c + 1));
      const std::int64_t n = total_queries / clients +
                             (c < total_queries % clients ? 1 : 0);
      for (std::int64_t i = 0; i < n; ++i) {
        router.Execute(mix.Sample(rng));
        processed.fetch_add(1, std::memory_order_release);
      }
    });
  }
  for (auto& t : threads) t.join();
  serve_done.store(true, std::memory_order_release);
  if (refresh_thread.joinable()) refresh_thread.join();
  const double wall_s = timer.Seconds();
  if (refresher && !snapshot_dir) {
    std::filesystem::remove_all(refresh_opts.dir);
  }

  if (const auto summary_out = args.Get("summary-out")) {
    obs::MetricsRegistry registry;
    AbsorbRouterStats(registry, router);
    for (int s = 0; s < shards; ++s) {
      AbsorbServerStats(registry, shard_set.primary_server(s));
      AbsorbServerStats(registry, shard_set.replica_server(s));
    }
    obs::WriteTextFile(*summary_out, registry.ToJson());
  }
  const RouterStatsSnapshot stats = router.Stats();
  const std::uint64_t refresh_epochs = shard_set.serving_epoch();
  shard_set.Shutdown();
  std::printf("{\"shards\":%d,\"clients\":%d,\"queries\":%lld,"
              "\"wall_s\":%.4f,\"qps\":%.0f,\"refresh_epochs\":%llu,"
              "\"router\":%s}\n",
              shards, clients, static_cast<long long>(total_queries), wall_s,
              static_cast<double>(total_queries) / wall_s,
              static_cast<unsigned long long>(refresh_epochs),
              stats.ToJson().c_str());
  return 0;
}

int CmdServe(const Args& args) {
  if (!args.Has("bench")) {
    Usage("serve currently requires --bench (replay a synthetic query mix)");
  }
  // Every flag is parsed and checked against the mode before the cube loads.
  ServerOptions opts;
  opts.workers = static_cast<int>(
      FlagOr<std::uint32_t>(args, "workers", 4, 1, kThreadBudget));
  opts.queue_depth = FlagOr<std::uint64_t>(args, "queue-depth", 256, 1);
  opts.cache_bytes = FlagOr<std::uint64_t>(args, "cache-mb", 64, 0,
                                           std::uint64_t{1} << 40)
                     << 20;
  WorkloadSpec wspec;
  if (const auto alpha = args.Get("alpha")) {
    wspec.alpha = ParseFlagReal("--alpha", *alpha);
    if (wspec.alpha < 0) Usage("--alpha must be >= 0");
  }
  wspec.seed = FlagOr<std::uint64_t>(args, "seed", 42);
  const auto total_queries = FlagOr<std::int64_t>(args, "queries", 20000, 1);
  const auto clients = static_cast<int>(
      FlagOr<std::uint32_t>(args, "clients", 8, 1, kThreadBudget));

  ShardedServeOptions sharded;
  sharded.shards = static_cast<int>(
      FlagOr<std::uint32_t>(args, "shards", 1, 1, kThreadBudget));
  if (sharded.shards == 1) {
    RefuseFlags(args,
                {"fault-plan", "per-try-ms", "retries", "hedge-ms",
                 "breaker-failures", "breaker-cooldown-ms", "refresh-every",
                 "refresh-rows", "snapshot-dir"},
                "requires --shards >= 2");
  } else {
    RefuseFlags(args, {"trace-out"}, "requires --shards 1");
    RouterOptions& ropts = sharded.router;
    ropts.per_try_us =
        1000 * FlagOr<std::uint64_t>(args, "per-try-ms", 50, 0, kMaxMs);
    ropts.max_tries = 1 + static_cast<int>(FlagOr<std::uint32_t>(
                              args, "retries", 2, 0, kIntMax - 1));
    ropts.hedge_delay_us =
        1000 * FlagOr<std::uint64_t>(args, "hedge-ms", 0, 0, kMaxMs);
    ropts.breaker.failure_threshold = static_cast<int>(
        FlagOr<std::uint32_t>(args, "breaker-failures", 5, 1, kIntMax));
    ropts.breaker.cooldown_us =
        1000 *
        FlagOr<std::uint64_t>(args, "breaker-cooldown-ms", 250, 0, kMaxMs);
    if (const auto spec = args.Get("fault-plan")) {
      try {
        sharded.plan = FaultPlan::Parse(*spec);
      } catch (const SncubeError& e) {
        Usage(("--fault-plan: " + std::string(e.what())).c_str());
      }
    }
    sharded.refresh_every = FlagOr<std::int64_t>(args, "refresh-every", 0);
    if (sharded.refresh_every == 0) {
      RefuseFlags(args, {"refresh-rows", "snapshot-dir"},
                  "requires --refresh-every >= 1");
    }
    sharded.refresh_rows = FlagOr<std::int64_t>(args, "refresh-rows", 1000, 1);
    // The refreshes start their store empty: it must not be the served cube.
    std::error_code ec;
    if (const auto dir = args.Get("snapshot-dir");
        dir && std::filesystem::equivalent(*dir, args.Require("cube"), ec)) {
      Usage("--snapshot-dir must not be the --cube directory");
    }
  }
  // The clients, the servers, and the refresh thread when refreshing.
  const bool refreshing = sharded.refresh_every > 0;
  CheckThreads({"--workers", "--clients", "--shards"},
               clients + (sharded.shards == 1
                              ? opts.workers
                              : ShardSetThreads(sharded.shards, opts.workers,
                                                refreshing) +
                                    (refreshing ? 1 : 0)));

  const ViewStore store(args.Require("cube"));
  const Schema schema = store.LoadManifest().schema;
  const CubeResult cube = store.LoadCube();
  const QueryMix mix(cube, schema, wspec);
  if (sharded.shards >= 2) {
    return CmdServeSharded(args, cube, schema, opts, mix, wspec,
                           total_queries, clients, sharded);
  }

  const auto trace_out = args.Get("trace-out");
  const auto summary_out = args.Get("summary-out");
  obs::TraceSink trace_sink;
  if (trace_out) opts.trace = &trace_sink;

  CubeServer server(cube, opts);
  WallTimer timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(wspec.seed + 1000003ULL * static_cast<std::uint64_t>(c + 1));
      const std::int64_t n = total_queries / clients +
                             (c < total_queries % clients ? 1 : 0);
      for (std::int64_t i = 0; i < n; ++i) {
        // Closed loop: each client waits for its answer before the next
        // query; rejections (overload) count and move on.
        server.Execute(mix.Sample(rng));
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = timer.Seconds();
  // Absorb before Shutdown: the server (and its histogram) stays alive, and
  // all worker writes happened-before the client joins above.
  if (summary_out) {
    obs::MetricsRegistry registry;
    AbsorbServerStats(registry, server);
    obs::WriteTextFile(*summary_out, registry.ToJson());
  }
  server.Shutdown();
  if (trace_out) {
    obs::WriteTextFile(*trace_out, obs::ChromeTraceJson(trace_sink.Snapshot()));
    std::fprintf(stderr, "trace: %s\n", trace_out->c_str());
  }

  const StatsSnapshot stats = server.Stats();
  std::printf("{\"workers\":%d,\"clients\":%d,\"queries\":%lld,"
              "\"wall_s\":%.4f,\"qps\":%.0f,\"stats\":%s}\n",
              opts.workers, clients,
              static_cast<long long>(total_queries), wall_s,
              static_cast<double>(total_queries) / wall_s,
              stats.ToJson().c_str());
  return 0;
}

// The flags every chaos search reads; each defaults to the search's own
// option value.
void ParseChaosFlags(const Args& args, chaos::SearchOptions& opts) {
  opts.plans = static_cast<int>(
      FlagOr<std::uint32_t>(args, "plans", opts.plans, 1, kIntMax));
  opts.seed = FlagOr<std::uint64_t>(args, "seed", opts.seed);
  opts.rows = FlagOr<std::uint64_t>(args, "rows", opts.rows, 1);
  opts.verbose = args.Has("verbose");
}

// ParseChaosFlags plus the serve and refresh searches' --requests and
// --shards. A trial's shard set hosts up to three epochs in the refresh
// search.
void ParseServingChaosFlags(const Args& args,
                            chaos::ServingSearchOptions& opts,
                            bool refreshing) {
  ParseChaosFlags(args, opts);
  opts.requests = static_cast<int>(
      FlagOr<std::uint32_t>(args, "requests", opts.requests, 1, kIntMax));
  if (const auto shards = args.Get("shards")) {
    opts.shard_counts = ParseFlagList<int>("--shards", *shards, 2,
                                           static_cast<int>(kThreadBudget));
  }
  for (const int n : opts.shard_counts) {
    CheckThreads({"--shards"},
                 ShardSetThreads(n, chaos::kTrialWorkers, refreshing));
  }
}

// Prints a chaos search's report and appends each minimal failing plan to
// --fail-out as "<procs> <spec>" (ChaosFailure::procs carries the shard
// count in the serve and refresh searches), so the nightly corpus handles
// every tier uniformly. Exit 0 when every trial upheld its invariant, 4
// otherwise.
int ReportChaos(const Args& args, const chaos::ChaosReport& report) {
  std::printf("%s\n", report.ToJson().c_str());
  const auto fail_out = args.Get("fail-out");
  if (fail_out && !report.ok()) {
    // sncheck:allow(raw-file-write): a plain-text plan list for reruns, not a cube artifact
    std::ofstream os(*fail_out, std::ios::app);
    if (!os.good()) Usage(("cannot write " + *fail_out).c_str());
    for (const auto& f : report.failures) {
      os << f.procs << ' ' << f.plan.ToSpec() << '\n';
    }
    std::fprintf(stderr, "minimal failing plans: %s\n", fail_out->c_str());
  }
  return report.ok() ? 0 : 4;
}

// chaos: the build search; --serve, the serving-tier search; --refresh,
// the online-refresh search (old or new, never a blend). All three share
// --plans/--seed/--rows/--fail-out/--verbose.
int CmdChaos(const Args& args) {
  const bool serve = args.Has("serve");
  const bool refresh = args.Has("refresh");
  if (serve && refresh) Usage("--serve and --refresh are exclusive");
  if (serve || refresh) {
    RefuseFlags(args, {"procs"}, "belongs to the build search (no --serve or "
                                 "--refresh)");
  } else {
    RefuseFlags(args, {"shards", "requests"}, "requires --serve or --refresh");
  }
  if (refresh) {
    chaos::RefreshChaosOptions opts;
    ParseServingChaosFlags(args, opts, /*refreshing=*/true);
    return ReportChaos(args, chaos::RunRefreshChaosSearch(opts));
  }
  if (serve) {
    chaos::ServeChaosOptions opts;
    ParseServingChaosFlags(args, opts, /*refreshing=*/false);
    return ReportChaos(args, chaos::RunServeChaosSearch(opts));
  }
  chaos::ChaosOptions opts;
  ParseChaosFlags(args, opts);
  if (const auto procs = args.Get("procs")) {
    opts.procs = ParseFlagList<int>("--procs", *procs, 2,
                                    static_cast<int>(kThreadBudget));
  }
  return ReportChaos(args, chaos::RunBuildChaosSearch(opts));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage();
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    std::fputs(kHelpText, stdout);
    return 0;
  }
  // Each command with the flags it reads (kHelpText documents them).
  struct Command {
    const char* name;
    int (*run)(const Args&);
    FlagSpec flags;
  };
  const Command commands[] = {
      {"generate", CmdGenerate, {{"rows", "cards", "alphas", "seed", "out"}, {}}},
      {"build",
       CmdBuild,
       {{"in", "out", "procs", "threads-per-rank", "views", "fraction",
         "gamma", "fault-plan", "trace-out", "summary-out"},
        {"local-trees", "resume"}}},
      {"info", CmdInfo, {{"cube"}, {}}},
      {"query",
       CmdQuery,
       {{"cube", "group-by", "where", "top", "trace-out"},
        {"min", "max", "json"}}},
      {"refresh", CmdRefresh, {{"cube", "delta"}, {}}},
      {"serve",
       CmdServe,
       {{"cube", "workers", "clients", "queries", "queue-depth", "cache-mb",
         "alpha", "seed", "trace-out", "summary-out", "shards", "fault-plan",
         "per-try-ms", "retries", "hedge-ms", "breaker-failures",
         "breaker-cooldown-ms", "refresh-every", "refresh-rows",
         "snapshot-dir"},
        {"bench"}}},
      {"chaos",
       CmdChaos,
       {{"plans", "seed", "procs", "rows", "fail-out", "shards", "requests"},
        {"verbose", "serve", "refresh"}}},
  };
  for (const Command& c : commands) {
    if (cmd != c.name) continue;
    try {
      return c.run(Args(cmd, argc - 2, argv + 2, c.flags));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  Usage(("unknown command: " + cmd).c_str());
}
