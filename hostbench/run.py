#!/usr/bin/env python3
"""Host-clock benchmark of the whole sncube path.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run builds the `sncube` CLI
and the in-process driver (hostbench/driver.cc) into .bench_build/ with
CMake; later runs reuse that build.

Every run, on the workload's data:
  set-up    `sncube generate` writes the facts and an offline delta, and the
            driver computes reference answers for the check queries from the
            CSVs with its own parser (repeated SETUP_REPS times; median).
  offline   iterations of the user path as child processes, each timed
            with wait4: `build` at p=1, `--procs 4` and `--threads-per-rank 4`,
            three `query --json` check queries against every built cube (in
            later iterations a p4 or W4 cube byte-identical to the p1 cube is
            not queried again), then `refresh` of the p1 and W4 cubes with
            the delta and the check queries again. The p=4 and W=4 builds
            report CPU seconds (user + system): their wall time follows how
            many of the 4 vCPUs the shared host hands out at once, not the
            code.
  online    `hostbench_driver serve`: builds the cube, rolls per-epoch goldens
            and starts a 2-shard ShardSet (set-up), then 2 closed-loop clients
            call Router::Execute while RefreshCoordinator swaps in
            SWAPS_PER_WINDOW epochs. The serving threads share one vCPU (see
            PinToOneCpu in driver.cc).
The run alternates offline and online halves twice, at least one offline
iteration each, so both paths sample the whole run rather than one stretch
of a shared host's background load; the online metrics pool both windows.

Every answer is checked: check queries against the references (facts, then
facts + delta after refresh), p4 and W4 answers against p1's, and every
served answer against the golden of an epoch that was serving during the
request. A wrong answer makes `correct` false and the exit code 1.

--trace 1 instead runs one untraced offline iteration, then hostbench_driver's
traced run of every layer in the same step order, prints per-layer metrics,
the sim-beside-host rows and the traced-vs-untraced step table, and writes
a Chrome trace to .bench_build/traces/.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1). A stamp
(machine, compiler, build type, file system, seed, source digest) and the raw
samples go to the line before it and to .bench_build/results/.

--scale shrinks every row count (smoke_test.py runs at 0.02);
--corrupt-reference perturbs one reference answer and one golden, so the run
must fail (the checker's own test).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
PAPER_CARDS = [256, 128, 64, 32, 16, 8, 6, 4]

# rows/delta: fact and offline-delta rows at scale 1. offline: share of
# --seconds for the CLI iterations; the rest is the serving windows. Row
# counts are a quarter to a half of the paper-scale mixes so that a run of
# 45 s holds several iterations of every step. A uniform 8-dimension
# workload was dropped: its light, cache-hit-dominated serving spread
# 0.3-0.45 (IQR/median over seeds) on a shared 4-vCPU host, beyond any bound.
WORKLOADS = {
    # Input-bound: alpha=2 on every dimension collapses duplicates heavily,
    # so CSV parsing, the root sort and sample-sort partitioning dominate the
    # builds and Merge-Partitions moves more data than on uniform input,
    # while the cube (and its persistence) stays small. Its query pool is 4x
    # larger, a working set beyond the result caches.
    "cube_skew": dict(rows=125000, delta=12500, cards=PAPER_CARDS,
                      alphas=[2.0] * 8, offline=0.65, pool=1024),
    # Output-bound builds (a cube of ~34x the input's rows), then for half
    # the run the closed loop: query/serve/refresh with epoch swaps beside
    # the reads.
    "serve_refresh": dict(rows=100000, delta=2000,
                          cards=[256, 128, 64, 32, 16, 8], alphas=None,
                          offline=0.5, pool=256),
}
SETUP_REPS = 3
SERVE_WINDOWS = 2
SWAPS_PER_WINDOW = 3
SERVE_DELTA_SHARE = 0.02  # online delta rows per refresh, share of facts

END_TO_END_UNITS = {
    "setup_s": "s", "build_p1_s": "s", "build_p4_cpu_s": "s",
    "build_w4_cpu_s": "s",
    "build_p1_rss_mb": "MB", "build_p4_rss_mb": "MB", "cube_mb": "MB",
    "query_s": "s", "refresh_s": "s", "refresh_rss_mb": "MB",
    "serve_qps": "1/s", "serve_p50_ms": "ms", "serve_p99_ms": "ms",
    "swap_s": "s", "serve_rss_mb": "MB",
}


def per_layer_unit(name):
    for suffix, unit in (("_mrows_per_s", "Mrows/s"), ("_s", "s"),
                         ("_mb", "MB"), ("_us", "us"), ("_ms", "ms"),
                         ("_rows", "count")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("_rate", "_share", "_per_row", "_per_request",
                      "_per_delta_mb")):
        return "ratio"
    return "count"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Checks:
    """Operations attempted and failed, and the wrong answers among them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def fail(self, what, wrong=False):
        self.failed += 1
        self.wrong += int(wrong)
        log(("WRONG ANSWER: " if wrong else "FAILED: ") + what)


def build_tools():
    for needed in (ROOT / "src", ROOT / "tools" / "sncube_cli.cc"):
        if not needed.exists():
            sys.exit(f"hostbench: {needed} is missing; run from a source tree")
    cmake_dir = BUILD / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "hostbench"), "-B",
                        str(cmake_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(cmake_dir), "-j",
                    str(os.cpu_count() or 1), "--target", "sncube",
                    "hostbench_driver"], check=True, stdout=sys.stderr)
    return cmake_dir / "tools" / "sncube", cmake_dir / "hostbench_driver"


def run_child(argv, out_path):
    """Runs argv with stdout to out_path; returns (exit code, wall s, RSS MB,
    CPU s)."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=out)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # e.g. SystemExit from SIGTERM: stop the child
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            usage.ru_utime + usage.ru_stime)


def dir_mb(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*")
               if f.is_file()) / 2**20


def same_files(a, b):
    """True when directories a and b hold the same files, byte for byte."""
    names = sorted(f.name for f in Path(a).iterdir())
    return names == sorted(f.name for f in Path(b).iterdir()) and all(
        (Path(a) / n).read_bytes() == (Path(b) / n).read_bytes() for n in names)


def fs_type(path):
    """File-system type of the mount holding `path`, from /proc/mounts."""
    best, kind = "", "unknown"
    path = str(Path(path).resolve())
    with open("/proc/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            mnt = fields[1]
            if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                    and len(mnt) > len(best):
                best, kind = mnt, fields[2]
    return kind


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout may not be
    a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "hostbench", "bench"):
        for f in sorted((ROOT / top).rglob("*")):
            if f.is_file() and f.suffix in (".cc", ".h", ".txt", ".py"):
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def last_json_line(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


class Run:
    def __init__(self, args, sncube, driver):
        self.args = args
        self.w = WORKLOADS[args.workload]
        self.sncube, self.driver = sncube, driver
        self.work = BUILD / "runs" / f"{args.workload}-s{args.seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.checks = Checks()
        self.samples = {}
        self.latency_ms = []
        self.rows = max(500, int(self.w["rows"] * args.scale))
        self.delta_rows = max(50, int(self.w["delta"] * args.scale))
        self.cards = ",".join(map(str, self.w["cards"]))
        d = len(self.w["cards"])
        # A large 3-dimension group-by, a filtered 2-dimension one, and a
        # top-k over the smallest 2-dimension view. Driver spec "G|W|K".
        self.queries = [
            (["D0", "D1", "D2"], [], "0,1,2||0"),
            (["D2", "D4"], ["--where", "D1=1"], "2,4|1=1|0"),
            ([f"D{d - 2}", f"D{d - 1}"], ["--top", "5"], f"{d - 2},{d - 1}||5"),
        ]

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def gen_flags(self):
        flags = ["--cards", self.cards]
        if self.w["alphas"]:
            flags += ["--alphas", ",".join(map(str, self.w["alphas"]))]
        return flags

    def cli(self, *argv):
        """One sncube operation; returns (wall s, RSS MB, stdout, CPU s) or
        None."""
        self.checks.attempted += 1
        out = self.work / "stdout.txt"
        code, wall, rss, cpu = run_child([self.sncube, *argv], out)
        if code != 0:
            self.checks.fail(f"sncube {' '.join(map(str, argv))} exited {code}")
            return None
        return wall, rss, out.read_text(), cpu

    # ---------------------------------------------------------- set-up --
    def setup(self):
        facts, delta = self.work / "facts.csv", self.work / "delta.csv"
        refs_path = self.work / "refs.json"
        times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.cli("generate", "--rows", self.rows, *self.gen_flags(),
                     "--seed", self.args.seed, "--out", facts)
            self.cli("generate", "--rows", self.delta_rows, *self.gen_flags(),
                     "--seed", self.args.seed + 1000000, "--out", delta)
            argv = [self.driver, "refs", "--facts", facts, "--delta", delta]
            for _, _, spec in self.queries:
                argv += ["--query", spec]
            if self.args.corrupt_reference:
                argv.append("--corrupt")
            code = run_child(argv, refs_path)[0]
            if code != 0:
                sys.exit("hostbench: reference computation failed")
            times.append(time.perf_counter() - t0)
        self.facts, self.delta = facts, delta
        self.refs = json.loads(refs_path.read_text())
        return statistics.median(times)

    # --------------------------------------------------------- offline --
    def query_all(self, cube, expected, label):
        """The check queries against one cube; returns their row lists."""
        answers = []
        for (group_by, extra, _), want in zip(self.queries, expected):
            res = self.cli("query", "--cube", cube, "--group-by",
                           ",".join(group_by), *extra, "--json")
            if res is None:
                answers.append(None)
                continue
            wall, _, out, _ = res
            self.sample("query_s", wall)
            rows = json.loads(out)["rows"]
            if rows != want:
                self.checks.fail(f"{label}: query {','.join(group_by)} "
                                 f"differs from the reference", wrong=True)
            answers.append(rows)
        return answers

    def build(self, out, name, *flags):
        res = self.cli("build", "--in", self.facts, "--out", out, *flags)
        if res is not None:
            self.sample(f"build_{name}_s", res[0])
            self.sample(f"build_{name}_rss_mb", res[1])
            self.sample(f"build_{name}_cpu_s", res[3])
        return res is not None

    def offline_iteration(self, query_every_cube):
        """One pass of the CLI steps: build at p1, p4 and W4, then refresh
        the p1 and W4 cubes (two refresh samples a pass). Every cube gets the
        check queries when query_every_cube; otherwise a cube byte-identical
        to its checked p1 twin passes without them (the builds write
        identical bytes), which leaves more of the run to the timed steps."""
        p1, w4 = self.work / "p1", self.work / "w4"
        base = None
        if self.build(p1, "p1"):
            self.sample("cube_mb", dir_mb(p1))
            base = self.query_all(p1, self.refs["facts"], "p1 cube")
        built = {}
        for name, flags in (("p4", ["--procs", "4"]),
                            ("w4", ["--threads-per-rank", "4"])):
            out = self.work / name
            built[name] = self.build(out, name, *flags)
            if built[name] and (query_every_cube or base is None
                                or not same_files(p1, out)):
                answers = self.query_all(out, self.refs["facts"], f"{name} cube")
                if base is not None and answers != base:
                    self.checks.fail(f"{name} cube answers differ from p1's",
                                     wrong=True)
        shutil.rmtree(self.work / "p4", ignore_errors=True)
        if base is not None:
            for cube in [p1] + ([w4] if built["w4"] else []):
                res = self.cli("refresh", "--cube", cube, "--delta", self.delta)
                if res is None:
                    continue
                self.sample("refresh_s", res[0])
                self.sample("refresh_rss_mb", res[1])
                if cube == p1 or query_every_cube or not same_files(p1, cube):
                    self.query_all(cube, self.refs["facts_delta"],
                                   f"refreshed {cube.name} cube")
        shutil.rmtree(p1, ignore_errors=True)
        shutil.rmtree(w4, ignore_errors=True)

    def offline(self, budget_s):
        """Iterations until the next would overrun budget_s; at least one."""
        t0 = time.perf_counter()
        while True:
            t1 = time.perf_counter()
            self.offline_iteration(query_every_cube=t1 == t0)
            now = time.perf_counter()
            if now - t0 + 0.5 * (now - t1) > budget_s:
                return

    def serve_window(self, window, seconds):
        latency_path = self.work / "latency.txt"
        res = self.drive("serve", seconds, "--window", window, "--refreshes",
                         SWAPS_PER_WINDOW, "--latency-out", latency_path)
        self.latency_ms += [float(l) for l in latency_path.read_text().split()]
        for name in ("serve_setup_s", "requests", "wall_s", "serve_rss_mb"):
            self.sample(name, res[name])
        self.samples.setdefault("swap_s", []).extend(res["swap_s"])

    def serve_metrics(self):
        """Online metrics pooled over every window; None where a failed
        request pushes a percentile past every limit."""
        lat = sorted(self.latency_ms)

        def pct(q):
            if not lat:
                return None
            v = lat[max(1, math.ceil(q * len(lat))) - 1]
            return v if math.isfinite(v) else None

        return {"serve_qps": sum(self.samples["requests"])
                / sum(self.samples["wall_s"]),
                "serve_p50_ms": pct(0.50), "serve_p99_ms": pct(0.99),
                "swap_s": median_of(self.samples, "swap_s"),
                "serve_rss_mb": max(self.samples["serve_rss_mb"])}

    # ---------------------------------------------------------- driver --
    def drive(self, mode, seconds, *extra):
        argv = [self.driver, mode, "--facts", self.facts, *self.gen_flags(),
                "--seed", self.args.seed, "--seconds", f"{seconds:.3f}",
                "--delta-rows", max(20, int(self.rows * SERVE_DELTA_SHARE)),
                "--pool", self.w["pool"],
                "--work", self.work, *extra]
        if self.args.corrupt_reference:
            argv.append("--corrupt")
        out_path = self.work / f"{mode}.out"
        code = run_child(argv, out_path)[0]
        text = out_path.read_text()
        print("\n".join(text.splitlines()[:-1]))
        res = last_json_line(text)
        if res is None or code not in (0, 1):
            sys.exit(f"hostbench: driver {mode} exited {code}")
        self.checks.attempted += int(res["attempted"])
        self.checks.failed += int(res["failed"])
        self.checks.wrong += int(res["wrong"])
        if res["wrong"]:
            log(f"WRONG ANSWER: {int(res['wrong'])} served answers match no "
                f"serving epoch's golden")
        return res


def median_of(samples, name):
    values = samples.get(name)
    return statistics.median(values) if values else None


def stamp(args, driver):
    info = json.loads(subprocess.run([str(driver), "stamp"], check=True,
                                     capture_output=True, text=True).stdout)
    info.update(nproc=len(os.sched_getaffinity(0)), seed=args.seed,
                workload=args.workload, seconds=args.seconds,
                scratch_fs=fs_type(BUILD), git_commit=git_commit(),
                source_sha256=source_digest(), scale=args.scale)
    return info


def print_step_table(steps, samples):
    print("\ntraced step total beside the untraced CLI step (gap = CLI glue "
          "+ tracing)")
    print(f"{'step':<10} {'traced_s':>10} {'untraced_s':>11}")
    for step, key in (("build_p1", "build_p1_s"), ("query", "query_s"),
                      ("build_p4", "build_p4_s"), ("build_w4", "build_w4_s"),
                      ("refresh", "refresh_s")):
        untraced = median_of(samples, key)
        print(f"{step:<10} {steps.get(step, 0):>10.3f} "
              f"{untraced if untraced is not None else float('nan'):>11.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--corrupt-reference", action="store_true")
    args = ap.parse_args()
    # On SIGTERM, unwind: run_child stops its child, `finally` clears scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    sncube, driver = build_tools()
    run = Run(args, sncube, driver)
    try:
        setup_s = run.setup()
        offline_s = args.seconds * run.w["offline"]
        serve_s = args.seconds - offline_s
        if args.trace:
            run.offline_iteration(query_every_cube=True)
            trace_out = BUILD / "traces" / f"{args.workload}-seed{args.seed}.json"
            trace_out.parent.mkdir(parents=True, exist_ok=True)
            res = run.drive("trace", serve_s, "--delta", run.delta,
                            "--query", run.queries[0][2],
                            "--trace-out", trace_out)
            print_step_table(res["steps"], run.samples)
            print(f"span file: {trace_out} ({int(res['spans'])} spans)")
            metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                       for k, v in res["metrics"].items()}
        else:
            for window in range(SERVE_WINDOWS):
                run.offline(offline_s / SERVE_WINDOWS)
                run.serve_window(window, serve_s / SERVE_WINDOWS)
            values = {name: median_of(run.samples, name)
                      for name in END_TO_END_UNITS}
            values.update(run.serve_metrics())
            values["setup_s"] = setup_s + median_of(run.samples,
                                                    "serve_setup_s")
            missing = [k for k, v in values.items() if v is None]
            if missing:
                log(f"FAILED: no samples for {', '.join(missing)}")
                run.checks.failed += 1
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in values.items() if v is not None}
            print(f"\n{'metric':<18} {'value':>12}  unit  samples")
            for k, m in metrics.items():
                n = len(run.samples.get(k, [1]))
                print(f"{k:<18} {m['value']:>12.4f}  {m['unit']:<5} {n}")
            for k in ("build_p4_s", "build_w4_s"):
                print(f"{k:<18} {median_of(run.samples, k):>12.4f}  s     "
                      f"{len(run.samples[k])}  (wall; not a metric)")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    result = {"correct": run.checks.wrong == 0,
              "attempted": run.checks.attempted,
              "failed": run.checks.failed, "metrics": metrics}
    record = {"stamp": stamp(args, driver), "samples": run.samples, **result}
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print("stamp: " + json.dumps(record["stamp"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
