#!/usr/bin/env python3
"""End-to-end check of `sncube build`/`query`/`refresh` on hand-made CSVs.

    python3 tools/cli_csv_test.py --binary path/to/sncube

1. Columns whose cardinalities are not in decreasing order: CSV column j is
   dimension D<j>, so `query --group-by D0` must group by the first CSV
   column, before and after a `refresh` whose delta has the same layout.
2. A CRLF copy of the facts answers the same.
3. Bad cells (negative, out of range, empty, non-numeric, trailing garbage,
   and the code 2^32-1) make `build` fail, naming the line or the code.
4. `build --procs 3` and `--threads-per-rank 2` write a cube directory
   byte-identical to `--procs 1`, MANIFEST included, full and partial, and
   so does each of two `refresh` runs over them.
5. `query --where`/`--top` reject malformed numbers with a usage error
   (exit 2), and directories of formats 1 to 3 (a text `manifest.txt`
   index) are refused with a hint to rebuild. Unknown flags (`query
   --wher`, `build --backend`/`--proc`, `refresh --snapshot-dir`),
   malformed or out-of-range numbers of `build`, `generate`, `serve` and
   `chaos` (comma lists included), and flags the chosen mode would ignore
   (`serve --retries` at one shard, `chaos --shards` without `--serve`,
   `build --gamma`/`--local-trees` at one processor)
   are usage errors too, with nothing on stdout and no output written.
6. Two `refresh` runs commit epochs 1 and 2; each leaves the MANIFEST and
   its epoch's segment only, and the answers are right.
7. One flipped byte in the view file a query routes to makes `query` exit
   nonzero with nothing on stdout, and `refresh` exit nonzero. One flipped
   byte in the last view in mask order makes `refresh` exit 1 after it has
   written every other view of the next epoch: the MANIFEST and every view
   file keep their bytes, and every check query answers byte-identically
   to before.
8. `info`, `query`, `refresh` and `serve` pointed at a missing directory
   exit 1 and leave no path behind.
9. `serve --refresh-every` without `--snapshot-dir` and the three `chaos`
   searches leave nothing in TMPDIR.
10. A `refresh` whose delta is a header-only CSV commits nothing, at the
   build's epoch and after a refresh: the MANIFEST and every view file keep
   their bytes and names, it prints the committed epoch, and the answers
   stay.
11. A `refresh` whose delta holds codes beyond the cardinalities the build
   inferred (up to 2^32-1, which `build` refuses) widens the stored keys:
   the answers are the sums over the facts and the delta, and `info` still
   prints the build's cardinalities.
12. A `build --procs 3` killed by a fault plan (exit 3) leaves a directory
   that `info` and `query` refuse; `build --resume` at `--procs 3` and at
   `--procs 2` each finish it byte-identical to the `--procs 1` build,
   every file and the MANIFEST included, and so does a resume after a real
   SIGKILL once the first view file has appeared. `--resume` at one
   processor and the removed `--checkpoint-dir` are usage errors, and so
   is any flag that would start more than 256 threads.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

# x has 2 values, y has 5: the schema orders them D1(10) D0(2).
FACTS = [(x, y, 10 * x + y + i) for i, (x, y) in enumerate(
    (i % 2, 5 + (i * 3) % 5) for i in range(40))]
DELTA = [(1, 9, 1000), (0, 5, 2000), (1, 6, 3000)]


def write_csv(path, rows, newline="\n"):
    lines = ["x,y,measure"] + [",".join(map(str, r)) for r in rows]
    path.write_bytes((newline.join(lines) + newline).encode())


def run(binary, *args):
    return subprocess.run([binary, *map(str, args)], capture_output=True,
                          text=True)


def group_by(binary, cube, dim):
    out = run(binary, "query", "--cube", cube, "--group-by", dim, "--json")
    if out.returncode != 0:
        raise AssertionError(f"query --group-by {dim} failed: {out.stderr}")
    record = json.loads(out.stdout)
    assert record["columns"] == [dim], record["columns"]
    return {row[0]: row[1] for row in record["rows"]}


def expected(rows, col):
    sums = defaultdict(int)
    for row in rows:
        sums[row[col]] += row[2]
    return dict(sums)


def check_answers(binary, cube, rows, what):
    for col, dim in ((0, "D0"), (1, "D1")):
        got = group_by(binary, cube, dim)
        want = expected(rows, col)
        if got != want:
            raise AssertionError(f"{what}: group-by {dim} gave {got}, "
                                 f"expected {want}")


def expect_build_error(binary, tmp, name, csv_text, needle):
    path = tmp / f"{name}.csv"
    path.write_text(csv_text)
    out = run(binary, "build", "--in", path, "--out", tmp / f"{name}_cube")
    if out.returncode == 0 or needle not in out.stderr:
        raise AssertionError(f"{name}: exit {out.returncode}, stderr "
                             f"{out.stderr!r} (expected failure naming "
                             f"{needle!r})")


def dir_bytes(path):
    return {f.name: f.read_bytes() for f in sorted(Path(path).iterdir())}


def manifest_records(cube):
    """The records of a cube directory's MANIFEST, seals (" crc <8-hex>")
    stripped."""
    return [line.rsplit(" crc ", 1)[0]
            for line in (Path(cube) / "MANIFEST").read_text().splitlines()]


def committed_index(cube):
    """(dimension names, epoch, [(mask, rows)]) of the newest commit."""
    records = manifest_records(cube)
    names = records[0].split()[3::2]
    prepared, epoch = {}, None
    for record in records[1:]:
        fields = record.split()
        if fields[0] == "prepare":
            prepared[fields[1]] = [(int(m, 16), int(r)) for m, r, _ in
                                   (f.split(":") for f in fields[2:])]
        elif fields[0] == "commit":
            epoch = fields[1]
    return names, int(epoch), prepared[epoch]


def view_file(cube, mask):
    """A built (epoch 0) view's own file."""
    return Path(cube) / f"v{mask:05x}.e0.sncv"


def check_parallel_builds_identical(binary, tmp):
    facts = tmp / "gen.csv"
    out = run(binary, "generate", "--rows", 3000, "--cards", "16,8,4,3",
              "--alphas", "1,0,2,0", "--seed", 5, "--out", facts)
    if out.returncode != 0:
        raise AssertionError(f"generate failed: {out.stderr}")
    for views in ([], ["--views", "5"]):
        dirs = {}
        for name, flags in (("p1", []), ("p3", ["--procs", "3"]),
                            ("w2", ["--threads-per-rank", "2"])):
            cube = tmp / f"gen_{name}{len(views)}"
            out = run(binary, "build", "--in", facts, "--out", cube, *flags,
                      *views)
            if out.returncode != 0:
                raise AssertionError(f"build {flags} failed: {out.stderr}")
            dirs[name] = cube
        if "MANIFEST" not in dir_bytes(dirs["p1"]):
            raise AssertionError("build wrote no MANIFEST")
        for step in ("build", "refresh 1", "refresh 2"):
            if step != "build":
                for cube in dirs.values():
                    out = run(binary, "refresh", "--cube", cube, "--delta",
                              facts)
                    if out.returncode != 0:
                        raise AssertionError(f"{step} failed: {out.stderr}")
            for name in ("p3", "w2"):
                if dir_bytes(dirs[name]) != dir_bytes(dirs["p1"]):
                    raise AssertionError(f"{name} {views} cube directory "
                                         f"differs from p1's after {step}")


def check_interrupted_build_resumes(binary, tmp):
    facts = tmp / "resume.csv"
    out = run(binary, "generate", "--rows", 4000, "--cards", "16,8,6,4,3",
              "--alphas", "1,0,0,1,0", "--seed", 9, "--out", facts)
    if out.returncode != 0:
        raise AssertionError(f"generate failed: {out.stderr}")
    ref = tmp / "resume_p1"
    out = run(binary, "build", "--in", facts, "--out", ref)
    if out.returncode != 0:
        raise AssertionError(f"build failed: {out.stderr}")
    golden = dir_bytes(ref)
    summary = tmp / "resume_summary.json"
    out = run(binary, "build", "--in", facts, "--out", tmp / "resume_p3",
              "--procs", 3, "--summary-out", summary)
    if out.returncode != 0:
        raise AssertionError(f"traced build failed: {out.stderr}")
    steps = len(json.loads(summary.read_text())["supersteps"])

    def resume(killed, procs, what):
        cube = tmp / f"resumed_{procs}"
        shutil.rmtree(cube, ignore_errors=True)
        shutil.copytree(killed, cube)
        out = run(binary, "build", "--in", facts, "--out", cube, "--procs",
                  procs, "--resume")
        if out.returncode != 0:
            raise AssertionError(f"{what}: resume at --procs {procs} "
                                 f"failed: {out.stderr}")
        if dir_bytes(cube) != golden:
            raise AssertionError(f"{what}: resumed at --procs {procs}, the "
                                 f"directory differs from the p1 build's")

    killed = tmp / "resume_killed"
    for step in (3, steps // 2, steps - 1):
        out = run(binary, "build", "--in", facts, "--out", killed, "--procs",
                  3, "--fault-plan", f"kill:1@{step}")
        if out.returncode != 3 or "--resume" not in out.stderr:
            raise AssertionError(f"kill:1@{step}: exit {out.returncode}, "
                                 f"stderr {out.stderr[-200:]!r}")
        if "MANIFEST" in dir_bytes(killed):
            raise AssertionError(f"kill:1@{step} left a MANIFEST")
        for argv in (["info", "--cube", killed],
                     ["query", "--cube", killed, "--group-by", "D0"]):
            out = run(binary, *argv)
            if out.returncode != 1 or out.stdout:
                raise AssertionError(f"kill:1@{step}: {argv[0]} exit "
                                     f"{out.returncode}, stdout "
                                     f"{out.stdout[:80]!r}")
        for procs in (3, 2):
            resume(killed, procs, f"kill:1@{step}")

    # A real SIGKILL, on a build big enough to outlast the first file.
    big = tmp / "resume_big.csv"
    out = run(binary, "generate", "--rows", 200000, "--cards",
              "64,32,16,8,6,4,2", "--seed", 11, "--out", big)
    if out.returncode != 0:
        raise AssertionError(f"generate failed: {out.stderr}")
    facts = big
    ref = tmp / "resume_big_p1"
    out = run(binary, "build", "--in", facts, "--out", ref)
    if out.returncode != 0:
        raise AssertionError(f"build failed: {out.stderr}")
    golden = dir_bytes(ref)
    shutil.rmtree(killed)
    proc = subprocess.Popen([binary, "build", "--in", str(facts), "--out",
                             str(killed), "--procs", "3"],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 600
    while proc.poll() is None and time.monotonic() < deadline:
        if killed.is_dir() and any(f.suffix == ".sncv"
                                   for f in killed.iterdir()):
            proc.send_signal(signal.SIGKILL)
            break
        time.sleep(0.0005)
    proc.wait()
    if proc.returncode != -signal.SIGKILL:
        raise AssertionError(f"the build ended (exit {proc.returncode}) "
                             f"before its first view file could be killed")
    if (killed / "MANIFEST").exists():
        raise AssertionError("a SIGKILLed build left a MANIFEST")
    resume(killed, 3, "SIGKILL")


def check_two_refreshes(binary, tmp):
    cube = tmp / "cube_twice"
    out = run(binary, "build", "--in", tmp / "facts.csv", "--out", cube)
    if out.returncode != 0:
        raise AssertionError(f"build failed: {out.stderr}")
    for epoch in (1, 2):
        out = run(binary, "refresh", "--cube", cube, "--delta",
                  tmp / "delta.csv")
        if out.returncode != 0 or json.loads(out.stdout)["epoch"] != epoch:
            raise AssertionError(f"refresh into epoch {epoch}: exit "
                                 f"{out.returncode}, {out.stdout!r} "
                                 f"{out.stderr!r}")
        _, committed, _ = committed_index(cube)
        want = ["MANIFEST", f"e{epoch}.0.sncv"]  # a small epoch: one segment
        files = sorted(f.name for f in cube.iterdir())
        if committed != epoch or files != want:
            raise AssertionError(f"after refresh {epoch} the directory holds "
                                 f"{files} (epoch {committed}), expected "
                                 f"{want}")
    check_answers(binary, cube, FACTS + DELTA + DELTA, "two refreshes")


def check_empty_delta(binary, tmp):
    cube = tmp / "cube_empty_delta"
    out = run(binary, "build", "--in", tmp / "facts.csv", "--out", cube)
    if out.returncode != 0:
        raise AssertionError(f"build failed: {out.stderr}")
    write_csv(tmp / "empty.csv", [])
    for epoch, rows in ((0, FACTS), (1, FACTS + DELTA)):
        if epoch == 1:
            out = run(binary, "refresh", "--cube", cube, "--delta",
                      tmp / "delta.csv")
            if out.returncode != 0:
                raise AssertionError(f"refresh failed: {out.stderr}")
        before = dir_bytes(cube)
        out = run(binary, "refresh", "--cube", cube, "--delta",
                  tmp / "empty.csv")
        if out.returncode != 0:
            raise AssertionError(f"empty refresh at epoch {epoch} failed: "
                                 f"{out.stderr}")
        printed = json.loads(out.stdout)
        if printed["epoch"] != epoch or printed["views_refreshed"] != 0:
            raise AssertionError(f"empty refresh at epoch {epoch} printed "
                                 f"{out.stdout!r}")
        after = dir_bytes(cube)
        if sorted(after) != sorted(before):
            raise AssertionError(f"empty refresh at epoch {epoch} changed the "
                                 f"listing {sorted(before)} to "
                                 f"{sorted(after)}")
        if after != before:
            raise AssertionError(f"empty refresh at epoch {epoch} changed the "
                                 f"bytes of " + ", ".join(
                                     n for n in before
                                     if before[n] != after[n]))
        check_answers(binary, cube, rows, f"empty refresh at epoch {epoch}")


def check_codes_beyond_cardinalities(binary, tmp):
    cube = tmp / "cube_wide_delta"
    out = run(binary, "build", "--in", tmp / "facts.csv", "--out", cube)
    if out.returncode != 0:
        raise AssertionError(f"build failed: {out.stderr}")
    info = run(binary, "info", "--cube", cube).stdout.splitlines()[0]
    wide = [(9, 7, 5), (2**32 - 1, 5, 7), (1, 2**32 - 1, 11),
            (0, 70000, 13), (1, 9, 17)]
    write_csv(tmp / "wide_delta.csv", wide)
    out = run(binary, "refresh", "--cube", cube, "--delta",
              tmp / "wide_delta.csv")
    if out.returncode != 0:
        raise AssertionError(f"refresh with wide codes failed: {out.stderr}")
    check_answers(binary, cube, FACTS + wide, "refresh with wide codes")
    after = run(binary, "info", "--cube", cube).stdout.splitlines()[0]
    if after != info:
        raise AssertionError(f"info printed {after!r} after the refresh, "
                             f"{info!r} before")


def check_query_flags(binary, cube):
    def query(*flags):
        return run(binary, "query", "--cube", cube, "--group-by", "D0",
                   *flags, "--json")

    for flags in (["--where", "D1=4294967297"], ["--where", "D1=-1"],
                  ["--where", "D1=abc"], ["--where", "D1="],
                  ["--where", "D1=7x"], ["--where", "D1= 7"],
                  ["--top", "abc"], ["--top", "-3"], ["--top", ""],
                  ["--top", "2x"], ["--top", "2147483648"]):
        out = query(*flags)
        if out.returncode != 2 or flags[0] not in out.stderr:
            raise AssertionError(f"query {flags}: exit {out.returncode}, "
                                 f"stderr {out.stderr[:120]!r} (expected a "
                                 f"usage error naming {flags[0]})")
    got = json.loads(query("--where", "D1=7").stdout)["rows"]
    want = expected([r for r in FACTS if r[1] == 7], 0)
    if {row[0]: row[1] for row in got} != want:
        raise AssertionError(f"--where D1=7 gave {got}, expected {want}")
    if len(json.loads(query("--top", "1").stdout)["rows"]) != 1:
        raise AssertionError("--top 1 did not keep one group")
    # An empty group-by is the grand total; an empty list entry is refused.
    out = run(binary, "query", "--cube", cube, "--group-by", "", "--json")
    total = sum(r[2] for r in FACTS)
    if out.returncode != 0 or json.loads(out.stdout)["rows"] != [[total]]:
        raise AssertionError(f"--group-by '' gave {out.stdout!r} "
                             f"{out.stderr[:120]!r}, expected [[{total}]]")
    out = run(binary, "query", "--cube", cube, "--group-by", "D0,", "--json")
    if out.returncode != 2 or out.stdout:
        raise AssertionError(f"--group-by 'D0,': exit {out.returncode}")


def check_usage_errors(binary, tmp, cube):
    """Each call must exit 2 with an error line naming the flag (the help
    text that follows it names every flag), print nothing on stdout and
    write no cube directory."""
    facts, out_dir = tmp / "facts.csv", tmp / "refused_cube"
    build = ["build", "--in", facts, "--out", out_dir]
    calls = [(["query", "--cube", cube, "--group-by", "D0", "--wher", "D1=1"],
              "--wher"),
             (["info", "--cube", cube, "--json"], "--json"),
             (build + ["--backend", "hash"], "--backend"),
             (build + ["--proc", "2"], "--proc"),
             (build + ["--views", "2", "--fraction", "0.5"], "--views"),
             (build + ["--local-trees"], "--local-trees"),
             (build + ["--gamma", "0.1"], "--gamma"),
             (build + ["--resume"], "--resume"),
             (build + ["--checkpoint-dir", tmp / "ckpt"], "--checkpoint-dir")]
    # Thread budget (256 a command): only budget + 1, and never with the
    # --in or --cube the command would read, so nothing starts.
    no_in = ["build", "--out", out_dir]
    for flag in ("--procs", "--threads-per-rank"):
        calls.append((no_in + [flag, "257"], flag))
    for flag in ("--workers", "--clients", "--shards"):
        calls.append((["serve", "--bench", flag, "257"], flag))
    calls.append((["serve", "--bench", "--workers", "1", "--clients", "256"],
                  "--clients"))
    calls.append((["chaos", "--procs", "2,257"], "--procs"))
    for mode in ("--serve", "--refresh"):
        calls.append((["chaos", mode, "--shards", "257"], "--shards"))
    # facts.csv has d = 2, so --views is at most 4.
    for flag, value in (("--procs", "2x"), ("--procs", "0"), ("--procs", ""),
                        ("--threads-per-rank", "2junk"),
                        ("--threads-per-rank", "0"), ("--views", "5x"),
                        ("--views", "-3"), ("--views", "0"),
                        ("--views", "5"), ("--fraction", "0.5x"),
                        ("--fraction", "0"), ("--fraction", "1.5"),
                        ("--fraction", "nan")):
        calls.append((build + [flag, value], flag))
    for value in ("abc", "-0.1", "inf"):
        calls.append((build + ["--procs", "2", "--gamma", value], "--gamma"))
    gen_out = tmp / "refused.csv"
    generate = ["generate", "--rows", "10", "--cards", "4,3", "--out", gen_out]
    for flag, value in (("--rows", "10x"), ("--rows", "0"), ("--rows", "-5"),
                        ("--cards", "4,x"), ("--cards", "4,,3"),
                        ("--cards", "4,3,"), ("--cards", "0,3"),
                        ("--cards", ""),
                        ("--alphas", "1.5z,1"), ("--alphas", "1"),
                        ("--alphas", "-1,0"), ("--alphas", "nan,0"),
                        ("--seed", "7q"), ("--seed", "-1")):
        calls.append((generate + [flag, value], flag))
    # Every serve call fails before the cube loads, so none starts a thread.
    serve = ["serve", "--cube", cube, "--bench", "--workers", "1",
             "--clients", "1", "--queries", "10"]
    for flag, value in (("--workers", "2x"), ("--workers", "0"),
                        ("--clients", "1y"), ("--queries", "5x"),
                        ("--queries", "0"), ("--queue-depth", "abc"),
                        ("--cache-mb", "-1"), ("--alpha", "1.0z"),
                        ("--alpha", "-1"), ("--seed", "x"),
                        ("--shards", "2x"), ("--shards", "0")):
        calls.append((serve + [flag, value], flag))
    sharded = serve + ["--shards", "2"]
    for flag, value in (("--per-try-ms", "abc"), ("--retries", "7x"),
                        ("--hedge-ms", "-3"), ("--breaker-failures", "0"),
                        ("--breaker-cooldown-ms", "1.5"),
                        ("--refresh-every", "x"),
                        ("--fault-plan", "shardkill:x")):
        calls.append((sharded + [flag, value], flag))
    # Flags the mode ignores: router and refresh flags at one shard, the
    # single-server trace with shards, refresh settings without refreshes.
    for flag, value in (("--per-try-ms", "5"), ("--retries", "7"),
                        ("--hedge-ms", "3"), ("--breaker-failures", "3"),
                        ("--breaker-cooldown-ms", "10"),
                        ("--refresh-every", "5"), ("--refresh-rows", "5"),
                        ("--snapshot-dir", tmp / "snaps"),
                        ("--fault-plan", "shardkill:1:1-2")):
        calls.append((serve + [flag, value], flag))
    calls.append((sharded + ["--trace-out", tmp / "t.json"], "--trace-out"))
    calls.append((sharded + ["--refresh-rows", "5"], "--refresh-rows"))
    calls.append((sharded + ["--snapshot-dir", tmp / "snaps"],
                  "--snapshot-dir"))
    # The online refreshes start their store empty: never the served cube.
    calls.append((sharded + ["--refresh-every", "5", "--snapshot-dir", cube],
                  "--snapshot-dir"))
    calls.append((["refresh", "--cube", cube, "--delta", facts,
                   "--snapshot-dir", tmp / "snaps"], "--snapshot-dir"))
    chaos = ["chaos", "--plans", "1", "--rows", "50"]
    for flag, value in (("--plans", "1x"), ("--plans", "0"), ("--rows", "x"),
                        ("--seed", "1.5"), ("--procs", "2,x"),
                        ("--procs", ""),
                        ("--procs", "1"), ("--procs", "2,")):
        calls.append((chaos + [flag, value], flag))
    for mode in ("--serve", "--refresh"):
        for flag, value in (("--shards", "2,1"), ("--shards", "x"),
                            ("--requests", "5x"), ("--requests", "0")):
            calls.append((chaos + [mode, flag, value], flag))
        calls.append((chaos + [mode, "--procs", "2"], "--procs"))
    calls.append((chaos + ["--shards", "2"], "--shards"))
    calls.append((chaos + ["--requests", "5"], "--requests"))
    calls.append((chaos + ["--serve", "--refresh"], "--serve"))
    for argv, flag in calls:
        out = run(binary, *argv)
        error_line = (out.stderr.splitlines() or [""])[0]
        if out.returncode != 2 or flag not in error_line or out.stdout or \
                out_dir.exists() or gen_out.exists():
            raise AssertionError(f"{argv[0]} {flag}: exit {out.returncode}, "
                                 f"stdout {out.stdout[:80]!r}, stderr "
                                 f"{out.stderr[:120]!r}, cube written "
                                 f"{out_dir.exists()} (expected a usage "
                                 f"error naming {flag})")


def check_old_formats_refused(binary, tmp):
    cube = tmp / "cube_old"
    cube.mkdir()
    index = "2\nD1 10\nD0 2\n2\nv00000 1\nv00001 10\nend\n"
    for old in ("sncube-manifest 3\n" + index, "sncube-manifest 2\n" + index,
                "sncube-manifest 1\n2\nD1 10\nD0 2\n"):
        (cube / "manifest.txt").write_text(old)
        for argv in (["query", "--cube", cube, "--group-by", "D0"],
                     ["info", "--cube", cube],
                     ["refresh", "--cube", cube, "--delta",
                      tmp / "delta.csv"]):
            out = run(binary, *argv)
            if out.returncode != 1 or "rebuild" not in out.stderr:
                raise AssertionError(f"{argv[0]} on {old[:17]!r}: exit "
                                     f"{out.returncode}, stderr "
                                     f"{out.stderr!r}")
        if sorted(f.name for f in cube.iterdir()) != ["manifest.txt"]:
            raise AssertionError("a refused old directory was written to")


def check_flipped_byte_refused(binary, tmp):
    """A byte flipped inside the routed view's file is a typed error, never
    a changed answer."""
    cube = tmp / "cube_flip"
    out = run(binary, "build", "--in", tmp / "facts.csv", "--out", cube)
    if out.returncode != 0:
        raise AssertionError(f"build failed: {out.stderr}")
    names, _, _ = committed_index(cube)
    view = view_file(cube, 1 << names.index("D0"))
    data = bytearray(view.read_bytes())
    data[len(data) - 17] ^= 0x01  # the last row's measure, before the seal
    view.write_bytes(bytes(data))
    out = run(binary, "query", "--cube", cube, "--group-by", "D0", "--json")
    if out.returncode == 0 or out.stdout or view.name not in out.stderr:
        raise AssertionError(f"query on a flipped byte: exit "
                             f"{out.returncode}, stdout {out.stdout!r}, "
                             f"stderr {out.stderr!r}")
    out = run(binary, "refresh", "--cube", cube, "--delta", tmp / "delta.csv")
    if out.returncode == 0:
        raise AssertionError(f"refresh over a flipped byte exited 0: "
                             f"{out.stdout!r}")


def check_damaged_view_keeps_the_directory(binary, tmp):
    """Refresh writes the next epoch beside the committed one, so damage in
    the last view in mask order, met after every other view of the new
    epoch is written, costs nothing: the refused refresh removes what it
    wrote."""
    cube = tmp / "cube_damaged"
    out = run(binary, "build", "--in", tmp / "facts.csv", "--out", cube)
    if out.returncode != 0:
        raise AssertionError(f"build failed: {out.stderr}")
    queries = [["--group-by", dim, "--json"] for dim in ("D0", "D1", "")]

    def answer(q):
        out = run(binary, "query", "--cube", cube, *q)
        if out.returncode != 0:
            raise AssertionError(f"query {q}: exit {out.returncode}")
        record = json.loads(out.stdout)
        del record["wall_s"]  # the one field that is not the answer
        return record

    answers = [answer(q) for q in queries]
    _, _, entries = committed_index(cube)
    view = view_file(cube, entries[-1][0])
    data = bytearray(view.read_bytes())
    data[len(data) // 2] ^= 0x01
    view.write_bytes(bytes(data))
    before = dir_bytes(cube)
    out = run(binary, "refresh", "--cube", cube, "--delta", tmp / "delta.csv")
    if out.returncode != 1 or view.name not in out.stderr:
        raise AssertionError(f"refresh over a damaged {view.name}: exit "
                             f"{out.returncode}, stderr {out.stderr!r}")
    if dir_bytes(cube) != before:
        raise AssertionError("a refresh refused for a damaged view changed "
                             "the cube directory")
    for q, want in zip(queries, answers):
        got = answer(q)
        if got != want:
            raise AssertionError(f"query {q} after the refused refresh gave "
                                 f"{got}, expected {want}")


def check_readers_create_nothing(binary, tmp):
    missing = tmp / "typo_dir" / "sub"
    for argv in (["info", "--cube", missing],
                 ["query", "--cube", missing, "--group-by", "D0"],
                 ["refresh", "--cube", missing, "--delta", tmp / "delta.csv"],
                 ["serve", "--cube", missing, "--bench", "--workers", "1",
                  "--clients", "1", "--queries", "1"]):
        out = run(binary, *argv)
        if out.returncode != 1 or "missing manifest" not in out.stderr or \
                (tmp / "typo_dir").exists():
            raise AssertionError(f"{argv[0]} on a missing directory: exit "
                                 f"{out.returncode}, stderr {out.stderr!r}, "
                                 f"left a path: {(tmp / 'typo_dir').exists()}")


def check_scratch_removed(binary, tmp, cube):
    scratch = tmp / "tmpdir"
    scratch.mkdir()
    env = dict(os.environ, TMPDIR=str(scratch))
    tiny = ["--plans", "1", "--rows", "100"]
    for argv in (["serve", "--cube", cube, "--bench", "--workers", "1",
                  "--clients", "1", "--queries", "200", "--shards", "2",
                  "--refresh-every", "20", "--refresh-rows", "20"],
                 ["chaos", *tiny, "--procs", "2"],
                 ["chaos", "--serve", *tiny, "--shards", "2"],
                 ["chaos", "--refresh", *tiny, "--shards", "2"]):
        out = subprocess.run([binary, *map(str, argv)], capture_output=True,
                             text=True, env=env)
        left = sorted(f.name for f in scratch.iterdir())
        if out.returncode != 0 or left:
            raise AssertionError(f"{' '.join(argv[:2])}: exit "
                                 f"{out.returncode}, stderr "
                                 f"{out.stderr[-200:]!r}, left {left} in "
                                 f"TMPDIR")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    binary = ap.parse_args().binary

    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        write_csv(tmp / "facts.csv", FACTS)
        write_csv(tmp / "delta.csv", DELTA)
        out = run(binary, "build", "--in", tmp / "facts.csv", "--out",
                  tmp / "cube")
        if out.returncode != 0:
            raise AssertionError(f"build failed: {out.stderr}")
        check_answers(binary, tmp / "cube", FACTS, "build")

        out = run(binary, "refresh", "--cube", tmp / "cube", "--delta",
                  tmp / "delta.csv")
        if out.returncode != 0:
            raise AssertionError(f"refresh failed: {out.stderr}")
        check_answers(binary, tmp / "cube", FACTS + DELTA, "refresh")

        write_csv(tmp / "facts_crlf.csv", FACTS, newline="\r\n")
        out = run(binary, "build", "--in", tmp / "facts_crlf.csv", "--out",
                  tmp / "cube_crlf")
        if out.returncode != 0:
            raise AssertionError(f"CRLF build failed: {out.stderr}")
        check_answers(binary, tmp / "cube_crlf", FACTS, "CRLF build")

        for i, cell in enumerate(["-1", "4294967296", "", "abc", "7x"]):
            expect_build_error(binary, tmp, f"bad{i}",
                               f"x,y,measure\n1,2,3\n1,{cell},3\n", "line 3")
        expect_build_error(binary, tmp, "max_code",
                           "x,y,measure\n1,4294967295,3\n", "4294967295")

        check_parallel_builds_identical(binary, tmp)
        check_two_refreshes(binary, tmp)
        check_empty_delta(binary, tmp)
        check_codes_beyond_cardinalities(binary, tmp)
        check_interrupted_build_resumes(binary, tmp)
        check_query_flags(binary, tmp / "cube_crlf")
        check_usage_errors(binary, tmp, tmp / "cube_crlf")
        check_flipped_byte_refused(binary, tmp)
        check_damaged_view_keeps_the_directory(binary, tmp)
        check_old_formats_refused(binary, tmp)
        check_readers_create_nothing(binary, tmp)
        check_scratch_removed(binary, tmp, tmp / "cube_crlf")
    print("cli_csv_test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
