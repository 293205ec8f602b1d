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
   byte-identical to `--procs 1`, manifest included, full and partial.
5. `query --where`/`--top` reject malformed numbers with a usage error
   (exit 2), and format-1 and format-2 manifests are refused with a hint
   to rebuild. Unknown flags (`query --wher`, `build --backend`/`--proc`),
   malformed or out-of-range numbers of `build`, `generate`, `serve` and
   `chaos` (comma lists included), and flags the chosen mode would ignore
   (`serve --retries` at one shard, `chaos --shards` without `--serve`,
   `build --gamma`/`--local-trees` at one processor)
   are usage errors too, with nothing on stdout and no output written.
6. `refresh --snapshot-dir` commits epochs 1 and 2, each with one snapshot
   file per view of the cube's index, while the view-by-view rewrite of
   the cube directory still answers right.
7. One flipped byte in the view file a query routes to makes `query` exit
   nonzero with nothing on stdout, and `refresh` exit nonzero. One flipped
   byte in the last view in mask order makes `refresh` exit 1 before it
   rewrites anything: the manifest and every other view file keep their
   bytes, and every check query answers byte-identically to before.
"""

import argparse
import json
import subprocess
import sys
import tempfile
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
            dirs[name] = dir_bytes(cube)
        if "manifest.txt" not in dirs["p1"]:
            raise AssertionError("build wrote no manifest.txt")
        for name in ("p3", "w2"):
            if dirs[name] != dirs["p1"]:
                raise AssertionError(f"{name} {views} cube directory differs "
                                     f"from p1's")


def check_refresh_snapshots(binary, tmp):
    cube, snap = tmp / "cube_snap", tmp / "snap"
    out = run(binary, "build", "--in", tmp / "facts.csv", "--out", cube)
    if out.returncode != 0:
        raise AssertionError(f"build failed: {out.stderr}")
    views = [line.split()[0] for line in
             (cube / "manifest.txt").read_text().splitlines()
             if line.startswith("v")]
    for epoch in (1, 2):
        out = run(binary, "refresh", "--cube", cube, "--delta",
                  tmp / "delta.csv", "--snapshot-dir", snap)
        if out.returncode != 0 or \
                json.loads(out.stdout)["snapshot_epoch"] != epoch:
            raise AssertionError(f"refresh into epoch {epoch}: exit "
                                 f"{out.returncode}, {out.stdout!r} "
                                 f"{out.stderr!r}")
        files = sorted(f.stem for f in (snap / f"epoch_{epoch}").iterdir())
        if files != views:
            raise AssertionError(f"epoch {epoch} holds {files}, expected "
                                 f"the indexed views {views}")
        if f"commit {epoch} " not in \
                (snap / "MANIFEST").read_text(errors="replace"):
            raise AssertionError(f"snapshot MANIFEST lacks commit {epoch}")
    check_answers(binary, cube, FACTS + DELTA + DELTA,
                  "two refreshes with --snapshot-dir")


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
             (build + ["--gamma", "0.1"], "--gamma")]
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


def check_old_formats_refused(binary, cube):
    manifest = (cube / "manifest.txt").read_text()
    assert manifest.startswith("sncube-manifest 3\n"), manifest[:20]
    for old in (manifest.replace("sncube-manifest 3", "sncube-manifest 2", 1),
                "sncube-manifest 1\n2\nD1 10\nD0 2\n"):
        (cube / "manifest.txt").write_text(old)
        for argv in (["query", "--cube", cube, "--group-by", "D0"],
                     ["info", "--cube", cube]):
            out = run(binary, *argv)
            if out.returncode != 1 or "rebuild" not in out.stderr:
                raise AssertionError(f"{argv[0]} on {old[:17]!r}: exit "
                                     f"{out.returncode}, stderr "
                                     f"{out.stderr!r}")


def check_flipped_byte_refused(binary, tmp):
    """A byte flipped inside the routed view's file is a typed error, never
    a changed answer."""
    cube = tmp / "cube_flip"
    out = run(binary, "build", "--in", tmp / "facts.csv", "--out", cube)
    if out.returncode != 0:
        raise AssertionError(f"build failed: {out.stderr}")
    lines = (cube / "manifest.txt").read_text().splitlines()
    names = [line.split()[0] for line in lines[2:2 + int(lines[1])]]
    view = cube / f"v{1 << names.index('D0'):05x}.sncv"
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
    """Refresh checks every indexed file before it rewrites the first, so
    damage in the last view in mask order costs nothing else."""
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
    lines = (cube / "manifest.txt").read_text().splitlines()
    d = int(lines[1])
    entries = lines[3 + d:3 + d + int(lines[2 + d])]
    view = cube / f"{entries[-1].split()[0]}.sncv"
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
        check_refresh_snapshots(binary, tmp)
        check_query_flags(binary, tmp / "cube_crlf")
        check_usage_errors(binary, tmp, tmp / "cube_crlf")
        check_flipped_byte_refused(binary, tmp)
        check_damaged_view_keeps_the_directory(binary, tmp)
        check_old_formats_refused(binary, tmp / "cube_crlf")
    print("cli_csv_test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
