#!/usr/bin/env python3
"""End-to-end check of `sncube build`/`query`/`refresh` on hand-made CSVs.

    python3 tools/cli_csv_test.py --binary path/to/sncube

1. Columns whose cardinalities are not in decreasing order: CSV column j is
   dimension D<j>, so `query --group-by D0` must group by the first CSV
   column, before and after a `refresh` whose delta has the same layout.
2. A CRLF copy of the facts answers the same.
3. Bad cells (negative, out of range, empty, non-numeric, trailing garbage,
   and the code 2^32-1) make `build` fail, naming the line or the code.
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
    print("cli_csv_test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
