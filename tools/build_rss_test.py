#!/usr/bin/env python3
"""Peak-RSS check of the streamed `sncube build` at one processor.

    python3 tools/build_rss_test.py --binary path/to/sncube

Generates a cube_skew-shaped input (125k facts, cardinalities
256,128,64,32,16,8,6,4, Zipf 2 on every dimension), builds it with
`--procs 1 --threads-per-rank 2`, and reads the build's peak RSS with
os.wait4. The streamed build holds the input and the schedule tree's live
frontier, never the whole cube, so its peak must be at most half of the
cube's in-memory bytes: the sum of rows * (4 * dims + 8) over the views
`info` lists, about 64.7 MB here. A build that keeps every view until the
end peaks near 93 MB.

A sanitizer's shadow memory breaks any RSS bound, so sanitizer builds do not
register this test.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROWS = 125000
CARDS = [256, 128, 64, 32, 16, 8, 6, 4]


def cube_bytes(info):
    """In-memory bytes of the views `info` lists: 4-byte keys and an 8-byte
    measure per row; a view's name has one letter per dimension."""
    total = 0
    for line in info.splitlines():
        m = re.fullmatch(r"\s+(\S+)\s+(\d+) rows", line)
        if m:
            dims = 0 if m[1] == "all" else len(m[1])
            total += int(m[2]) * (4 * dims + 8)
    return total


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    binary = ap.parse_args().binary

    with tempfile.TemporaryDirectory() as tmpdir:
        facts, cube = Path(tmpdir) / "facts.csv", Path(tmpdir) / "cube"
        subprocess.run([binary, "generate", "--rows", str(ROWS), "--cards",
                        ",".join(map(str, CARDS)), "--alphas",
                        ",".join(["2"] * len(CARDS)), "--seed", "7", "--out",
                        str(facts)], check=True, stdout=subprocess.DEVNULL)
        proc = subprocess.Popen([binary, "build", "--in", str(facts), "--out",
                                 str(cube), "--procs", "1",
                                 "--threads-per-rank", "2"],
                                stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise AssertionError(f"build exited {proc.returncode}")
        peak = usage.ru_maxrss * 1024  # Linux reports KiB
        info = subprocess.run([binary, "info", "--cube", str(cube)],
                              check=True, capture_output=True,
                              text=True).stdout
        whole = cube_bytes(info)
        if whole == 0:
            raise AssertionError(f"no views in `info` output: {info!r}")
        if peak > whole / 2:
            raise AssertionError(
                f"build peak RSS {peak / 1e6:.1f} MB exceeds half of the "
                f"cube's {whole / 1e6:.1f} MB in memory")
    print(f"build_rss_test: ok (peak RSS {peak / 1e6:.1f} MB, cube "
          f"{whole / 1e6:.1f} MB in memory)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
