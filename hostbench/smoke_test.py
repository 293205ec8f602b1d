#!/usr/bin/env python3
"""Smoke self-check of the host-clock benchmark.

    python3 hostbench/smoke_test.py

Runs every workload of BENCHMARK.json at tiny scale (run.py --scale 0.02)
with --trace 0 and --trace 1, and checks that:
  * every end-to-end and per-layer metric BENCHMARK.json names is printed,
    with its unit, and the run's output checks pass;
  * the traced run's span file holds every layer call of the step sequence;
  * a deliberately wrong reference answer and golden make the run fail.
Exits non-zero on the first violated check.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 990001  # keeps smoke results apart from real runs' result files
SCALE = "0.02"
# The layer calls the traced run makes, in step order (span label prefixes).
LAYER_CALLS = [
    "step.build_p1", "relation.ReadCsv", "seqcube.SequentialCube",
    "seqcube.SaveCube", "step.kernels", "relation.SortedPermutation",
    "exec.ParallelSortedPermutation", "step.query", "seqcube.LoadCube",
    "query.CubeQueryEngine::Execute", "step.build_p4", "core.BuildParallelCube",
    "step.build_w4", "step.refresh", "refresh.ComputeDeltaCube",
    "refresh.MergeDeltaCube", "step.serve", "serve.PartitionCubeForServing",
    "serve.ShardSet", "serve.Router::Execute",
    "refresh.RefreshCoordinator::Refresh",
]


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "hostbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace), "--scale", SCALE, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc


def check(cond, msg):
    if not cond:
        sys.exit(f"smoke: FAIL: {msg}")


def check_metrics(label, result, specs):
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        check(got is not None, f"{label}: metric {spec['name']} missing")
        check(got["unit"] == spec["unit"],
              f"{label}: {spec['name']} unit {got['unit']} != {spec['unit']}")
        check(isinstance(got["value"], (int, float)),
              f"{label}: {spec['name']} has no numeric value")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in bench["workloads"]:
        name = wl["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{name} --trace {trace}"
            code, result, proc = run(name, trace)
            check(code == 0 and result is not None,
                  f"{label} exited {code}: {proc.stderr[-2000:]}")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  f"{label}: output checks did not pass: {result}")
            check_metrics(label, result, bench[key])
            if trace:
                spans = ROOT / ".bench_build" / "traces" / f"{name}-seed{SEED}.json"
                names = {e["name"].split("/")[0] for e in
                         json.loads(spans.read_text())["traceEvents"]}
                for call in LAYER_CALLS:
                    check(call in names, f"{label}: no span for {call}")
            print(f"smoke: ok {label}")

    name = bench["workloads"][0]["name"]
    code, result, _ = run(name, 0, "--corrupt-reference")
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] > 0,
          f"{name}: a wrong reference did not fail the run ({code}, {result})")
    print(f"smoke: ok {name} fails on a wrong reference")


if __name__ == "__main__":
    main()
