#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark.

Runs every workload run.py offers (BENCHMARK.json measures all but
runtime_sessions) end to end at --size small, untraced and traced, and
asserts that each run passes its correctness gates and emits every metric
BENCHMARK.json names, with the unit it declares. Also checks the traced
run's own claims (coverage, no LP on the wire workloads, kills that land)
and that run.py fails cleanly in a directory holding only the
benchmark. Takes about 15 seconds after the build. From the repository root:

    python3 perfbench/selfcheck.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from run import WORKLOADS  # noqa: E402  (every workload, not only the measured ones)


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def check(cond, what):
        if not cond:
            problems.append(what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            proc = run(workload, trace)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys {sorted(result)}")
            check(result["correct"] is True, f"{tag}: not correct")
            check(result["attempted"] >= 1, f"{tag}: nothing attempted")
            metrics = result["metrics"]
            check(set(metrics) == set(expected[trace]),
                  f"{tag}: metric names differ from BENCHMARK.json: "
                  f"{sorted(set(metrics) ^ set(expected[trace]))}")
            for name, unit in expected[trace].items():
                got = metrics.get(name, {})
                check(got.get("unit") == unit,
                      f"{tag}: {name} unit {got.get('unit')!r} != {unit!r}")
                check(isinstance(got.get("value"), (int, float)),
                      f"{tag}: {name} has no numeric value")
            if trace == 0:
                check(all(metrics[m]["value"] > 0 for m in metrics),
                      f"{tag}: an end-to-end metric is 0")
                continue
            value = {name: m["value"] for name, m in metrics.items()}
            check(value["trace.coverage"] >= 0.9,
                  f"{tag}: trace.coverage {value['trace.coverage']:.3f} < 0.9")
            if workload == "fig7_failures":
                layer_times = {n: v for n, v in value.items()
                               if n.endswith("_s") and not n.startswith("trace.")}
                check(max(layer_times, key=layer_times.get) == "lp.solve_s",
                      f"{tag}: lp.solve_s is not the largest layer time")
            else:
                check(value["lp.solves"] == 0, f"{tag}: LP solved on the wire")
            if workload == "runtime_crash_resume":
                check(value["journal.kills_landed"] > 0, f"{tag}: no kill landed")
                check(value["journal.restores"] > 0, f"{tag}: nothing restored")

    # Without the library sources run.py must fail before any result.
    bare = ROOT / ".bench_build" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench")
    proc = run("runtime_sessions", 0, cwd=bare)
    check(proc.returncode != 0, "bare checkout: run.py exited 0")
    check(not any(l.startswith("{") for l in proc.stdout.splitlines()),
          "bare checkout: run.py printed a result")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
