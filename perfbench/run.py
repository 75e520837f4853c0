#!/usr/bin/env python3
"""Repository benchmark runner.

Builds the benchmark binary from the checkout's sources (Release, under
$CARGO_TARGET_DIR or .bench_build), runs one workload, and prints the host
record and then, as the last line of standard output, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload fig7_failures --seed 42 \
        --seconds 24 --trace 0

--trace 1 prints the per-layer metrics of a traced run instead of the
end-to-end ones and writes its spans to <build dir>/spans/. See
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("fig7_failures", "runtime_sessions", "runtime_crash_resume")
DEFAULT_SEED = 42
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "build.log"
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}")
            if rc != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({' '.join(cmd[:2])}); see {log_path}")
    binary = out_dir / "nexit_perfbench"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def pinned_digest(workload, seed, small):
    if small or seed != DEFAULT_SEED:
        return None
    pins = json.loads((BENCH_DIR / "digests.json").read_text())
    return pins[workload]["digest"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: the self-check's tiny inputs")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    out_dir = build_dir()
    binary = build(out_dir)

    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds:g}", f"--trace={args.trace}"]
    small = args.size == "small"
    if small:
        cmd.append("--size=small")
    pin = pinned_digest(args.workload, args.seed, small)
    if pin:
        cmd.append(f"--expect-digest={pin}")
    if args.trace:
        spans = out_dir / "spans"
        spans.mkdir(exist_ok=True)
        cmd.append(f"--spans={spans / f'{args.workload}-seed{args.seed}.json'}")

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} printed no result line (exit {proc.returncode})")

    print("host: " + json.dumps(raw["host"], sort_keys=True))
    print(f"digest: {raw['digest'] or '-'}"
          + (f" (pinned {pin})" if pin else " (not pinned for this seed/size)"))
    if not raw["correct"]:
        print(f"error: correctness gate failed: {raw['error']}", file=sys.stderr)
    result = {key: raw[key] for key in ("correct", "attempted", "failed",
                                        "metrics")}
    print(json.dumps(result))
    sys.exit(0 if raw["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
