"""Check that every per-layer count repeats exactly across two traced runs.

    python3 bench/selfcheck.py [--seed N] [--seconds S] [workload ...]

Runs ``bench/run.py --trace 1`` twice per workload (default: all three)
with the same seed, in separate processes, and compares every per-layer
metric that is not a time: calls, constructed hypergraphs, edges in,
substreams, bytes, found and accept ratios.  Exits 1 on any difference or
on a run that does not report ``correct``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("workloads", nargs="*", default=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    problems = 0
    for workload in args.workloads:
        first, second = (traced_run(workload, args.seed, args.seconds) for _ in range(2))
        for result in (first, second):
            if not result["correct"]:
                print(f"{workload}: a traced run reported correct=false")
                problems += 1
        for name in tracing.COUNT_METRICS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                print(f"{workload}: {name} differs: {a} vs {b}")
                problems += 1
        print(f"{workload}: {len(tracing.COUNT_METRICS)} counts compared")
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
