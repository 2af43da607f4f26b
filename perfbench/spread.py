"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 perfbench/spread.py --workload train-paper --seeds 1-10 --seconds 60

Runs the benchmark once per seed, one run at a time, and prints each
run's wall time and, for every end-to-end metric, its median over the
runs and its spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, next to the metric's bound and a
third of it. Each run's full record is kept
as ``.bench_out/spread/<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

from layers import END_TO_END
from stats import quartile_spread

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(os.path.dirname(HERE), ".bench_out")


def _seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a-b range or comma list")
    parser.add_argument("--seconds", type=float, default=60)
    args = parser.parse_args(argv)

    values = {name: [] for name, *_ in END_TO_END}
    os.makedirs(os.path.join(OUT, "spread"), exist_ok=True)
    for seed in _seeds(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shutil.copy(os.path.join(OUT, f"{args.workload}-trace0.json"),
                    os.path.join(OUT, "spread", f"{args.workload}-seed{seed}.json"))
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']} "
              f"wall {time.perf_counter() - start:.1f} s", flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    print(f"{'metric':24s} {'median':>12s} {'spread':>8s} {'bound':>6s} {'bound/3':>8s}")
    for name, _, _, bound in END_TO_END:
        vals = values[name]
        spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
        flag = "" if spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:24s} {median(vals):12.4f} {spread:8.4f} {bound:6.3f} {bound / 3:8.4f}{flag}")
    print("values: " + json.dumps(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
