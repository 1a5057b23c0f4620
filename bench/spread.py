"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload tiny-hs --seeds 1-10 [--seconds 15] [--trace 0]

Runs are sequential, one process each, from the current directory. For
every metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the interquartile
distance as a share of the median, next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="Spread of the benchmark's metrics over seeds.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        line = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {line}", flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"failed share / correct over runs: {sorted(shares)}")
    for key, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(key)
        note = f"bound {bound}, spread/bound {spread / bound:.2f}" if bound else ""
        print(f"{key:32s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  spread {spread:.4f}  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
