"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --runs 10 [--workload cli ...] [--label a]

For each workload it runs bench/run.py once per seed (first seed, first
seed + 1, ...), each run as long as run_seconds in BENCHMARK.json, and
prints, per metric, the median, the quartiles and the spread: the distance
between the quartiles, as statistics.quantiles(n=4) gives them, as a share
of the median.  It also prints the share of failed operations.  With
``--label`` the raw results go to .bench_build/spread-<label>.json;
``--against <label>`` compares this set's medians with that earlier set's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE.parent / ".bench_build"
WORKLOADS = ("cli", "library")


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label")
    parser.add_argument("--against")
    args = parser.parse_args()
    before = None
    if args.against:
        before = json.loads((BUILD / f"spread-{args.against}.json").read_text())
    raw = {}
    for workload in args.workload or WORKLOADS:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        raw[workload] = results
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: failed share {shares}, correct "
              f"{all(r['correct'] for r in results)}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            s = summary(values)
            line = (f"  {metric:<12} median {s['median']:.4f}  q1 {s['q1']:.4f}  "
                    f"q3 {s['q3']:.4f}  spread {100 * s['spread']:.1f}%")
            if before and workload in before:
                old = statistics.median(r["metrics"][metric]["value"]
                                        for r in before[workload])
                line += f"  vs {args.against} {100 * (s['median'] / old - 1):+.1f}%"
            print(line, flush=True)
    if args.label:
        BUILD.mkdir(exist_ok=True)
        (BUILD / f"spread-{args.label}.json").write_text(json.dumps(raw))
    return 0


if __name__ == "__main__":
    sys.exit(main())
