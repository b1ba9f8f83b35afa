#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads sweep,steady,thrash] [--seeds 10]
        [--first-seed 1] [--seconds S] [--values]

Runs the benchmark once per seed on each workload (untraced) and prints,
for every end-to-end metric, the median over the runs and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound in BENCHMARK.json. A
spread of a third of the bound or more is flagged. Run from the
repository root.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()

    flagged = False
    for w in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed} failed:\n{p.stdout}{p.stderr}")
            line = json.loads(p.stdout.strip().splitlines()[-1])
            for name, m in line["metrics"].items():
                values[name].append(m["value"])
        print(f"== {w}: {args.seeds} seeds from {args.first_seed}, {args.seconds:g} s each",
              flush=True)
        for spec in bench["end_to_end"]:
            xs = values[spec["name"]]
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = spread >= spec["bound"] / 3
            flagged |= flag
            print(f"  {spec['name']:22} median {med:14.6g}  spread {100 * spread:6.2f}%  "
                  f"bound {100 * spec['bound']:5.1f}%{'  <-- wide' if flag else ''}", flush=True)
            if args.values:
                print("    " + " ".join(f"{x:.6g}" for x in xs), flush=True)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
