#!/usr/bin/env python3
"""Repository benchmark: builds `perfbench`, runs one workload, checks the
result against BENCHMARK.json and prints it.

    python3 perfbench/run.py --workload sweep|steady|thrash --seed N \
        --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); scratch state, the result document and the
traced run's spans go to `.bench_work/`. The human-readable report goes to
standard output; its last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`). The exit code is 0
only when the outputs were correct. See perfbench/NOTES.md.
"""

import argparse
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml"]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("building perfbench failed")
    return ROOT / env["CARGO_TARGET_DIR"] / "release" / "perfbench"


def check_metrics(result, wanted):
    """Every metric BENCHMARK.json names must be emitted with its unit as a
    finite number; end-to-end metrics must also be nonzero."""
    emitted = result["metrics"]
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        m = emitted.get(name)
        if m is None:
            fail(f"metric {name} was not emitted")
        if m["unit"] != unit:
            fail(f"metric {name} has unit {m['unit']}, BENCHMARK.json says {unit}")
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"metric {name} is not a finite number: {v!r}")
        if "bound" in spec and v == 0:
            fail(f"end-to-end metric {name} is zero")


def report(result, reference):
    w = result["workload"]
    kind = "per-layer (traced run)" if result["trace"] else "end-to-end (untraced run)"
    print(f"== {w}, seed {result['seed']}: {kind}")
    paper = reference["paper"] if w == "steady" and not result["trace"] else {}
    for name, m in result["metrics"].items():
        line = f"  {name:32} {m['value']:>16.6g} {m['unit']}"
        if name in paper:
            ref = paper[name]
            line += f"   (paper {ref}, simulator error {100 * (m['value'] / ref - 1):+.1f}%)"
        print(line)
    if "tail" in result:
        t = result["tail"]
        print(f"  op_ms_tail is p{t['percentile']:g}: {t['beyond']} of {t['samples']} "
              "operations beyond it")
    if "cells" in result:
        c = result["cells"]
        print(f"  cells: {c['attempted']} attempted, {c['wrong']} wrong, {c['failed']} failed, "
              f"{c['dnf']} DNF; {c['known_defect']} of the wrong/failed are the known "
              "split-1024 stringsearch defect")
    if "layers" in result:
        wall = sum(l["self_ms"] for l in result["layers"])
        print(f"  {'span':28} {'calls':>8} {'total ms':>12} {'self ms':>12} {'self %':>7}")
        for l in result["layers"]:
            share = 100 * l["self_ms"] / wall if wall else 0.0
            print(f"  {l['name']:28} {l['calls']:>8} {l['total_ms']:>12.2f} "
                  f"{l['self_ms']:>12.2f} {share:>6.1f}%")
    print(f"  stats digest {result['digest']}")
    for p in result["problems"]:
        print(f"  PROBLEM: {p}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    binary = build()

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "result.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--work", str(work)]
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"perfbench exited with code {code}")
    result = json.loads(out.read_text())

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    check_metrics(result, wanted)
    report(result, reference)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {s["name"]: result["metrics"][s["name"]] for s in wanted},
    }
    print(json.dumps(line))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
