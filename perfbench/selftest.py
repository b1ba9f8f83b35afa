#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute. It checks that:

* every workload runs correctly on the default and the held-out seed
  (perfbench/reference.json), with every output checked against the
  MiBench oracles, and emits every metric BENCHMARK.json names with its
  unit (run.py refuses a result that does not);
* `sweep` counts its wrong and failed cells in `error_rate` and `failed`
  without filtering any profile: all 1296 cells are attempted, including
  the split-1024 cells of the known stringsearch defect (ROADMAP item 1);
* the traced run emits every per-layer metric, and its stats digest equals
  the untraced run's for the same seed;
* the per-layer numbers show what the workloads were chosen for;
* `dev_ucpb_p50` rises as SwapRAM's cycle count falls (steady over
  thrash, and the perfbench unit tests).
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SWEEP_CELLS = 1296


def run(workload, seed, trace, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}:\n{p.stdout}{p.stderr}")
    line = json.loads(p.stdout.strip().splitlines()[-1])
    result_path = ROOT / ".bench_work" / f"{workload}-seed{seed}-trace{trace}" / "result.json"
    return line, json.loads(result_path.read_text())


def cargo_env():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def check(cond, msg):
    if not cond:
        sys.exit(f"FAIL {msg}")
    print(f"ok   {msg}")


def value(result, name):
    return result["metrics"][name]["value"]


def self_ms(result, span):
    return sum(l["self_ms"] for l in result["layers"] if l["name"] == span)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = json.loads((ROOT / "perfbench" / "reference.json").read_text())["seeds"]
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}

    digests, end_to_end = {}, {}
    for seed in (seeds["default"], seeds["held_out"]):
        for w in workloads:
            line, result = run(w, seed, 0, 2)
            check(line["correct"] and set(line["metrics"]) == e2e,
                  f"{w} seed {seed}: outputs match the oracles, every end-to-end metric emitted")
            digests[(w, seed)] = result["digest"]
            if seed == seeds["default"]:
                end_to_end[w] = result
            if w == "sweep":
                c = result["cells"]
                bad = c["wrong"] + c["failed"]
                check(c["attempted"] == SWEEP_CELLS,
                      f"sweep seed {seed}: all {SWEEP_CELLS} cells attempted, split-1024 included")
                check(abs(value(result, "error_rate") - bad / c["attempted"]) < 1e-12
                      and line["failed"] == bad * result["sweeps"],
                      f"sweep seed {seed}: {bad} wrong or failed cells counted in error_rate "
                      f"and failed ({c['known_defect']} are the known split-1024 defect)")

    traced = {}
    for w in workloads:
        line, result = run(w, seeds["default"], 1, 4)
        check(line["correct"] and set(line["metrics"]) == layer,
              f"{w} traced: correct, traced digest equals untraced, every per-layer metric emitted")
        check(result["digest"] == digests[(w, seeds["default"])],
              f"{w}: stats digest of the traced run equals the end-to-end run's")
        traced[w] = result

    steady, thrash, sweep = traced["steady"], traced["thrash"], traced["sweep"]
    total = sum(l["self_ms"] for l in steady["layers"])
    check(self_ms(steady, "msp430.run") > 0.5 * total, "steady: msp430.run dominates self time")
    check(value(steady, "swapram.evictions") == 0, "steady: no SwapRAM evictions")
    check(value(thrash, "msp430.blocks_invalidated") > 0.5 * value(thrash, "msp430.blocks_built"),
          "thrash: most decoded blocks are invalidated")
    check(value(thrash, "dev.instr_runtime") + value(thrash, "dev.instr_memcpy") > 0.15,
          "thrash: runtime plus memcpy are a large share of instructions")
    # Shares measured on the default seed: builds are 4.4-4.7% of the
    # run_cell time, and machine set-up 1.2-1.6% of a probe run (set-up,
    # run and oracle). The checks ask for about half of the lower figure.
    cell_ms = sum(l["total_ms"] for l in sweep["layers"] if l["name"] == "experiments.run_cell")
    build = self_ms(sweep, "mibench.build") / cell_ms
    check(build > 0.022, f"sweep: builds are {100 * build:.1f}% of run_cell time")
    probe_ms = sum(self_ms(sweep, s) for s in ("msp430.setup", "msp430.run", "mibench.oracle"))
    setup = self_ms(sweep, "msp430.setup") / probe_ms
    check(setup > 0.006, f"sweep: machine set-up is {100 * setup:.1f}% of a probe run")

    # steady's SwapRAM (4 KiB cache) runs the same programs and inputs as
    # thrash's (512 B) in fewer cycles, so its useful cycles per boot must
    # not be lower. Programs that fit in 512 B run alike on both, and the
    # median can land on one of them, so equality is allowed.
    e2e_steady, e2e_thrash = end_to_end["steady"], end_to_end["thrash"]
    check(value(e2e_steady, "dev_speedup_geo") > value(e2e_thrash, "dev_speedup_geo")
          and value(e2e_steady, "dev_ucpb_p50") >= value(e2e_thrash, "dev_ucpb_p50"),
          "dev_ucpb_p50 is not lower where SwapRAM takes fewer cycles (steady, thrash)")
    p = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                        "--manifest-path", "perfbench/Cargo.toml"],
                       cwd=ROOT, env=cargo_env(), capture_output=True, text=True)
    check(p.returncode == 0, "perfbench unit tests pass" + ("" if p.returncode == 0
                                                             else f":\n{p.stdout}{p.stderr}"))
    print("selftest passed")


if __name__ == "__main__":
    main()
