#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics, and the shift
between two sets of runs of the same code.

    python3 perfbench/spread.py

Runs two sets.  Each set runs every workload of ``BENCHMARK.json`` once per
seed 100..109, one run at a time, for the file's ``run_seconds``.  For each
set, workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the distance between
the quartiles as a share of the median.  Beside the bound it prints the
second set's median over the first's, less 1.  The raw results go to
``.perfbench_out/spread.json``.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import layout

SETS = 2
SEEDS = range(100, 110)


def run_set(bench: dict) -> dict[str, list[dict]] | None:
    runs: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs[workload] = []
        for seed in SEEDS:
            out = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=600, cwd=layout.ROOT,
            )
            if out.returncode != 0:
                print(out.stdout + out.stderr, file=sys.stderr)
                return None
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: output checks failed", file=sys.stderr)
            runs[workload].append(result)
    return runs


def main() -> int:
    bench = json.loads((layout.ROOT / "BENCHMARK.json").read_text())
    sets = []
    for _ in range(SETS):
        runs = run_set(bench)
        if runs is None:
            return 1
        sets.append(runs)
    layout.OUT.mkdir(exist_ok=True)
    (layout.OUT / "spread.json").write_text(json.dumps(sets, indent=1) + "\n")

    worst_spread = worst_shift = 0.0
    for workload in sets[0]:
        print(workload)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for i, runs in enumerate(sets, 1):
                values = [r["metrics"][name]["value"] for r in runs[workload]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                share = (q3 - q1) / med
                if name != "setup_s":
                    worst_spread = max(worst_spread, share / bound)
                print(f"  {name:<12} set {i}: median {med:<11.6g} q1 {q1:<11.6g} q3 {q3:<11.6g} "
                      f"spread {share:7.2%}")
            shift = medians[-1] / medians[0] - 1
            worst_shift = max(worst_shift, abs(shift) / bound)
            print(f"  {name:<12} shift between sets {shift:+7.2%}  bound {bound:.0%}  "
                  f"|shift|/bound {abs(shift) / bound:.2f}")
    print(f"largest spread/bound outside setup_s: {worst_spread:.2f}")
    print(f"largest |shift|/bound: {worst_shift:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
