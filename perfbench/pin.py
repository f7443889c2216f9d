#!/usr/bin/env python3
"""Regenerate ``pins.json``: the output digests that the benchmark's checks
compare against, and the margin-change references.

    python3 perfbench/pin.py

Digests are pinned for `workloads.PINNED_SEEDS`, for the numpy version that
runs this script.  Rerun it only for a change that alters the
output bytes on purpose, and say why in that change.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

import layout

layout.add_program_to_path()

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from guardian_sim import analysis, rng  # noqa: E402
from guardian_sim.observation import NoiseParams  # noqa: E402
from guardian_sim.strategies import DefenderStrategy  # noqa: E402

MARGIN_REFERENCE_SAMPLES = 100_000
MARGIN_REFERENCE_SEED = 2**31 - 1   # disjoint from the benchmark's seeds


def main() -> None:
    data: dict = {
        "numpy": np.__version__,
        "matrix_trials": workloads.MATRIX_TRIALS,
        "trajectory_trials": workloads.TRAJECTORY_TRIALS,
        "matrix_report": {},
        "trajectories": {},
        "margin_reference": {},
    }
    tally = workloads.Tally()
    layout.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=layout.OUT) as tmp:
        for seed in workloads.PINNED_SEEDS:
            for kind, name in (("matrix_report", "matrix-serial"), ("trajectories", "trajectories")):
                work = workloads.make(name, seed, tally, None, Path(tmp))
                data[kind][str(seed)] = work.run_pass().digest
    for i, strategy in enumerate(DefenderStrategy):
        est = analysis.estimate_mean_margin_change(
            strategy, NoiseParams(), workloads.MARGIN_K, MARGIN_REFERENCE_SAMPLES,
            rng.Rng(rng.derive_seed(MARGIN_REFERENCE_SEED, workloads.MARGIN_STREAM + i)),
        )
        data["margin_reference"][strategy.value] = {
            "mean": est.mean_change, "stderr": est.stderr,
            "samples": MARGIN_REFERENCE_SAMPLES, "seed": MARGIN_REFERENCE_SEED,
        }
    if tally.failed:
        raise SystemExit("pin: output checks failed: " + "; ".join(tally.failures))
    workloads.PINS_PATH.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {workloads.PINS_PATH} ({len(data['matrix_report'])} seeds)")


if __name__ == "__main__":
    main()
