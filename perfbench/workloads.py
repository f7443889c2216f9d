"""The four workloads of the guardian-sim benchmark.

Every workload drives the library entry points that the ``guardian-sim`` CLI
calls, on inputs made from one seed, in passes of fixed size: the same seed
gives the same inputs and the same output bytes on every pass.  A workload
counts each library call it issues and each output check it makes in a
`Tally`; a check that fails, or a call that raises, is a failed operation.

* ``matrix-serial``: `analysis.run_experiment_matrix` at ``jobs=1``, the
  paper's headline artefact.  Almost all of its time is the per-step loop
  (engine -> observation / strategies / geometry) and per-trial seeding (rng).
* ``matrix-parallel``: the same inputs at ``jobs=2`` (never above the CPU
  count); the only workload that runs the process-pool dispatch.
* ``trajectories``: the ``run`` command for every trial x pair: episode with
  trajectory capture, CSV and JSON rendering, two atomic file writes.
* ``margin-table``: `analysis.estimate_mean_margin_change` for the three
  defenders; one observation + control + margin step per sample, no episode
  loop, no per-trial Rng.  The bypass workload for engine-only changes.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from guardian_sim import analysis, engine, fileio, rng
from guardian_sim.observation import NoiseParams
from guardian_sim.strategies import MATRIX_ATTACKERS, MATRIX_DEFENDERS, DefenderStrategy

NAMES = ("matrix-serial", "matrix-parallel", "trajectories", "margin-table")

DEFAULT_SEED = 0
# Held out: not to be run while a change is written, so that a claimed gain
# can be confirmed on inputs the change was not tuned on.
HELD_OUT_SEED = 1_000_003
# Seeds whose output digests are pinned: the default seed, the seeds of the
# steadiness proof (spread.py uses 100-109) and every seed in between, since a
# run is usually given a small seed counted up from 0 or 1.
PINNED_SEEDS = (*range(110), HELD_OUT_SEED)

MATRIX_TRIALS = 100       # 900 episodes per pass, about 0.9 s serial
TRAJECTORY_TRIALS = 30    # 270 episodes and 540 files per pass
MARGIN_SAMPLES = 10_000   # per defender strategy, 30k samples per pass
MARGIN_K = 0.5
MARGIN_STREAM = 40        # stream key used by scripts/margin_change_table.py
# A strategy's mean may differ from its recorded reference by at most this
# many combined standard errors.
MARGIN_Z = 5.0
PARALLEL_JOBS = 2

PINS_PATH = Path(__file__).with_name("pins.json")


def parallel_jobs() -> int:
    """Pool size for ``matrix-parallel``: 2, but never above the CPU count."""
    return max(1, min(PARALLEL_JOBS, os.cpu_count() or 1, len(os.sched_getaffinity(0))))


@dataclass
class Tally:
    """Operations and output checks attempted and failed in one run."""

    ops: int = 0
    ops_failed: int = 0
    checks: int = 0
    checks_failed: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks += 1
        if not ok:
            self.checks_failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def op_failed(self, exc: BaseException) -> None:
        self.ops_failed += 1
        self.failures.append(f"operation raised {type(exc).__name__}: {exc}")

    @property
    def attempted(self) -> int:
        return self.ops + self.checks

    @property
    def failed(self) -> int:
        return self.ops_failed + self.checks_failed


@dataclass
class Pass:
    """One pass over a workload's fixed input."""

    wall: float                 # seconds inside the timed library calls
    items: int                  # episodes or margin samples completed
    op_seconds: list[float]     # duration of each library operation
    digest: str                 # sha256 of the pass's output bytes
    reference_s: float = 0.0    # reference computation timed right after it


class Pins:
    """Pinned output digests and margin references (``pins.json``).

    Digests hold for one numpy version (the determinism promise is per numpy
    version) and one pass size; otherwise they are reported as not checked.
    """

    def __init__(self, path: Path = PINS_PATH) -> None:
        with open(path) as fh:
            self.data = json.load(fh)
        self.active = (
            self.data["numpy"] == np.__version__
            and self.data["matrix_trials"] == MATRIX_TRIALS
            and self.data["trajectory_trials"] == TRAJECTORY_TRIALS
        )

    def digest(self, kind: str, seed: int) -> str | None:
        if not self.active:
            return None
        return self.data.get(kind, {}).get(str(seed))

    def why_unchecked(self) -> str:
        if not self.active:
            return f"numpy {np.__version__} or the pass size differs from pins.json"
        return "the seed has no pinned digest"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name: str
    item: str               # what `Pass.items` counts
    jobs: int = 1
    pinned_kind: str | None = None  # the pins.json digests of this workload

    def __init__(self, seed: int, tally: Tally, pins: Pins | None) -> None:
        self.seed = seed
        self.tally = tally
        self.pins = pins
        self.reference: str | None = None   # digest every pass must reproduce
        self.reference_from = "the first pass"
        self.pin_checked = False

    def run_pass(self, jobs: int | None = None) -> Pass:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed first pass; its digest becomes the reference."""
        self.run_pass()

    def finish(self) -> None:
        """Checks that need the whole run; called once after timing."""

    def inputs(self) -> dict:
        raise NotImplementedError

    def pin_status(self) -> str:
        """Whether the first pass's digest was checked against pins.json."""
        if self.pinned_kind is None:
            return "none pinned for this workload"
        if self.pin_checked:
            return "checked"
        return "not checked: " + self.pins.why_unchecked()

    def _check_digest(self, kind: str, digest: str) -> None:
        if self.reference is None:
            self.reference = digest
            pinned = self.pins.digest(kind, self.seed) if self.pins else None
            if pinned is not None:
                self.pin_checked = True
                self.tally.expect(f"{kind} sha256 pinned for seed {self.seed}", digest == pinned,
                                  f"got {digest}, pinned {pinned}")
            return
        self.tally.expect(f"{kind} bytes equal those of {self.reference_from}",
                          digest == self.reference, f"got {digest}, expected {self.reference}")


class MatrixWorkload(Workload):
    item = "episode"
    pinned_kind = "matrix_report"

    def __init__(self, name: str, seed: int, tally: Tally, pins: Pins | None, jobs: int) -> None:
        super().__init__(seed, tally, pins)
        self.name = name
        self.jobs = jobs
        self.cfg = engine.WorldConfig()     # CLI defaults: position-breach rule
        self.items = len(MATRIX_DEFENDERS) * len(MATRIX_ATTACKERS) * MATRIX_TRIALS

    def inputs(self) -> dict:
        return {"trials": MATRIX_TRIALS, "pairs": self.items // MATRIX_TRIALS, "jobs": self.jobs,
                "failure_criterion": self.cfg.failure_criterion.value}

    def warm_up(self) -> None:
        if self.jobs > 1:
            # The serial report is the reference: bytes must not depend on jobs.
            self.run_pass(jobs=1)
            self.reference_from = "the jobs=1 pass"
        self.run_pass()

    def run_pass(self, jobs: int | None = None) -> Pass:
        self.tally.ops += 1
        t0 = time.perf_counter()
        report = analysis.run_experiment_matrix(
            self.cfg, MATRIX_TRIALS, self.seed, jobs=jobs or self.jobs
        )
        wall = time.perf_counter() - t0
        text = analysis.report_json_text(report)
        complete = len(report.pairs) == self.items // MATRIX_TRIALS and all(
            p.wins + p.losses == p.trials == MATRIX_TRIALS for p in report.pairs
        )
        self.tally.expect("wins + losses == trials for every pair", complete)
        digest = _sha(text)
        self._check_digest(self.pinned_kind, digest)
        return Pass(wall, self.items, [wall], digest)


def run_trial(seed: int, trial: int, defender, attacker, cfg: engine.WorldConfig):
    """Trial `trial` of base seed `seed` as the ``run`` command plays it
    (``run --seed s`` is trial 0): the seeds and initial positions are those
    of the same trial in the experiment matrix."""
    init_seed, episode_seed = analysis.trial_seeds(seed, trial)
    xa, xd = engine.sample_initial_positions(rng.Rng(init_seed), min_separation=cfg.tau)
    return engine.run_episode(xa, xd, defender, attacker, cfg, episode_seed)


class TrajectoryWorkload(Workload):
    name = "trajectories"
    item = "episode"
    pinned_kind = "trajectories"

    def __init__(self, seed: int, tally: Tally, pins: Pins | None, out_dir: Path) -> None:
        super().__init__(seed, tally, pins)
        self.cfg = engine.WorldConfig()
        self.tasks = [
            (trial, d, a, out_dir / f"{trial:03d}-{d.value}-{a.value}")
            for trial in range(TRAJECTORY_TRIALS)
            for d in MATRIX_DEFENDERS
            for a in MATRIX_ATTACKERS
        ]
        self.last_digest = ""

    def inputs(self) -> dict:
        return {"trials": TRAJECTORY_TRIALS, "episodes": len(self.tasks),
                "files": 2 * len(self.tasks)}

    def run_pass(self, jobs: int | None = None) -> Pass:
        # The pass time leaves out the file writes; the episode latencies and
        # the traced run keep them.  On a 2-vCPU Xeon VM with an ext4 disk the
        # kernel time of a file create grew tenfold over a few minutes of
        # consecutive runs (from about 0.04 to 0.5 s for one pass's 540
        # writes), which no program change causes and no reference
        # computation follows.
        ops = []
        computing = 0.0
        digest = hashlib.sha256()
        bad_rows = 0
        for trial, defender, attacker, where in self.tasks:
            self.tally.ops += 1
            t0 = time.perf_counter()
            result = run_trial(self.seed, trial, defender, attacker, self.cfg)
            csv_text = engine.trajectory_csv_text(result)
            summary = engine.summary_json_text(result, self.cfg, self.seed)
            computing += time.perf_counter() - t0
            fileio.write_text_atomic(where / "trajectory.csv", csv_text)
            fileio.write_text_atomic(where / "summary.json", summary)
            ops.append(time.perf_counter() - t0)
            # header + one row per time step 0..end_time
            if csv_text.count("\n") != result.end_time + 2:
                bad_rows += 1
            digest.update(csv_text.encode())
            digest.update(summary.encode())
        self.tally.expect("each trajectory has end_time + 1 rows", bad_rows == 0,
                          f"{bad_rows} of {len(self.tasks)} trajectories")
        self.last_digest = digest.hexdigest()
        self._check_digest(self.pinned_kind, self.last_digest)
        return Pass(computing, len(self.tasks), ops, self.last_digest)

    def finish(self) -> None:
        on_disk = hashlib.sha256()
        try:
            for _, _, _, where in self.tasks:
                on_disk.update((where / "trajectory.csv").read_bytes())
                on_disk.update((where / "summary.json").read_bytes())
        except OSError as exc:
            self.tally.expect("files on disk hold the rendered bytes", False, str(exc))
            return
        self.tally.expect("files on disk hold the rendered bytes",
                          on_disk.hexdigest() == self.last_digest)


class MarginWorkload(Workload):
    name = "margin-table"
    item = "sample"

    def __init__(self, seed: int, tally: Tally, pins: Pins | None) -> None:
        super().__init__(seed, tally, pins)
        self.params = NoiseParams()     # default noise, as the margin table script
        self.strategies = list(DefenderStrategy)
        self.seeds = [rng.derive_seed(seed, MARGIN_STREAM + i) for i in range(len(self.strategies))]
        self.references = pins.data["margin_reference"] if pins else {}

    def inputs(self) -> dict:
        return {"samples_per_strategy": MARGIN_SAMPLES, "strategies": len(self.strategies),
                "k": MARGIN_K, "beta": self.params.beta_d}

    def run_pass(self, jobs: int | None = None) -> Pass:
        ops = []
        estimates = {}
        for strategy, seed in zip(self.strategies, self.seeds):
            self.tally.ops += 1
            t0 = time.perf_counter()
            est = analysis.estimate_mean_margin_change(
                strategy, self.params, MARGIN_K, MARGIN_SAMPLES, rng.Rng(seed)
            )
            ops.append(time.perf_counter() - t0)
            estimates[strategy.value] = est
        for name, est in estimates.items():
            ref = self.references.get(name)
            if ref is None:
                self.tally.expect(f"margin reference recorded for {name}", False)
                continue
            tol = MARGIN_Z * math.hypot(est.stderr, ref["stderr"])
            self.tally.expect(
                f"{name} mean margin change within {MARGIN_Z:g} SE of its reference",
                abs(est.mean_change - ref["mean"]) <= tol,
                f"mean {est.mean_change:.6f}, reference {ref['mean']:.6f} +- {tol:.6f}",
            )
        pp, dm = estimates["pp"].mean_change, estimates["dm"].mean_change
        self.tally.expect("pp loses more margin per step than dm", pp < dm, f"pp {pp}, dm {dm}")
        digest = _sha(json.dumps({k: [v.mean_change, v.stderr] for k, v in estimates.items()}))
        self._check_digest("margin_estimates", digest)
        return Pass(sum(ops), MARGIN_SAMPLES * len(ops), ops, digest)


def make(name: str, seed: int, tally: Tally, pins: Pins | None, out_dir: Path) -> Workload:
    """Build a workload's inputs from its seed."""
    if name == "matrix-serial":
        return MatrixWorkload(name, seed, tally, pins, jobs=1)
    if name == "matrix-parallel":
        return MatrixWorkload(name, seed, tally, pins, jobs=parallel_jobs())
    if name == "trajectories":
        return TrajectoryWorkload(seed, tally, pins, out_dir)
    if name == "margin-table":
        return MarginWorkload(seed, tally, pins)
    raise ValueError(f"unknown workload {name!r} (valid: {', '.join(NAMES)})")
