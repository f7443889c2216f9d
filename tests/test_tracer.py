"""The benchmark's tracer finds every library name it wraps and sees every
step of the scalar engine.

A name the tracer cannot find is skipped and its per-layer metrics read 0, so
a rename in the library would silently blind the traced benchmark run.  The
matrix itself runs on the lane kernel, which calls none of the wrapped
per-step functions; its scalar reference, `run_matrix_trial`, still steps
every episode through `engine.step`, as does `run`.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from guardian_sim import analysis, engine
from guardian_sim.engine import WorldConfig, sample_initial_positions
from guardian_sim.rng import Rng
from guardian_sim.strategies import AttackerBehavior

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer_cls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    return Tracer


@pytest.mark.parametrize("counting", [False, True], ids=["spans", "counting"])
def test_tracer_hooks_every_name(tracer_cls, counting):
    with tracer_cls(counting=counting) as tracer:
        pass
    assert tracer.missing == []


def test_traced_matrix_sees_every_step(tracer_cls):
    """Every step of the scalar reference trial runs through `engine.step`,
    with one reliability per `adm` step."""
    with tracer_cls(counting=True) as tracer:
        for trial in range(3):
            analysis.run_matrix_trial(0, trial, WorldConfig())
    steps = tracer.counts["engine.steps"]
    scoped = tracer.step_counts
    assert tracer.calls["analysis.run_matrix_trial"] == 3
    assert steps > 0
    assert scoped["steps"] == steps
    assert scoped["adm_steps"] > 0
    assert scoped["adm_reliability"] == scoped["adm_steps"]


@pytest.mark.parametrize("defender, attacker", analysis.MATRIX_PAIRS, ids=lambda e: e.value)
def test_traced_run_sees_each_layer_once_per_step(tracer_cls, defender, attacker):
    """`run`'s episode calls each per-layer function the tracer times once a
    step (the observation twice against `intelligent`, which observes the
    defender), so the traced `trajectories` workload keeps its per-layer
    metrics."""
    cfg = WorldConfig()
    with tracer_cls(counting=True) as tracer:
        for seed in range(3):
            xa, xd = sample_initial_positions(Rng(seed), min_separation=cfg.tau)
            engine.run_episode(xa, xd, defender, attacker, cfg, seed)
    steps = tracer.counts["engine.steps"]
    calls = tracer.calls
    assert steps > 0
    assert calls["engine.step"] == steps
    assert calls["observation.reliability"] == steps
    assert calls[f"strategies.defender_control.{defender.value}"] == steps
    assert calls[f"strategies.attacker_control.{attacker.value}"] == steps
    observes = 2 if attacker is AttackerBehavior.INTELLIGENT else 1
    assert calls["observation.observe"] == observes * steps
