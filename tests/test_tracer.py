"""The benchmark's tracer finds every library name it wraps and sees every
step of the scalar engine.

A name the tracer cannot find is skipped and its per-layer metrics read 0, so
a rename in the library would silently blind the traced benchmark run.  The
matrix itself runs on the lane kernel, which calls none of the wrapped
per-step functions; its scalar reference, `run_matrix_trial`, still steps
every episode through `engine.step`.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from guardian_sim import analysis
from guardian_sim.engine import WorldConfig

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
