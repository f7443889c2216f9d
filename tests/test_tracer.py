"""The benchmark's tracer finds every library name it wraps.

A name the tracer cannot find is skipped and its per-layer metrics read 0, so
a rename in the library would silently blind the traced benchmark run.
"""
from __future__ import annotations

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("counting", [False, True], ids=["spans", "counting"])
def test_tracer_hooks_every_name(monkeypatch, counting):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    with Tracer(counting=counting) as tracer:
        pass
    assert tracer.missing == []
