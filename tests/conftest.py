"""Shared test configuration: hypothesis profiles, common strategies, a stub
noise stream, and a summary line that names the unexpected outcomes."""
from __future__ import annotations

import math
from typing import NamedTuple

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from guardian_sim.geometry import Vec2, defense_margin
from guardian_sim.observation import NoiseParams


class Normals:
    """Stands in for an `Rng`: `normal_pair` scales two given standard
    normals, as `observe` would draw them."""

    def __init__(self, w0: float, w1: float) -> None:
        self.w = (float(w0), float(w1))

    def normal_pair(self, sigma: float) -> tuple[float, float]:
        return sigma * self.w[0], sigma * self.w[1]


# The documented negative results: each asserts a claim that is false of the
# pinned model, so both are expected to fail.
_RED_GATES = frozenset({
    "tests/test_acceptance.py::test_criterion_1_noiseless_margin_gain_exactness",
    "tests/test_acceptance.py::test_criterion_4_win_rate_matrix",
})


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line naming every failed test other than the red gates, and any
    red gate that passed; the outcomes and exit status are untouched."""
    stats = terminalreporter.stats
    failed = {r.nodeid for key in ("failed", "error") for r in stats.get(key, [])}
    passed = {r.nodeid for r in stats.get("passed", []) if r.when == "call"}
    unexpected = ", ".join(sorted(failed - _RED_GATES)) or "none"
    gates_passed = ", ".join(sorted(passed & _RED_GATES)) or "none"
    terminalreporter.write_line(
        f"unexpected failures: {unexpected}; red gates that passed: {gates_passed}")


settings.register_profile(
    "default",
    deadline=None,  # numeric sweeps have noisy per-example timing
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
# `--hypothesis-profile deep` runs each property on 2,000 examples.  CI runs
# `TestHypot` so, since every matrix and margin-table bit rests on `lanes.hypot`,
# and the engine pin and `test_render.py`, since every `run` byte rests on them;
# the steps in .github/workflows/tier1.yml list the rest.
settings.register_profile("deep", parent=settings.get_profile("default"), max_examples=2000)
settings.load_profile("default")


def as_pair(v: Vec2) -> tuple[float, float]:
    """`v` as the (x, y) pair the scalar laws take."""
    return v.x, v.y


def margin_of(xa: Vec2, xd: Vec2) -> float:
    """`geometry.defense_margin` of two `Vec2`s, handed their separation."""
    return defense_margin(as_pair(xa), as_pair(xd), xa.distance_to(xd))


class Record(NamedTuple):
    """A flat `engine.StepRecord` read by field: its columns by the names of
    `TRAJECTORY_HEADER`, and its points as `Vec2`s (`y` is None where the
    record has no observation)."""

    t: int
    xa_x: float
    xa_y: float
    xd_x: float
    xd_y: float
    y_x: float | None
    y_y: float | None
    margin: float | None
    reliability: float | None

    @property
    def xa(self) -> Vec2:
        return Vec2(self.xa_x, self.xa_y)

    @property
    def xd(self) -> Vec2:
        return Vec2(self.xd_x, self.xd_y)

    @property
    def y(self) -> Vec2 | None:
        return None if self.y_x is None else Vec2(self.y_x, self.y_y)


def finite_coord(bound: float = 100.0) -> st.SearchStrategy[float]:
    return st.floats(
        min_value=-bound, max_value=bound, allow_nan=False, allow_infinity=False
    )


@st.composite
def vec2s(draw, bound: float = 100.0) -> Vec2:
    return Vec2(draw(finite_coord(bound)), draw(finite_coord(bound)))


@st.composite
def separated_pairs(draw, min_separation: float = 1e-3) -> tuple[Vec2, Vec2]:
    """(xa, xd) pairs with a guaranteed minimum separation."""
    xa = draw(vec2s(50.0))
    xd = draw(vec2s(50.0))
    if xa.distance_to(xd) <= min_separation:
        xd = xd + Vec2(min_separation + 1.0, 0.0)
    return xa, xd


@st.composite
def outer_inner_pairs(draw, min_gap: float = 1e-6) -> tuple[Vec2, Vec2]:
    """(xa, xd) with ||xa|| strictly greater than ||xd||, both off-origin."""
    r_a = draw(st.floats(min_value=2.0, max_value=50.0))
    r_d_frac = draw(st.floats(min_value=0.0, max_value=0.95))
    phi_a = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    phi_d = draw(st.floats(min_value=-math.pi, max_value=math.pi))
    xa = Vec2.from_polar(r_a, phi_a)
    xd = Vec2.from_polar(max(r_a * r_d_frac - min_gap, 0.0), phi_d)
    return xa, xd


angles = st.floats(min_value=-math.pi, max_value=math.pi)


# Coordinates of the game's scale, with signed zeros and values so small that
# a difference falls below the 1e-12 direction threshold.
coords = st.one_of(
    st.floats(-60.0, 60.0), st.sampled_from([0.0, -0.0, 1e-13, -3e-13, 5e-324])
)
points = st.builds(Vec2, coords, coords)


@st.composite
def pairs(draw):
    """(a, b): independent, a hair apart (closer than 1e-12), or coincident."""
    a = draw(points)
    kind = draw(st.sampled_from(["free", "free", "free", "near", "same"]))
    if kind == "free":
        return a, draw(points)
    if kind == "near":
        off = st.floats(-4e-13, 4e-13)
        return a, Vec2(a.x + draw(off), a.y + draw(off))
    return a, a


# Noise settings: none at all, or every term switched on.
noise = st.one_of(
    st.just(NoiseParams(beta_b=0.0, beta_d=0.0, beta_v=0.0, nu=1.0)),
    st.builds(
        NoiseParams,
        beta_b=st.floats(0.0, 1.0),
        beta_d=st.floats(0.0, 1.0),
        beta_v=st.floats(0.0, 1.0),
        nu=st.floats(0.0, 1.0),
    ),
)
