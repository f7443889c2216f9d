"""The scalar engine on plain pairs plays every episode as it did on `Vec2`s.

`run_episode` is compared with the engine frozen in `oracles` on the random
worlds of `conftest.worlds`, which the matrix kernel's pin draws too: every
defender against every attacker, either failure criterion, noise terms of 0,
-0.0 and log-uniform values, log-uniform k and tau, r_interest up to 10**4,
step caps from 1 to 300, and starts sampled or given.  The outcome, the end time and every
field of every record must be the same bits, in the kept trajectory and in
the records streamed through a `sink`.  Every `run` byte rests on this.
"""
from __future__ import annotations

import math

from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import worlds
from guardian_sim.engine import (
    DEFENDER_RADIUS_RANGE, InvalidInitializationError, WorldConfig, run_episode,
    sample_initial_positions)
from guardian_sim.geometry import Vec2
from guardian_sim.rng import Rng
from guardian_sim.strategies import AttackerBehavior, DefenderStrategy
from oracles import vec2_run_episode


@st.composite
def starts(draw, cfg: WorldConfig) -> tuple[Vec2, Vec2]:
    """Sampled starts, or an attacker between the safe and outer radii and a
    defender within the sampled defender radii, clear of capture."""
    if draw(st.booleans()):
        return sample_initial_positions(Rng(draw(st.integers(0, 2**64 - 1))), cfg.tau)
    angles = st.floats(-math.pi, math.pi)
    xa = Vec2.from_polar(draw(st.floats(cfg.r_safe, cfg.r_interest)), draw(angles))
    xd = Vec2.from_polar(draw(st.floats(*DEFENDER_RADIUS_RANGE)), draw(angles))
    assume(xa.norm() <= cfg.r_interest)
    assume(xa.norm() >= cfg.r_safe and xa.distance_to(xd) > cfg.tau)
    return xa, xd


def bits(values) -> list:
    """Each field as its type and, for a float, its exact hex form, so that
    0.0 and -0.0 differ."""
    return [(type(v).__name__, v.hex() if isinstance(v, float) else v) for v in values]


def flat(record) -> list:
    """A `Vec2` record's fields in the column order of a flat record."""
    t, xa, xd, y, margin, rel = record
    seen = (None, None) if y is None else (y.x, y.y)
    return bits((t, xa.x, xa.y, xd.x, xd.y, *seen, margin, rel))


@given(st.data(), worlds(), st.sampled_from(DefenderStrategy), st.sampled_from(AttackerBehavior),
       st.integers(0, 2**64 - 1))
def test_run_episode_gives_the_vec2_engine_bits(data, cfg, defender, attacker, seed):
    xa, xd = data.draw(starts(cfg))
    try:
        outcome, end_time, records = vec2_run_episode(xa, xd, defender, attacker, cfg, seed)
    except InvalidInitializationError:
        assume(False)
    kept = run_episode(xa, xd, defender, attacker, cfg, seed)
    streamed = []
    result = run_episode(xa, xd, defender, attacker, cfg, seed, sink=streamed.append)
    assert (kept.outcome, kept.end_time) == (result.outcome, result.end_time) == (
        outcome, end_time)
    want = [flat(record) for record in records]
    assert [bits(record) for record in kept.trajectory] == want
    assert [bits(record) for record in streamed] == want
    assert result.trajectory == []
