"""The array twins in `lanes` give, lane by lane, the bits of their scalar
namesakes, and refuse what the scalar code refuses.

Bit equality is asserted on IEEE bit patterns, so 0.0 and -0.0 differ; all
NaNs count as one value.  `lanes.hypot` and `lanes.reliability` call
`math.hypot` and `math.erf` per lane, so the tests hold on any CPython.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import Normals
from guardian_sim import analysis, geometry, lanes, observation, strategies
from guardian_sim.geometry import CoincidentAgentsError, Vec2
from guardian_sim.observation import NoiseParams
from guardian_sim.rng import Rng
from guardian_sim.strategies import DefenderStrategy

NOISELESS = NoiseParams(beta_b=0.0, beta_d=0.0, beta_v=0.0, nu=1.0)


def bits(values) -> list[int]:
    a = np.asarray(values, dtype=float)
    return np.where(np.isnan(a), np.nan, a).view(np.int64).tolist()


def as_lanes(column):
    """A column of Vec2s as (x, y) lanes; a column of floats as one lane."""
    if isinstance(column[0], Vec2):
        return np.array([v.x for v in column]), np.array([v.y for v in column])
    return np.array(column, dtype=float)


def assert_twin(twin, scalar, rows) -> None:
    """`twin` over the lanes of `rows` returns the bits `scalar` returns on
    each row, or raises an error some row raises."""
    expected, raised = [], set()
    for row in rows:
        try:
            out = scalar(*row)
        except ValueError as exc:
            raised.add(type(exc))
            continue
        expected.append((out.x, out.y) if isinstance(out, Vec2) else (out,))
    columns = [as_lanes(list(column)) for column in zip(*rows)]
    if raised:
        with pytest.raises(ValueError) as info:
            twin(*columns)
        assert type(info.value) in raised
        return
    got = twin(*columns)
    got = got if isinstance(got, tuple) else (got,)
    assert [bits(c) for c in got] == [bits(c) for c in zip(*expected)]


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


lane_pairs = st.lists(pairs(), min_size=1, max_size=6)
noise = st.one_of(
    st.just(NOISELESS),
    st.builds(
        NoiseParams,
        beta_b=st.floats(0.0, 1.0),
        beta_d=st.floats(0.0, 1.0),
        beta_v=st.floats(0.0, 1.0),
        nu=st.floats(0.0, 1.0),
    ),
)
half_widths = st.floats(1e-3, 5.0)
normals = st.floats(-5.0, 5.0)
strategy_members = st.sampled_from(list(DefenderStrategy))
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 2.0**-1024, 2.0**-1023, 1e-300, 1e307,
           1.7e308, math.inf, -math.inf, math.nan]


class TestHypot:
    @given(st.lists(st.tuples(st.one_of(st.floats(), st.sampled_from(SPECIAL)),
                              st.one_of(st.floats(), st.sampled_from(SPECIAL))),
                    min_size=1, max_size=8))
    @example([(5e-324, 0.0), (0.0, -0.0), (-0.0, -0.0), (math.nan, math.inf)])
    def test_matches_math_hypot(self, rows):
        assert_twin(lanes.hypot, math.hypot, rows)


class TestGeometryTwins:
    @given(st.lists(st.tuples(st.floats(0.0, 100.0), st.floats(-math.pi, math.pi)),
                    min_size=1, max_size=8))
    def test_from_polar(self, rows):
        assert_twin(lanes.from_polar, Vec2.from_polar, rows)

    @given(lane_pairs)
    def test_defense_margin(self, rows):
        assert_twin(lanes.defense_margin, geometry.defense_margin, rows)

    @given(lane_pairs)
    def test_closest_safe_reachable_point(self, rows):
        assert_twin(lanes.closest_safe_reachable_point, geometry.closest_safe_reachable_point, rows)

    def test_target_is_the_origin_when_rho_is_not_positive(self):
        rows = [(Vec2(1.0, 2.0), Vec2(3.0, -4.0)), (Vec2(5.0, 0.0), Vec2(0.0, 5.0))]
        assert all(geometry.defense_margin(y, xd) <= 0.0 for y, xd in rows)
        assert_twin(lanes.closest_safe_reachable_point, geometry.closest_safe_reachable_point, rows)
        assert_twin(lanes.dm_control, strategies.dm_control, rows)


class TestObservationTwins:
    @given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8), noise)
    def test_noise_variance_over_lanes(self, distances, params):
        assert_twin(lambda d: observation.noise_variance(d, params),
                    lambda d: observation.noise_variance(d, params), [(d,) for d in distances])

    @given(st.lists(st.tuples(points, points, normals, normals), min_size=1, max_size=6), noise)
    def test_observe(self, rows, params):
        assert_twin(
            lambda xa, xd, w0, w1: lanes.observe(xa, xd, params, np.column_stack((w0, w1))),
            lambda xa, xd, w0, w1: observation.observe(xa, xd, params, Normals(w0, w1)),
            rows,
        )

    @given(lane_pairs, noise, half_widths)
    def test_reliability(self, rows, params, k):
        assert_twin(lambda y, xd: lanes.reliability(y, xd, params, k),
                    lambda y, xd: observation.reliability(y, xd, params, k), rows)

    def test_zero_variance_is_exactly_one(self):
        rows = [(Vec2(3.0, 4.0), Vec2(0.0, 0.0)), (Vec2(1.0, 1.0), Vec2(1.0, 1.0))]
        assert_twin(lambda y, xd: lanes.reliability(y, xd, NOISELESS, 0.5),
                    lambda y, xd: observation.reliability(y, xd, NOISELESS, 0.5), rows)
        y, xd = as_lanes([r[0] for r in rows]), as_lanes([r[1] for r in rows])
        assert lanes.reliability(y, xd, NOISELESS, 0.5).tolist() == [1.0, 1.0]


class TestStrategyTwins:
    @given(lane_pairs, strategy_members, noise, half_widths)
    def test_defender_control(self, rows, strategy, params, k):
        assert_twin(lambda y, xd: lanes.defender_control(strategy, y, xd, params, k),
                    lambda y, xd: strategies.defender_control(strategy, y, xd, params, k), rows)

    def test_direction_below_threshold_is_zero(self):
        rows = [(Vec2(1e-13, 0.0), Vec2(0.0, 0.0)), (Vec2(7.0, 3.0), Vec2(7.0, 3.0 + 5e-13))]
        for name in ("pp_control", "dm_control"):
            assert_twin(getattr(lanes, name), getattr(strategies, name), rows[:1])
        assert_twin(lanes.pp_control, strategies.pp_control, rows)
        y, xd = as_lanes([r[0] for r in rows]), as_lanes([r[1] for r in rows])
        assert bits(lanes.pp_control(y, xd)[0]) == bits([0.0, 0.0])

    def test_blend_below_threshold_falls_back_to_margin_keeping(self):
        """Exact observations give reliability 1, so the blend is the pursuit
        direction, which is zero a hair from the defender; the control is
        then the (non-zero) margin-keeping direction."""
        rows = [(Vec2(10.0, 0.0), Vec2(10.0, 5e-13))]
        assert_twin(lambda y, xd: lanes.adm_control(y, xd, NOISELESS, 0.5),
                    lambda y, xd: strategies.adm_control(y, xd, NOISELESS, 0.5), rows)
        y, xd = as_lanes([rows[0][0]]), as_lanes([rows[0][1]])
        control = lanes.adm_control(y, xd, NOISELESS, 0.5)
        assert control[0][0] == -1.0
        assert [bits(c) for c in control] == [bits(c) for c in lanes.dm_control(y, xd)]

    @given(st.lists(points, min_size=1, max_size=8))
    def test_linear_attacker(self, column):
        assert_twin(lanes.linear_attacker, strategies.linear_attacker, [(p,) for p in column])


@given(st.lists(st.tuples(points, points, normals, normals, points), min_size=1, max_size=6),
       strategy_members, noise, half_widths)
def test_one_step_margin_change(rows, strategy, params, k):
    assert_twin(
        lambda xa, xd, w0, w1, motion: lanes.one_step_margin_change(
            xa, xd, strategy, params, k, np.column_stack((w0, w1)), motion),
        lambda xa, xd, w0, w1, motion: analysis.one_step_margin_change(
            xa, xd, strategy, params, k, Normals(w0, w1), motion),
        rows,
    )


class TestRefusals:
    """A lane the scalar code refuses makes the whole array call raise the
    same error, so no NaN or infinity reaches an estimate."""

    def test_coincident_lane(self):
        xa = (np.array([30.0, 20.0]), np.array([0.0, 5.0]))
        xd = (np.array([1.0, 20.0]), np.array([2.0, 5.0]))
        with pytest.raises(CoincidentAgentsError):
            geometry.defense_margin(Vec2(20.0, 5.0), Vec2(20.0, 5.0))
        with pytest.raises(CoincidentAgentsError):
            lanes.defense_margin(xa, xd)
        with pytest.raises(CoincidentAgentsError):
            lanes.dm_control(xa, xd)
        with pytest.raises(CoincidentAgentsError):
            lanes.one_step_margin_change(xa, xd, DefenderStrategy.PURE_PURSUIT, NOISELESS, 0.5,
                                         np.zeros((2, 2)), lanes.linear_attacker(xa))

    def test_non_finite_observation_lane(self):
        xa = (np.array([30.0, 1e308]), np.array([0.0, 0.0]))
        xd = (np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        w = np.array([[0.5, 0.5], [2.0, 0.0]])
        params = NoiseParams(beta_d=1.0)
        with pytest.raises(ValueError, match="non-finite"):
            observation.observe(Vec2(1e308, 0.0), Vec2(0.0, 0.0), params, Normals(2.0, 0.0))
        with pytest.raises(ValueError, match="non-finite"):
            lanes.observe(xa, xd, params, w)

    def test_huge_noise_refused_by_the_estimator(self):
        """With beta = 1e308 every observation overflows: the scalar step and
        the block estimator both raise instead of averaging infinities."""
        params = NoiseParams(beta_d=1e308)
        xa = Vec2(30.0, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            analysis.one_step_margin_change(xa, Vec2(0.0, 0.0), DefenderStrategy.PURE_PURSUIT,
                                            params, 0.5, Rng(0), strategies.linear_attacker(xa))
        for strategy in DefenderStrategy:
            with pytest.raises(ValueError, match="non-finite"):
                analysis.estimate_mean_margin_change(strategy, params, 0.5, 100, Rng(0))

    def test_origin_attacker_and_bad_half_width(self):
        xa = (np.array([3.0, 0.0]), np.array([4.0, 0.0]))
        with pytest.raises(ValueError, match="origin"):
            lanes.linear_attacker(xa)
        with pytest.raises(ValueError, match="half-width"):
            lanes.reliability(xa, xa, NOISELESS, 0.0)
