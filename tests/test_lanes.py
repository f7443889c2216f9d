"""The array twins in `lanes` give, lane by lane, the bits of their scalar
namesakes (the dispatchers' laws, for the controls) on inputs within the
bounds their callers enforce, and refuse coincident agents as the scalar
code does.

Bit equality is asserted on IEEE bit patterns, so 0.0 and -0.0 differ; all
NaNs count as one value.  `lanes.reliability` calls `math.erf` per lane, and
`lanes.hypot` calls `math.hypot` on every lane it does not certify.
`lanes.from_polar` and `lanes.spiral_heading` take numpy's ``cos`` and
``sin``, so their tests hold on a numpy build whose ``cos`` and ``sin`` give
libm's bits, which `TestNumpyGivesLibmBits` checks.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import Normals, as_pair, margin_of, noise, pairs, points
from guardian_sim import analysis, geometry, lanes, observation, strategies
from guardian_sim.cli import main
from guardian_sim.engine import InvalidInitializationError, WorldConfig, run_episode
from guardian_sim.geometry import CoincidentAgentsError, Vec2
from guardian_sim.observation import NoiseParams
from guardian_sim.rng import Rng
from guardian_sim.strategies import DefenderStrategy
from oracles import lane_intelligent_attacker, lane_spiral_attacker

NOISELESS = NoiseParams(beta_b=0.0, beta_d=0.0, beta_v=0.0, nu=1.0)
PP, DM, ADM = DefenderStrategy
LINEAR, SPIRAL, INTELLIGENT = strategies.MATRIX_ATTACKERS


# The scalar laws, handed the norms a caller holds and the row's points as
# pairs.  The linear and spiral attackers read none of the arguments passed as
# None; the `scalar_*` makers bind the settings and return the law of the row's
# points.
def linear_attacker(xa: Vec2):
    return strategies.attacker_control(LINEAR, as_pair(xa), None, None, None, None, xa.norm())


def spiral_attacker(xa: Vec2):
    return strategies.attacker_control(SPIRAL, as_pair(xa), None, None, None, None, xa.norm())


def scalar_intelligent(params: NoiseParams):
    return lambda xa, xd, w0, w1: strategies.attacker_control(
        INTELLIGENT, as_pair(xa), as_pair(xd), params, Normals(w0, w1), xa.distance_to(xd),
        xa.norm())


def scalar_defender(strategy: DefenderStrategy, params: NoiseParams, k: float):
    return lambda y, xd: strategies.defender_control(
        strategy, as_pair(y), as_pair(xd), params, k, y.distance_to(xd))


def scalar_reliability(params: NoiseParams, k: float):
    return lambda y, xd: observation.reliability(params, k, y.distance_to(xd))


def closest_point(xa: Vec2, xd: Vec2):
    return geometry.closest_safe_reachable_point(as_pair(xa), as_pair(xd), xa.distance_to(xd))


def bits(values) -> list[int]:
    a = np.asarray(values, dtype=float)
    return np.where(np.isnan(a), np.nan, a).view(np.int64).tolist()


def as_lanes(column):
    """A column of Vec2s as a (2, N) vector of lanes; a column of floats as
    one (N,) lane."""
    if isinstance(column[0], Vec2):
        return np.array([[v.x for v in column], [v.y for v in column]])
    return np.array(column, dtype=float)


def apart(a, b):
    """||a - b|| over (2, N) lanes: the norm a twin's callers hand it."""
    return lanes.hypot(*(a - b))


def unit(v, *rest):
    """`lanes._unit` of the (2, N) vector v, handed ||v|| as its callers hand it."""
    return lanes._unit(v, lanes.hypot(*v), *rest)


def rows_of(out):
    """A twin's result as a list of (N,) rows: a vector's x and y, or the one lane."""
    return list(out) if np.ndim(out) == 2 else [out]


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
        expected.append(
            as_pair(out) if isinstance(out, Vec2) else out if isinstance(out, tuple) else (out,))
    columns = [as_lanes(list(column)) for column in zip(*rows)]
    if raised:
        with pytest.raises(ValueError) as info:
            twin(*columns)
        assert type(info.value) in raised
        return
    assert [bits(c) for c in rows_of(twin(*columns))] == [bits(c) for c in zip(*expected)]


lane_pairs = st.lists(pairs(), min_size=1, max_size=6)
half_widths = st.floats(1e-3, 5.0)
normals = st.floats(-5.0, 5.0)
strategy_members = st.sampled_from(list(DefenderStrategy))
# Attacker points within the twins' domain, as `engine._validate_init`'s bounds
# on r_safe keep every live attacker: a radius of at least 1e-12 for the linear
# and intelligent controls, above 1 for the spiral.
homing_points = points.filter(lambda p: p.norm() >= strategies._EPS_DIRECTION)
spiral_points = points.filter(lambda p: p.norm() > 1.0)
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 2.0**-1024, 2.0**-1023, 1e-300, 1e307,
           1.7e308, math.inf, -math.inf, math.nan]


hypot_rows = st.lists(st.tuples(st.one_of(st.floats(), st.sampled_from(SPECIAL)),
                                st.one_of(st.floats(), st.sampled_from(SPECIAL))),
                      min_size=1, max_size=8)


def simulator_lanes(gen, m: int):
    """m (x, y) lanes at the simulator's scales: differences of two points
    within 60 of the origin, about 1 % of them a hair apart (below the
    1e-12 direction threshold) and about 0.5 % with a zero component."""
    r, phi = gen.uniform(0.0, 60.0, (2, m)), gen.uniform(-math.pi, math.pi, (2, m))
    x = r[0] * np.cos(phi[0]) - r[1] * np.cos(phi[1])
    y = r[0] * np.sin(phi[0]) - r[1] * np.sin(phi[1])
    near = gen.random(m) < 0.01
    x[near], y[near] = x[near] * 1e-14, y[near] * 1e-14
    x[gen.random(m) < 0.0025] = 0.0
    y[gen.random(m) < 0.0025] = 0.0
    return x, y


def math_hypot(x, y) -> list[int]:
    return bits(list(map(math.hypot, x.tolist(), y.tolist())))


def near_midpoint(x: float, y: float, within: float) -> bool:
    """Whether the exact hypot of (x, y) lies within `within` of the gap
    between two floats from a rounding midpoint (exact arithmetic)."""
    h = math.hypot(x, y)
    below, above = h - math.nextafter(h, 0.0), math.nextafter(h, math.inf) - h
    square = Fraction(x) ** 2 + Fraction(y) ** 2
    for mid, gap in ((Fraction(h) - Fraction(below) / 2, below),
                     (Fraction(h) + Fraction(above) / 2, above)):
        slack = Fraction(within) * Fraction(gap)
        if (mid - slack) ** 2 <= square <= (mid + slack) ** 2:
            return True
    return False


def midpoint_pairs(gen) -> list[tuple[float, float]]:
    """Pairs whose exact hypot lies within delta / 2 ulp of a rounding
    midpoint.  With y tiny, hypot(x, y) is x + y^2 / (2x) to far below an
    ulp, so y^2 = (2j + 1) x ulp(x) puts it on the j-th midpoint above x.
    That includes the midpoint below a power of two, where the gaps on the
    two sides differ.  The rest are found by search among simulator-scale
    pairs."""
    half = lanes._DELTA / 2
    found = [(x, math.sqrt(x * math.ulp(x) * (2 * j + 1)))
             for x in gen.uniform(1.0, 60.0, 12).tolist() for j in range(3)]
    for e in range(-3, 7):
        x = math.nextafter(2.0**e, 0.0)
        found += [(x, math.sqrt(x * math.ulp(x) * (1.0 + s))) for s in (-1e-6, 0.0, 1e-6)]
    x, y = simulator_lanes(gen, 20_000)
    found += [row for row in zip(x.tolist(), y.tolist()) if near_midpoint(*row, half)]
    assert all(near_midpoint(*row, half) for row in found)
    assert len(found) > 66 + 20
    return found


def power_pairs(gen) -> tuple[list, list]:
    """Pairs whose candidate ``sqrt(x*x + y*y)`` and `math.hypot` lie on the
    two sides of a power of two P, for P from 2**-3 to 2**6.  Down: the
    candidate is P, and `math.hypot` gives the float below it, where the ulp
    is half as wide; found by search among (P cos phi, P sin phi), since a
    search among pairs with y tiny, as `midpoint_pairs` builds them, found
    none.  Up: the candidate is the float x below P, and
    `math.hypot` gives P; built as `midpoint_pairs` builds its pairs, with
    y^2 = c x ulp(x) for 1 < c < 1.5, which puts x^2 + y^2 between
    (P - ulp(x) / 2)^2 and the midpoint of the squares' grid below P^2."""
    down, up = [], []
    for e in range(-3, 7):
        p = 2.0**e
        phi = gen.uniform(0.0, math.pi / 2, 20_000)
        x, y = p * np.cos(phi), p * np.sin(phi)
        on = np.sqrt(x * x + y * y) == p
        down += [row for row in zip(x[on].tolist(), y[on].tolist()) if math.hypot(*row) < p]
        below = math.nextafter(p, 0.0)
        up += [(below, math.sqrt(below * math.ulp(below) * c)) for c in gen.uniform(1.0, 1.5, 4)]
    assert all(math.sqrt(x * x + y * y) == x < math.hypot(x, y) == math.nextafter(x, 3.0 * x)
               for x, y in up)
    assert len(down) > 100 and len(up) == 40
    return down, up


class TestHypot:
    @given(hypot_rows)
    @example([(5e-324, 0.0), (0.0, -0.0), (-0.0, -0.0), (math.nan, math.inf)])
    def test_matches_math_hypot(self, rows):
        assert_twin(lanes.hypot, math.hypot, rows)

    @given(hypot_rows, st.sampled_from([1, 4]), st.integers(0, 2**32 - 1))
    @example([(5e-324, 0.0), (0.0, -0.0), (math.nan, math.inf), (2.0**-1022, 3.0)], 1, 0)
    def test_certified_path_matches_math_hypot(self, rows, widths, seed):
        """The rows, and every special value paired with a simulator-scale
        component, at random places in a block of `_CERTIFY_FROM` or four
        times as many lanes, so `np.hypot` is certified lane by lane."""
        gen = np.random.default_rng(seed)
        m = widths * lanes._CERTIFY_FROM
        x, y = simulator_lanes(gen, m)
        at = gen.permutation(m)
        for i, (a, b) in zip(at, rows):
            x[i], y[i] = a, b
        for i, j, s in zip(at[len(rows)::2], at[len(rows) + 1::2], SPECIAL):
            x[i], y[j] = s, s
        assert bits(lanes.hypot(x, y)) == math_hypot(x, y)

    def test_a_million_simulator_pairs(self):
        """Including the pairs where `np.hypot` misses `math.hypot`."""
        gen, missed = np.random.default_rng(13), 0
        for _ in range(250):
            x, y = simulator_lanes(gen, 4_000)
            expected = math_hypot(x, y)
            missed += int((bits(np.hypot(x, y)) != np.array(expected)).sum())
            assert bits(lanes.hypot(x, y)) == expected
        assert missed > 1_000

    def test_a_million_pairs_the_sqrt_candidate_misses(self):
        """The certified path's candidate ``sqrt(x*x + y*y)`` misses
        `math.hypot` on about a sixth of simulator-scale pairs; `hypot`
        rounds every one of them to `math.hypot`'s bits."""
        gen, missed = np.random.default_rng(23), 0
        for _ in range(250):
            x, y = simulator_lanes(gen, 4_000)
            expected = math_hypot(x, y)
            missed += int((bits(np.sqrt(x * x + y * y)) != np.array(expected)).sum())
            assert bits(lanes.hypot(x, y)) == expected
        assert 150_000 < missed < 190_000

    def test_results_across_a_power_of_two(self, monkeypatch):
        """The pairs of `power_pairs`, at random places in blocks of
        simulator-scale lanes, get `math.hypot`'s bits, and each goes to
        `math.hypot`: the candidate, moved by k ulp, lands on P, where the
        ulp differs on the two sides.  Certifying by |e - k| alone gives P
        on the down pairs."""
        gen = np.random.default_rng(37)
        down, up = power_pairs(gen)
        rows = down + up
        fell, per_lane = set(), lanes._per_lane

        def spy(fn, *args):
            if fn is math.hypot:
                fell.update(zip(*(a.tolist() for a in args)))
            return per_lane(fn, *args)

        monkeypatch.setattr(lanes, "_per_lane", spy)
        m = 2 * lanes._CERTIFY_FROM
        for start in range(0, len(rows), m // 4):
            chunk = rows[start:start + m // 4]
            x, y = simulator_lanes(gen, m)
            at = gen.choice(m, len(chunk), replace=False)
            x[at], y[at] = np.array(chunk).T
            fell.clear()
            assert bits(lanes.hypot(x, y)) == math_hypot(x, y)
            assert set(chunk) <= fell

    @pytest.mark.parametrize("scale", [2.0**-1060, 2.0**-700, 2.0**-450, 2.0**450, 2.0**700])
    def test_far_from_the_simulator_scale(self, scale):
        """Outside 2**-400 <= h <= 2**400 squares underflow or overflow, and
        every lane goes to `math.hypot`."""
        x, y = simulator_lanes(np.random.default_rng(19), 4_000)
        x, y = x * scale, y * scale
        assert bits(lanes.hypot(x, y)) == math_hypot(x, y)

    def test_lanes_near_a_midpoint_fall_back(self, monkeypatch):
        """Lanes whose true value lies within delta / 2 ulp of a rounding
        midpoint are not certified: they go to `math.hypot` per lane, and
        the result is still its bits.  Certifying every lane fails here.
        Around `_CERTIFY_SLICE` too: a wider call is certified in as few
        slices as fit within it, of nearly equal width."""
        gen = np.random.default_rng(17)
        rows = midpoint_pairs(gen)
        fell, per_lane, whole = set(), lanes._per_lane, lanes.hypot
        widths = []

        def spy(fn, *args):
            if fn is math.hypot:
                fell.update(zip(*(a.tolist() for a in args)))
            return per_lane(fn, *args)

        def sliced(x, y):
            widths.append(len(x))
            return whole(x, y)

        monkeypatch.setattr(lanes, "_per_lane", spy)
        monkeypatch.setattr(lanes, "hypot", sliced)
        cap = lanes._CERTIFY_SLICE
        for m in (lanes._CERTIFY_FROM, 4 * lanes._CERTIFY_FROM, cap - 1, cap, cap + 1, 2 * cap + 1):
            for start in range(0, len(rows), m // 4):
                chunk = rows[start:start + m // 4]
                x, y = simulator_lanes(gen, m)
                at = gen.choice(m, len(chunk), replace=False)
                x[at], y[at] = np.array(chunk).T
                fell.clear()
                widths.clear()
                assert bits(lanes.hypot(x, y)) == math_hypot(x, y)
                assert set(chunk) <= fell
                slices = widths[1:] or widths
                assert widths[0] == m and sum(slices) == m and len(slices) == -(-m // cap)
                assert max(slices) - min(slices) <= len(slices)


class TestNumpyGivesLibmBits:
    """numpy's ``cos`` and ``sin`` give `math.cos`'s and `math.sin`'s bits,
    as the `lanes` docstring assumes, on every angle the default outputs
    reach and on a wide sweep.  This is a property of the numpy build in
    use, not of numpy: on a build whose ``cos`` or ``sin`` differs from
    libm's these tests fail, and so would the twins."""

    @staticmethod
    def assert_libm_bits(angles):
        for ufunc, fn in ((np.cos, math.cos), (np.sin, math.sin)):
            libm = lanes._per_lane(fn, angles)
            assert np.array_equal(ufunc(angles).view(np.int64), libm.view(np.int64)), fn.__name__

    def test_spiral_angles_of_the_headline_matrix(self, monkeypatch):
        """Every angle atan2(y, x) - 1/r that `spiral_heading` takes in the
        1000-trial seed-0 matrix, recomputed from its arguments: 48,044, one
        per trial with a live spiral lane at each step (the pairs of a trial
        share its spiral's path)."""
        angles, heading = [], lanes.spiral_heading

        def spy(xa, n=None):
            r = lanes.hypot(*xa) if n is None else n
            angles.append(lanes._per_lane(math.atan2, xa[1], xa[0]) - 1.0 / r)
            return heading(xa, n)

        monkeypatch.setattr(lanes, "spiral_heading", spy)
        analysis.run_experiment_matrix(WorldConfig(), 1000, 0)
        angles = np.concatenate(angles)
        assert len(angles) > 48_000
        self.assert_libm_bits(angles)

    def test_margin_table_angles(self, monkeypatch, capsys):
        """Every angle the default `margin-table` samples: two per sample,
        10^5 samples for each of the three strategies."""
        angles, polar = [], lanes.from_polar

        def spy(radius, angle):
            angles.append(angle)
            return polar(radius, angle)

        monkeypatch.setattr(lanes, "from_polar", spy)
        assert main(["margin-table"]) == 0
        assert "n=100000" in capsys.readouterr().out
        angles = np.concatenate(angles)
        assert len(angles) == 600_000
        self.assert_libm_bits(angles)

    def test_a_wide_sweep(self):
        self.assert_libm_bits(np.random.default_rng(29).uniform(-1e6, 1e6, 10**6))


def test_only_atan2_erf_and_hypot_go_lane_by_lane(monkeypatch):
    """The default 100-trial matrix calls a scalar function per lane only
    for `math.atan2`, `math.erf` and `math.hypot`: the spiral takes numpy's
    ``cos`` and ``sin`` (see `TestNumpyGivesLibmBits`)."""
    called, per_lane = set(), lanes._per_lane

    def spy(fn, *args):
        called.add(fn)
        return per_lane(fn, *args)

    monkeypatch.setattr(lanes, "_per_lane", spy)
    analysis.run_experiment_matrix(WorldConfig(), 100, 0)
    assert math.atan2 in called
    assert called <= {math.atan2, math.erf, math.hypot}


class TestGeometryTwins:
    @given(st.lists(st.tuples(st.floats(0.0, 100.0), st.floats(-math.pi, math.pi)),
                    min_size=1, max_size=8))
    def test_from_polar(self, rows):
        assert_twin(lanes.from_polar, Vec2.from_polar, rows)

    @given(lane_pairs)
    def test_defense_margin(self, rows):
        assert_twin(lambda xa, xd: lanes.defense_margin(xa, xd, apart(xa, xd)), margin_of, rows)

    @given(lane_pairs)
    def test_closest_safe_reachable_point(self, rows):
        assert_twin(lambda xa, xd: lanes.closest_safe_reachable_point(xa, xd, apart(xa, xd)),
                    closest_point, rows)

    def test_target_is_the_origin_when_rho_is_not_positive(self):
        rows = [(Vec2(1.0, 2.0), Vec2(3.0, -4.0)), (Vec2(5.0, 0.0), Vec2(0.0, 5.0))]
        assert all(margin_of(y, xd) <= 0.0 for y, xd in rows)
        assert_twin(lambda y, xd: lanes.closest_safe_reachable_point(y, xd, apart(y, xd)),
                    closest_point, rows)
        assert_twin(lambda y, xd: lanes.defender_control(DM, y, xd, NOISELESS, 0.5),
                    scalar_defender(DM, NOISELESS, 0.5), rows)


class TestObservationTwins:
    @given(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8), noise)
    def test_noise_variance_over_lanes(self, distances, params):
        assert_twin(lambda d: observation.noise_variance(d, params),
                    lambda d: observation.noise_variance(d, params), [(d,) for d in distances])

    @given(st.lists(st.tuples(points, points, normals, normals), min_size=1, max_size=6), noise)
    def test_observe(self, rows, params):
        assert_twin(
            lambda xa, xd, w0, w1: lanes.observe(xa, params, np.array((w0, w1)), apart(xa, xd)),
            lambda xa, xd, w0, w1: observation.observe(
                as_pair(xa), params, Normals(w0, w1), xa.distance_to(xd)),
            rows,
        )

    @given(lane_pairs, noise, half_widths)
    def test_reliability(self, rows, params, k):
        assert_twin(lambda y, xd: lanes.reliability(params, k, apart(y, xd)),
                    scalar_reliability(params, k), rows)

    def test_infinite_variance_is_exactly_zero(self):
        """beta * distance^2 overflows: the scalar code gets erf(0) = 0, and
        so does the twin, without a warning."""
        rows = [(Vec2(1e160, 0.0), Vec2(0.0, 0.0)), (Vec2(3.0, 4.0), Vec2(0.0, 0.0))]
        params = NoiseParams(beta_d=1.0)
        assert_twin(lambda y, xd: lanes.reliability(params, 0.5, apart(y, xd)),
                    scalar_reliability(params, 0.5), rows)
        assert scalar_reliability(params, 0.5)(*rows[0]) == 0.0

    def test_zero_variance_is_exactly_one(self):
        rows = [(Vec2(3.0, 4.0), Vec2(0.0, 0.0)), (Vec2(1.0, 1.0), Vec2(1.0, 1.0))]
        assert_twin(lambda y, xd: lanes.reliability(NOISELESS, 0.5, apart(y, xd)),
                    scalar_reliability(NOISELESS, 0.5), rows)
        y, xd = as_lanes([r[0] for r in rows]), as_lanes([r[1] for r in rows])
        assert lanes.reliability(NOISELESS, 0.5, apart(y, xd)).tolist() == [1.0, 1.0]


class TestStrategyTwins:
    @given(lane_pairs, strategy_members, noise, half_widths)
    def test_defender_control(self, rows, strategy, params, k):
        assert_twin(lambda y, xd: lanes.defender_control(strategy, y, xd, params, k),
                    scalar_defender(strategy, params, k), rows)

    def test_direction_below_threshold_is_zero(self):
        rows = [(Vec2(1e-13, 0.0), Vec2(0.0, 0.0)), (Vec2(7.0, 3.0), Vec2(7.0, 3.0 + 5e-13))]
        for strategy in (PP, DM):
            assert_twin(lambda y, xd: lanes.defender_control(strategy, y, xd, NOISELESS, 0.5),
                        scalar_defender(strategy, NOISELESS, 0.5),
                        rows if strategy is PP else rows[:1])
        y, xd = as_lanes([r[0] for r in rows]), as_lanes([r[1] for r in rows])
        assert bits(lanes.defender_control(PP, y, xd, NOISELESS, 0.5)[0]) == bits([0.0, 0.0])

    def test_blend_below_threshold_falls_back_to_margin_keeping(self):
        """Exact observations give reliability 1, so the blend is the pursuit
        direction, which is zero a hair from the defender; the control is
        then the (non-zero) margin-keeping direction."""
        rows = [(Vec2(10.0, 0.0), Vec2(10.0, 5e-13))]
        assert_twin(lambda y, xd: lanes.defender_control(ADM, y, xd, NOISELESS, 0.5),
                    scalar_defender(ADM, NOISELESS, 0.5), rows)
        y, xd = as_lanes([rows[0][0]]), as_lanes([rows[0][1]])
        control, dm = (lanes.defender_control(s, y, xd, NOISELESS, 0.5) for s in (ADM, DM))
        assert control[0][0] == -1.0
        assert [bits(c) for c in control] == [bits(c) for c in dm]

    @given(st.lists(homing_points, min_size=1, max_size=8))
    @example([Vec2(1e-12, 0.0), Vec2(-0.0, -1e-12), Vec2(5e-324, 1e-12)])
    def test_linear_attacker(self, column):
        assert_twin(lambda xa: lanes.linear_attacker(xa, lanes.hypot(*xa)), linear_attacker,
                    [(p,) for p in column])

    @given(st.lists(spiral_points, min_size=1, max_size=8))
    @example([Vec2(1.0 + 2.0**-52, 0.0), Vec2(-30.0, -0.0), Vec2(0.0, -45.5)])
    def test_spiral_attacker(self, column):
        assert_twin(lambda xa: lane_spiral_attacker(xa, lanes.hypot(*xa)),
                    spiral_attacker, [(p,) for p in column])

    @given(st.lists(st.tuples(homing_points, points, normals, normals), min_size=1, max_size=6),
           noise)
    @example([(Vec2(1e-12, 0.0), Vec2(0.0, 0.0), 0.5, -0.5)], NOISELESS)
    def test_intelligent_attacker(self, rows, params):
        assert_twin(
            lambda xa, xd, w0, w1: lane_intelligent_attacker(
                xa, xd, params, np.array((w0, w1)), apart(xa, xd), lanes.hypot(*xa)),
            scalar_intelligent(params),
            rows,
        )

    def test_intelligent_fallbacks(self):
        """An observed defender within 1e-12 of the attacker, and a blend
        below 1e-9, both leave the straight line to the origin."""
        rows = [(Vec2(30.0, 0.0), Vec2(30.0, 1e-13), 0.0, 0.0),   # away shorter than 1e-12
                (Vec2(30.0, 0.0), Vec2(29.0, 0.0), 0.0, 0.0)]     # blend exactly zero
        for row in rows:
            assert Vec2(*scalar_intelligent(NOISELESS)(*row)) == Vec2(-1.0, -0.0)
        assert_twin(
            lambda xa, xd, w0, w1: lane_intelligent_attacker(
                xa, xd, NOISELESS, np.array((w0, w1)), apart(xa, xd), lanes.hypot(*xa)),
            scalar_intelligent(NOISELESS),
            rows,
        )

    @given(st.lists(st.tuples(points, points, normals, normals, st.floats(0.5, 2.0)).filter(
        lambda row: row[4] * row[0].norm() > 1.0), min_size=1, max_size=6), noise, half_widths)
    @example([(Vec2(2.0 + 2.0**-51, 0.0), Vec2(0.0, 1.0), 0.5, -0.5, 0.5)], NOISELESS, 0.5)
    def test_a_held_norm_is_used_as_given(self, rows, params, k):
        """Handed f times the norm it would compute, each twin, and each
        piece the matrix kernel composes, returns the scalar function's (or
        formula's) bits at that same norm: ``sep`` is f ||a - b||, ``n`` is
        f ||a||, above 1 as the spiral needs."""
        def check(twin, scalar):
            assert_twin(
                lambda a, b, w0, w1, f: twin(
                    a, b, np.array((w0, w1)),
                    f * lanes.hypot(a[0] - b[0], a[1] - b[1]), f * lanes.hypot(*a)),
                lambda a, b, w0, w1, f: scalar(
                    a, b, Normals(w0, w1), f * a.distance_to(b), f * a.norm()),
                rows,
            )

        def spiral_heading(a, r):
            angle, inner = math.atan2(a.y, a.x) - 1.0 / r, r - 1.0
            return Vec2(inner * math.cos(angle) - a.x, inner * math.sin(angle) - a.y)

        def intelligent_heading(away, to_origin, dist):
            if dist < strategies._EPS_DIRECTION:
                return Vec2(0.0, 0.0)
            scale = 1.0 / (dist * dist)
            return Vec2(away.x * scale + to_origin.x, away.y * scale + to_origin.y)

        twins = [
            (lambda a, b, w, sep, n: lanes.observe(a, params, w, sep),
             lambda a, b, w, sep, n: observation.observe(as_pair(a), params, w, sep)),
            (lambda a, b, w, sep, n: lanes.reliability(params, k, sep),
             lambda a, b, w, sep, n: observation.reliability(params, k, sep)),
            (lambda a, b, w, sep, n: lanes.defense_margin(a, b, sep),
             lambda a, b, w, sep, n: geometry.defense_margin(as_pair(a), as_pair(b), sep)),
            (lambda a, b, w, sep, n: lanes.closest_safe_reachable_point(a, b, sep),
             lambda a, b, w, sep, n: geometry.closest_safe_reachable_point(
                 as_pair(a), as_pair(b), sep)),
            (lambda a, b, w, sep, n: lanes._unit(a - b, sep),
             lambda a, b, w, sep, n: strategies.defender_control(
                 PP, as_pair(a), as_pair(b), params, k, sep)),
            (lambda a, b, w, sep, n: unit(lanes.dm_heading(a, b, sep)),
             lambda a, b, w, sep, n: strategies.defender_control(
                 DM, as_pair(a), as_pair(b), params, k, sep)),
            (lambda a, b, w, sep, n: lanes.linear_attacker(a, n),
             lambda a, b, w, sep, n: strategies.attacker_control(
                 LINEAR, as_pair(a), as_pair(b), params, w, sep, n)),
            (lambda a, b, w, sep, n: lane_spiral_attacker(a, n),
             lambda a, b, w, sep, n: strategies.attacker_control(
                 SPIRAL, as_pair(a), as_pair(b), params, w, sep, n)),
            (lambda a, b, w, sep, n: lane_intelligent_attacker(a, b, params, w, sep, n),
             lambda a, b, w, sep, n: strategies.attacker_control(
                 INTELLIGENT, as_pair(a), as_pair(b), params, w, sep, n)),
            # The pieces the matrix kernel composes.
            (lambda a, b, w, sep, n: lanes._unit(a, n),
             lambda a, b, w, sep, n: strategies._unit(a.x, a.y, n)),
            (lambda a, b, w, sep, n: lanes.dm_heading(a, b, sep),
             lambda a, b, w, sep, n: Vec2(*geometry.closest_safe_reachable_point(
                 as_pair(a), as_pair(b), sep)) - b),
            (lambda a, b, w, sep, n: lanes.spiral_heading(a, n),
             lambda a, b, w, sep, n: spiral_heading(a, n)),
            (lambda a, b, w, sep, n: lanes.intelligent_away(a, b, params, w, sep),
             lambda a, b, w, sep, n: a - Vec2(*observation.observe(as_pair(b), params, w, sep))),
            (lambda a, b, w, sep, n: lanes.intelligent_heading(a, b, n),
             lambda a, b, w, sep, n: intelligent_heading(a, b, n)),
        ]
        for twin, scalar in twins:
            check(twin, scalar)


@given(st.lists(st.tuples(points, points, normals, normals, points), min_size=1, max_size=6),
       strategy_members, noise, half_widths)
def test_one_step_margin_change(rows, strategy, params, k):
    assert_twin(
        lambda xa, xd, w0, w1, motion: lanes.one_step_margin_change(
            xa, xd, strategy, params, k, np.array((w0, w1)), motion, apart(xa, xd)),
        lambda xa, xd, w0, w1, motion: analysis.one_step_margin_change(
            as_pair(xa), as_pair(xd), strategy, params, k, Normals(w0, w1), as_pair(motion)),
        rows,
    )


def transposed(v):
    """The (2, N) vector v as the transpose of a C-ordered (N, 2) array, the
    layout of a block of normals drawn sample by sample."""
    return np.array(v.T).T


def spaced(v):
    """The (2, N) vector v as every other column of a (2, 2N) array."""
    wide = np.full((v.shape[0], 2 * v.shape[1]), np.nan)
    wide[:, ::2] = v
    return wide[:, ::2]


@given(st.lists(st.tuples(spiral_points, points, normals, normals, points),
                min_size=1, max_size=6), strategy_members, noise, half_widths)
def test_strided_views_give_the_bits_of_contiguous_copies(rows, strategy, params, k):
    """The kernel and the estimators pass views, such as ``normals.T``: each
    twin and each piece the kernel composes gives on strided (2, N) views
    the bits it gives on contiguous copies, or raises the same error."""
    xa, xd, motion = (as_lanes([r[i] for r in rows]) for i in (0, 1, 4))
    w = np.array(([r[2] for r in rows], [r[3] for r in rows]))
    assert not spaced(xa).flags.c_contiguous
    f = np.array([1.0 + 0.25 * (i % 3) for i in range(len(rows))])
    calls = [
        (lambda a, b: lanes.hypots(a, b, a - b), (xa, xd)),
        (lambda a, b: lanes.defense_margin(a, b, apart(a, b)), (xa, xd)),
        (lambda a, b: lanes.closest_safe_reachable_point(a, b, apart(a, b)), (xa, xd)),
        (lambda a, b, w: lanes.observe(a, params, w, apart(a, b)), (xa, xd, w)),
        (lambda a, b: lanes.reliability(params, k, apart(a, b)), (xa, xd)),
        (lambda a, b: lanes.defender_control(strategy, a, b, params, k), (xa, xd)),
        (lambda a, b: lanes.dm_heading(a, b, apart(a, b)), (xa, xd)),
        (lambda a, b: lanes.adm_heading(a, b, f / 2.0), (xa, xd)),
        (lambda a, b: unit(a, lanes._EPS_BLEND, b), (xa - xa, xd)),
        (lambda a: lanes.linear_attacker(a, lanes.hypot(*a)), (xa,)),
        (lambda a: lanes.spiral_heading(a, lanes.hypot(*a)), (xa,)),
        (lambda a, b, w: lanes.intelligent_away(a, b, params, w, apart(a, b)), (xa, xd, w)),
        (lambda a, b: lanes.intelligent_heading(a, b, f), (xa, xd)),
        (lambda a, b, w, m: lanes.one_step_margin_change(
            a, b, strategy, params, k, w, m, apart(a, b)), (xa, xd, w, motion)),
    ]
    for fn, args in calls:
        outcomes = []
        for layout in (np.ascontiguousarray, transposed, spaced):
            try:
                out = fn(*map(layout, args))
            except ValueError as exc:
                outcomes.append(type(exc))
            else:
                out = out if isinstance(out, list) else rows_of(out)
                outcomes.append([bits(c) for c in out])
        assert outcomes[0] == outcomes[1] == outcomes[2], fn


class TestRefusals:
    """A coincident lane makes the whole array call raise, as the scalar
    code does.  Neither the twins nor the scalar laws, which work on plain
    pairs, test an observation for finiteness: the bounds in the `lanes`
    docstring refuse, before the first draw, any noise that could overflow
    one, by `WorldConfig`'s bound
    (`test_cli.py::TestRunCommand::test_huge_noise_exits_two_before_the_episode`)
    and the estimator's (`test_huge_noise_refused_by_the_estimator` below and
    `test_margin_table_refuses_noise_that_could_overflow_before_drawing`)."""

    def test_coincident_lane(self):
        xa = np.array([[30.0, 20.0], [0.0, 5.0]])
        xd = np.array([[1.0, 20.0], [2.0, 5.0]])
        with pytest.raises(CoincidentAgentsError):
            geometry.defense_margin((20.0, 5.0), (20.0, 5.0), 0.0)
        with pytest.raises(CoincidentAgentsError):
            lanes.defense_margin(xa, xd, apart(xa, xd))
        with pytest.raises(CoincidentAgentsError):
            lanes.defender_control(DM, xa, xd, NOISELESS, 0.5)
        with pytest.raises(CoincidentAgentsError):
            lanes.one_step_margin_change(
                xa, xd, DefenderStrategy.PURE_PURSUIT, NOISELESS, 0.5, np.zeros((2, 2)),
                lanes.linear_attacker(xa, lanes.hypot(*xa)), apart(xa, xd))

    def test_origin_attacker_and_bad_half_width(self):
        """Up front: no twin, and no scalar law, sees an attacker within 1e-12
        of the origin, a spiral attacker at radius <= 1, or a half-width k
        that is not positive and finite.  A live attacker keeps
        ||xa|| >= r_safe, so the engine refuses r_safe < 1e-12 for the homing
        attackers and r_safe <= 1 for the spiral before the first step;
        `WorldConfig` and the estimator refuse k."""
        for behavior, r_safe, match in ((LINEAR, 1e-13, "r_safe >="),
                                        (INTELLIGENT, 1e-13, "r_safe >="),
                                        (SPIRAL, 1.0, "r_safe > 1")):
            with pytest.raises(InvalidInitializationError, match=match):
                run_episode(Vec2(30.0, 0.0), Vec2(0.0, 0.0), PP, behavior,
                            WorldConfig(r_safe=r_safe), 0)
        for k in (0.0, math.nan):
            with pytest.raises(ValueError, match="half-width"):
                WorldConfig(k=k)
            with pytest.raises(ValueError, match="half-width"):
                analysis.estimate_mean_margin_change(ADM, NOISELESS, k, 100, Rng(0))

    def test_huge_noise_refused_by_the_estimator(self):
        """With beta = 1e308 every observation overflows: the block estimator
        refuses the noise before its first draw, instead of averaging
        infinities."""
        params = NoiseParams(beta_d=1e308)
        for strategy in DefenderStrategy:
            with pytest.raises(ValueError, match=r"noise too large: beta=1e\+308"):
                analysis.estimate_mean_margin_change(strategy, params, 0.5, 100, Rng(0))
