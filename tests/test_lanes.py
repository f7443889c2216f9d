"""The array twins in `lanes` give, lane by lane, the bits of their scalar
namesakes (the dispatchers' laws, for the controls) on inputs within the
bounds their callers enforce, and refuse coincident agents as the scalar
code does.

One table, `TWINS`, pins every twin and every piece the matrix kernel
composes to its scalar law or formula, and one property,
`test_each_twin_gives_its_scalar_bits`, checks every entry on each example:
at true and held norms (a norm a caller holds is drawn as f times the true
one, f exactly 1 or from U[0.5, 2]) and on a contiguous, transposed or
spaced layout of the (2, N) vectors, since the kernel and the estimators pass
views such as ``normals.T``.  The hand-picked edge cases, `PICKED`, run
through every entry in every layout in `test_each_twin_at_the_picked_lanes`,
one case per entry, and `test_the_picked_lanes_reach_their_cases` checks that
each still reaches its case.

Bit equality is asserted on IEEE bit patterns, so 0.0 and -0.0 differ; all
NaNs count as one value.  `lanes.reliability` calls `math.erf` per lane, and
`lanes.hypot` calls `math.hypot` on every lane it does not certify.
`lanes.from_polar` and `lanes.spiral_heading` take numpy's ``cos`` and
``sin``, so their entries hold on a numpy build whose ``cos`` and ``sin`` give
libm's bits, which `TestNumpyGivesLibmBits` checks.
"""
from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, note
from hypothesis import strategies as st

from conftest import Normals, as_pair, noise, pairs, points
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


def bits(values) -> list[int]:
    a = np.asarray(values, dtype=float)
    return np.where(np.isnan(a), np.nan, a).view(np.int64).tolist()


def apart(a, b):
    """||a - b|| over (2, N) lanes: the norm a twin's callers hand it."""
    return lanes.hypot(*(a - b))


def rows_of(out):
    """A twin's result as a list of (N,) rows: a vector's x and y, several
    lanes' rows, or the one lane."""
    return list(out) if np.ndim(out) == 2 else [out]


def assert_twin(twin, scalar, rows, stack=None) -> None:
    """`twin` over the lanes of `rows` returns the bits `scalar` returns on
    each row, or raises an error some row raises, and then, over the rows
    that raise none, their bits.  `stack` turns rows into the twin's
    arguments, by default each column into one lane."""
    expected, raised, kept = [], set(), []
    for row in rows:
        try:
            out = scalar(*row)
        except ValueError as exc:
            raised.add(type(exc))
            continue
        kept.append(row)
        expected.append(out if isinstance(out, tuple) else (out,))
    if stack is None:
        def stack(rows):
            return [np.array(column, dtype=float) for column in zip(*rows)]
    if raised:
        with pytest.raises(ValueError) as info:
            twin(*stack(rows))
        assert type(info.value) in raised
        if not kept:
            return
    assert [bits(c) for c in rows_of(twin(*stack(kept)))] == [bits(c) for c in zip(*expected)]


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


# What a table entry reads.  For a scalar law, one lane: points as pairs, the
# normals as `Normals`, numbers as floats.  For a twin, every lane in its
# domain: vectors as (2, N) arrays, numbers as (N,) arrays, each in the
# example's layout.  ``dist`` is ||a - b||; ``sep`` and ``n`` are the norms a
# caller holds, f ||a - b|| and f ||a||; ``p`` is the reliability at ``dist``.
Lane = namedtuple("Lane", "a b c w dist sep n p params k")


def scalar_lane(row, params: NoiseParams, k: float) -> Lane:
    a, b, c, w0, w1, f = row
    dist = math.hypot(a[0] - b[0], a[1] - b[1])
    return Lane(a, b, c, Normals(w0, w1), dist, f * dist, f * math.hypot(*a),
                observation.reliability(params, k, dist), params, k)


def twin_lanes(scalars: list[Lane], layout) -> Lane:
    """The scalar lanes as one twin's `Lane`."""
    def column(name: str):
        return layout(np.array([getattr(v, name) for v in scalars], dtype=float).T)

    w = layout(np.array([v.w.w for v in scalars]).T)
    return Lane(*map(column, "abc"), w, *map(column, ("dist", "sep", "n", "p")),
                scalars[0].params, scalars[0].k)


def transposed(v):
    """v as the transpose of a C-ordered array, the layout of a block of
    normals drawn sample by sample."""
    return np.ascontiguousarray(v.T).T


def spaced(v):
    """v as every other column of an array twice as wide."""
    wide = np.full((*v.shape[:-1], 2 * v.shape[-1]), np.nan)
    wide[..., ::2] = v
    return wide[..., ::2]


def minus(u, v):
    return u[0] - v[0], u[1] - v[1]


def unit(v):
    """`lanes._unit` of the (2, N) vector v, handed ||v|| as its callers hand it."""
    return lanes._unit(v, lanes.hypot(*v))


def adm_heading(pp_dir, dm_dir, p):
    q = 1.0 - p
    return pp_dir[0] * p + dm_dir[0] * q, pp_dir[1] * p + dm_dir[1] * q


def spiral_heading(a, n):
    angle, inner = math.atan2(a[1], a[0]) - 1.0 / n, n - 1.0
    return inner * math.cos(angle) - a[0], inner * math.sin(angle) - a[1]


def intelligent_heading(away, to_origin, dist):
    if dist < strategies._EPS_DIRECTION:
        return 0.0, 0.0
    scale = 1.0 / (dist * dist)
    return away[0] * scale + to_origin[0], away[1] * scale + to_origin[1]


def blend_unit(v, n, fallback):
    """`lanes._unit`'s blend fallback, as the `adm` and intelligent laws write it."""
    return fallback if n < strategies._EPS_BLEND else (v[0] / n, v[1] / n)


# Where an entry holds: on every lane, or within the bounds its callers keep.
# An observation must stay finite (beta 1e308 at a nonzero separation does
# not); a homing attacker's radius is at least 1e-12, the spiral's above 1.
def every(v: Lane) -> bool:
    return True


def seen(v: Lane) -> bool:
    return math.isfinite(observation.noise_variance(max(v.dist, v.sep), v.params))


def homing(v: Lane) -> bool:  # the intelligent attacker observes, too
    return v.n >= strategies._EPS_DIRECTION and seen(v)


def spiral(v: Lane) -> bool:
    return v.n > 1.0


# name: (domain, twin, scalar).  An entry that takes ``dist`` or computes its
# own norms runs at the true norms; one that takes ``sep`` or ``n``, at the
# held ones.
TWINS = {
    # `noise_variance` is its own twin: over arrays it computes each lane's expression.
    "noise_variance": (seen, *[lambda v: observation.noise_variance(v.sep, v.params)] * 2),
    "observe": (seen, lambda v: lanes.observe(v.a, v.params, v.w, v.sep),
                lambda v: observation.observe(v.a, v.params, v.w, v.sep)),
    "reliability": (every, lambda v: lanes.reliability(v.params, v.k, v.sep),
                    lambda v: observation.reliability(v.params, v.k, v.sep)),
    "from_polar": (every, lambda v: lanes.from_polar(v.n, v.b[0]),  # any radius and angle
                   lambda v: as_pair(Vec2.from_polar(v.n, v.b[0]))),
    "defense_margin": (every, lambda v: lanes.defense_margin(v.a, v.b, v.sep),
                       lambda v: geometry.defense_margin(v.a, v.b, v.sep)),
    "closest_safe_reachable_point": (
        every, lambda v: lanes.closest_safe_reachable_point(v.a, v.b, v.sep),
        lambda v: geometry.closest_safe_reachable_point(v.a, v.b, v.sep)),
    "hypots": (every, lambda v: lanes.hypots(v.a, v.b, v.a - v.b),
               lambda v: (math.hypot(*v.a), math.hypot(*v.b), v.dist)),
    **{f"{s.value} control{given}": (
        every, lambda v, s=s: lanes.defender_control(s, v.a, v.b, v.params, v.k),
        lambda v, s=s, given=given: strategies.defender_control(
            s, v.a, v.b, v.params, v.k, v.dist, v.p if given else None))
       for s in DefenderStrategy for given in ("", ", p given")},
    "pp law": (every, lambda v: lanes._unit(v.a - v.b, v.sep),
               lambda v: strategies.defender_control(PP, v.a, v.b, v.params, v.k, v.sep)),
    "dm law": (every, lambda v: unit(lanes.dm_heading(v.a, v.b, v.sep)),
               lambda v: strategies.defender_control(DM, v.a, v.b, v.params, v.k, v.sep)),
    "linear attacker": (homing, lambda v: lanes.linear_attacker(v.a, v.n),
                        lambda v: strategies.attacker_control(
                            LINEAR, v.a, v.b, v.params, v.w, v.sep, v.n)),
    "spiral attacker": (spiral, lambda v: lane_spiral_attacker(v.a, v.n),
                        lambda v: strategies.attacker_control(
                            SPIRAL, v.a, v.b, v.params, v.w, v.sep, v.n)),
    "intelligent attacker": (
        homing, lambda v: lane_intelligent_attacker(v.a, v.b, v.params, v.w, v.sep, v.n),
        lambda v: strategies.attacker_control(INTELLIGENT, v.a, v.b, v.params, v.w, v.sep, v.n)),
    # The pieces the matrix kernel composes.
    "_unit": (every, lambda v: lanes._unit(v.a, v.n), lambda v: strategies._unit(*v.a, v.n)),
    "_unit, blend fallback": (every, lambda v: lanes._unit(v.a, v.n, lanes._EPS_BLEND, v.b),
                              lambda v: blend_unit(v.a, v.n, v.b)),
    "dm_heading": (every, lambda v: lanes.dm_heading(v.a, v.b, v.sep),
                   lambda v: minus(geometry.closest_safe_reachable_point(v.a, v.b, v.sep), v.b)),
    "adm_heading": (every, lambda v: lanes.adm_heading(v.a, v.b, v.p),
                    lambda v: adm_heading(v.a, v.b, v.p)),
    "spiral_heading": (spiral, lambda v: lanes.spiral_heading(v.a, v.n),
                       lambda v: spiral_heading(v.a, v.n)),
    "intelligent_away": (seen, lambda v: lanes.intelligent_away(v.a, v.b, v.params, v.w, v.sep),
                         lambda v: minus(v.a, observation.observe(v.b, v.params, v.w, v.sep))),
    "intelligent_heading": (every, lambda v: lanes.intelligent_heading(v.a, v.b, v.n),
                            lambda v: intelligent_heading(v.a, v.b, v.n)),
    **{f"one_step_margin_change, {s.value}": (
        seen, lambda v, s=s: lanes.one_step_margin_change(
            v.a, v.b, s, v.params, v.k, v.w, v.c, v.dist),
        lambda v, s=s: analysis.one_step_margin_change(v.a, v.b, s, v.params, v.k, v.w, v.c))
       for s in DefenderStrategy},
}


# Points near-uniform over the integer grid of [-60, 60]², where Hypothesis
# draws integers near-uniformly (it draws floats, and a finer grid, nearer
# zero): `np.arctan2` misses `math.atan2` on 7.4 % of 2,000 drawn points,
# against 0.47 % of `points` and 7.7 % of points uniform over the square.
grid_points = st.tuples(*[st.integers(-60, 60).map(float)] * 2)


@st.composite
def lane_rows(draw):
    """(a, b, c, w0, w1, f): b free, a hair from a or equal to it, or (half
    the rows) a from `grid_points` and b free; c the attacker's motion; two
    standard normals; the held-norm factor."""
    a, b = map(as_pair, draw(pairs()))
    if draw(st.booleans()):
        a = draw(grid_points)
    return (a, b, as_pair(draw(points)), draw(normals), draw(normals),
            draw(st.just(1.0) | st.floats(0.5, 2.0)))


def lane(a, b, w=(0.0, 0.0), f=1.0):
    """A hand-picked row with no attacker motion."""
    return a, b, (0.0, 0.0), *w, f


half_widths = st.floats(1e-3, 5.0)
normals = st.floats(-5.0, 5.0)
LAYOUTS = [np.ascontiguousarray, transposed, spaced]
layouts = st.sampled_from(LAYOUTS)

HUGE_NOISE = NoiseParams(beta_d=1e308)  # beta d^2 overflows from d = 1.35
RHO_NOT_POSITIVE = [lane((1.0, 2.0), (3.0, -4.0)), lane((5.0, 0.0), (0.0, 5.0))]
VARIANCE = [lane((3.0, 4.0), (0.0, 0.0)), lane((1.0, 1.0), (1.0, 1.0))]
# The 1e-12 direction fallbacks (on the first lane, of pursuit and margin
# keeping at once, so `adm`'s blend is zero too) and the 1e-9 blend fallback.
DIRECTION_BELOW_1E_12 = [lane((1e-13, 0.0), (0.0, 0.0)), lane((7.0, 3.0), (7.0, 3.0 + 5e-13))]
BLEND_BELOW_1E_9 = [lane((10.0, 0.0), (10.0, 5e-13))]
# The intelligent attacker's observed defender within 1e-12 of it, its
# blend exactly zero, the defender on top of it; then attackers outside
# every homing domain (at the origin) and the spiral's (at radius 1).
INTELLIGENT_FALLBACKS = [lane((30.0, 0.0), (30.0, 1e-13)), lane((30.0, 0.0), (29.0, 0.0)),
                         lane((10.0, 0.0), (9.0, 0.0)), lane((10.0, 0.0), (10.0, 0.0)),
                         lane((0.0, 0.0), (3.0, 4.0)), lane((0.6, -0.8), (3.0, 4.0))]
RADIUS_EDGES = [lane((1e-12, 0.0), (0.0, 1.0)), lane((-0.0, -1e-12), (0.0, 1.0)),
                lane((5e-324, 1e-12), (0.0, 1.0)), lane((1.0 + 2.0**-52, 0.0), (0.0, 1.0)),
                lane((-30.0, -0.0), (0.0, 1.0)), lane((0.0, -45.5), (0.0, 1.0)),
                lane((2.0 + 2.0**-51, 0.0), (0.0, 1.0), (0.5, -0.5), 0.5)]
ATAN2_MISS = lane((-24.034573135513824, -31.84831305828657), (0.0, 0.0))  # np.arctan2 errs here


# The hand-picked lanes: the scalar cases a random draw rarely or never
# reaches, each with the noise it needs.
PICKED = {
    "rho not positive": (RHO_NOT_POSITIVE, NOISELESS),
    "infinite variance": (VARIANCE[:1], HUGE_NOISE),
    "zero variance": (VARIANCE, NOISELESS),
    "direction and blend fallbacks": (DIRECTION_BELOW_1E_12 + BLEND_BELOW_1E_9, NOISELESS),
    "intelligent fallbacks": (INTELLIGENT_FALLBACKS, NOISELESS),
    "radius edges": (RADIUS_EDGES + [ATAN2_MISS], NOISELESS),
}


def check_entry(name: str, rows, params: NoiseParams, k: float, layout) -> None:
    """The entry `name` of `TWINS`, over the lanes of `rows` in its domain,
    gives the bits its scalar gives lane by lane, or raises an error one lane
    raises."""
    domain, twin, scalar = TWINS[name]
    inside = [v for v in (scalar_lane(row, params, k) for row in rows) if domain(v)]
    if inside:
        assert_twin(twin, scalar, [(v,) for v in inside],
                    lambda rows: [twin_lanes([v for v, in rows], layout)])


@given(st.lists(lane_rows(), min_size=1, max_size=8), noise, half_widths, layouts)
def test_each_twin_gives_its_scalar_bits(rows, params, k, layout):
    """Every entry of `TWINS` holds on the example's lanes."""
    for name in TWINS:
        note(name)
        check_entry(name, rows, params, k, layout)


@pytest.mark.parametrize("name", TWINS)
def test_each_twin_at_the_picked_lanes(name):
    """The entry `name` of `TWINS` holds on every set of `PICKED`, in every
    layout."""
    for rows, params in PICKED.values():
        for layout in LAYOUTS:
            check_entry(name, rows, params, 0.5, layout)


def test_the_picked_lanes_reach_their_cases():
    """Each set of `PICKED` reaches the case it is picked for in the scalar
    law, so `test_each_twin_at_the_picked_lanes` pins the twin's value there
    bit for bit."""
    def at(row, params=NOISELESS):
        return scalar_lane(row, params, 0.5)

    def law(strategy, row):
        v = at(row)
        return strategies.defender_control(strategy, v.a, v.b, NOISELESS, 0.5, v.dist)

    for v in map(at, RHO_NOT_POSITIVE):
        assert geometry.defense_margin(v.a, v.b, v.dist) <= 0.0
        assert geometry.closest_safe_reachable_point(v.a, v.b, v.dist) == (0.0, 0.0)
    assert at(VARIANCE[0], HUGE_NOISE).p == 0.0  # infinite variance: erf(0)
    assert [at(row).p for row in VARIANCE] == [1.0, 1.0]  # zero variance
    assert law(PP, DIRECTION_BELOW_1E_12[0]) == (0.0, 0.0)
    blend = BLEND_BELOW_1E_9[0]
    assert law(ADM, blend) == law(DM, blend) and law(DM, blend)[0] == -1.0
    for v in map(at, INTELLIGENT_FALLBACKS[:4]):
        control = strategies.attacker_control(INTELLIGENT, v.a, v.b, NOISELESS, v.w, v.sep, v.n)
        assert bits(control) == bits((-1.0, -0.0))
    assert [at(row).n for row in RADIUS_EDGES[::3]] == [1e-12, 1.0 + 2.0**-52, 1.0 + 2.0**-52]
    a = ATAN2_MISS[0]
    assert np.arctan2(a[1], a[0]) != math.atan2(a[1], a[0])


class TestRefusals:
    """A coincident lane makes the whole array call raise, as the scalar
    code does.  Neither the twins nor the scalar laws, which work on plain
    pairs, test an observation for finiteness: the bounds in the `lanes`
    docstring refuse, before the first draw, any noise that could overflow
    one, by `WorldConfig`'s bound
    (`test_cli.py::test_each_refusal_is_made_before_any_work[run-huge-noise]`)
    and the estimator's (`test_huge_noise_refused_by_the_estimator` below and
    `test_cli.py::test_each_refusal_is_made_before_any_work[margin-table-huge-noise]`)."""

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
