"""Defender guidance laws and attacker behaviors."""
from __future__ import annotations

import inspect
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import Normals, angles, as_pair
from guardian_sim import engine, geometry, lanes, observation, strategies
from guardian_sim.analysis import closest_point_grid_search
from guardian_sim.geometry import Vec2, closest_safe_reachable_point, defense_margin
from guardian_sim.observation import NoiseParams, noise_variance, observe, reliability
from guardian_sim.rng import Rng
from guardian_sim.strategies import (
    MATRIX_ATTACKERS,
    MATRIX_DEFENDERS,
    AttackerBehavior,
    DefenderStrategy,
    attacker_control,
    defender_control,
)
from oracles import gaussian_square_mass_quadrature, rotated

NOISELESS = NoiseParams(beta_b=0.0, beta_d=0.0, beta_v=0.0, nu=1.0)

# Each law through its dispatcher, handed the norms a caller holds, and the
# points as pairs; the heading comes back as a Vec2.  Pursuit, margin keeping
# and the linear and spiral attackers read none of the arguments passed as None.


def pp_control(y: Vec2, xd: Vec2) -> Vec2:
    return Vec2(*defender_control(
        DefenderStrategy.PURE_PURSUIT, as_pair(y), as_pair(xd), None, None, y.distance_to(xd)))


def dm_control(y: Vec2, xd: Vec2) -> Vec2:
    return Vec2(*defender_control(
        DefenderStrategy.DEFENSE_MARGIN, as_pair(y), as_pair(xd), None, None, y.distance_to(xd)))


def adm_control(y: Vec2, xd: Vec2, params: NoiseParams, k: float) -> Vec2:
    return Vec2(*defender_control(DefenderStrategy.ADJUSTED_DEFENSE_MARGIN, as_pair(y),
                                  as_pair(xd), params, k, y.distance_to(xd)))


def linear_attacker(xa: Vec2) -> Vec2:
    return Vec2(*attacker_control(
        AttackerBehavior.LINEAR, as_pair(xa), None, None, None, None, xa.norm()))


def spiral_attacker(xa: Vec2) -> Vec2:
    return Vec2(*attacker_control(
        AttackerBehavior.SPIRAL, as_pair(xa), None, None, None, None, xa.norm()))


def intelligent_attacker(xa: Vec2, xd: Vec2, params: NoiseParams, rng) -> Vec2:
    return Vec2(*attacker_control(AttackerBehavior.INTELLIGENT, as_pair(xa), as_pair(xd), params,
                                  rng, xa.distance_to(xd), xa.norm()))


def as_vec2(out):
    """A law's result, or a one-lane twin's, as the tests compare it: a vector
    as a Vec2, a number as a float."""
    if isinstance(out, np.ndarray):
        out = tuple(out[:, 0].tolist()) if out.ndim == 2 else float(out[0])
    return Vec2(*out) if isinstance(out, tuple) else out


def refuse_world(behavior: AttackerBehavior, r_safe: float) -> None:
    """Start an episode of `behavior` from a valid start in a world with
    this r_safe; a live attacker keeps ||xa|| >= r_safe, so the engine
    refuses an r_safe outside the law's domain before the first step."""
    engine.run_episode(Vec2(30.0, 0.0), Vec2(0.0, 0.0), DefenderStrategy.PURE_PURSUIT, behavior,
                       engine.WorldConfig(r_safe=r_safe), 0)


def angle_between(a: Vec2, b: Vec2) -> float:
    return abs(math.atan2(a.x * b.y - a.y * b.x, a.dot(b)))


class TestEnums:
    def test_matrix_excludes_static_stub(self):
        assert AttackerBehavior.STATIC not in MATRIX_ATTACKERS
        assert len(MATRIX_ATTACKERS) == 3
        assert len(MATRIX_DEFENDERS) == 3


class TestPurePursuit:
    def test_along_positive_x(self):
        assert pp_control(Vec2(5, 0), Vec2(1, 0)) == Vec2(1, 0)

    def test_toward_origin(self):
        assert pp_control(Vec2(0, 0), Vec2(0, 3)) == Vec2(0, -1)

    def test_degenerate_holds_position(self):
        assert pp_control(Vec2(2, 2), Vec2(2, 2)) == Vec2(0, 0)


class TestDefenseMarginControl:
    def test_axis_case(self):
        assert dm_control(Vec2(4, 0), Vec2(0, 0)) == Vec2(1, 0)

    def test_vertical_case(self):
        u = dm_control(Vec2(0, 6), Vec2(0, 2))
        assert (u.x, u.y) == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_direction_matches_grid_oracle(self):
        y, xd = Vec2(5, 3), Vec2(1, 1)
        expected = closest_point_grid_search(y, xd, resolution=1e-4) - xd
        assert angle_between(dm_control(y, xd), expected) <= 1e-3


class TestAdjustedDefenseMarginControl:
    def test_exact_observation_reduces_to_pursuit(self):
        for y, xd in [(Vec2(10, 0), Vec2(0, 0)), (Vec2(3, 7), Vec2(-2, 1)), (Vec2(-4, 2), Vec2(1, 1))]:
            assert adm_control(y, xd, NOISELESS, k=0.5) == pp_control(y, xd)

    def test_tiny_k_reduces_to_margin_keeping(self):
        y, xd = Vec2(12, 5), Vec2(2, -1)
        u = adm_control(y, xd, NoiseParams(), k=1e-9)
        v = dm_control(y, xd)
        assert u.distance_to(v) <= 1e-6

    def test_blend_recomputed_by_hand(self):
        y, xd, k = Vec2(10, 0), Vec2(2, 3), 0.5
        params = NoiseParams()
        p = reliability(params, k, y.distance_to(xd))
        sigma = math.sqrt(0.05) * y.distance_to(xd)
        assert p == pytest.approx(gaussian_square_mass_quadrature(k, sigma), abs=1e-10)
        blend = pp_control(y, xd) * p + dm_control(y, xd) * (1.0 - p)
        expected = blend / blend.norm()
        assert adm_control(y, xd, params, k).distance_to(expected) <= 1e-9

    @given(
        st.floats(min_value=-40.0, max_value=40.0),
        st.floats(min_value=-40.0, max_value=40.0),
        st.floats(min_value=-15.0, max_value=15.0),
        st.floats(min_value=-15.0, max_value=15.0),
    )
    def test_component_directions_never_oppose(self, yx, yy, dx, dy):
        """pp and dm always have non-negative mutual alignment (the margin
        target sits on the observation side of the defender, or at the origin
        which Cauchy-Schwarz keeps within a right angle of pp), so the
        degenerate-blend fallback is a pure defensive guard."""
        y, xd = Vec2(yx, yy), Vec2(dx, dy)
        assume(y.distance_to(xd) > 1e-6)
        dm_dir = dm_control(y, xd)
        assume(dm_dir.norm() > 0.0)  # skip the hold-position degenerate case
        assert pp_control(y, xd).dot(dm_dir) >= -1e-12


class TestLinearAttacker:
    def test_example(self):
        assert linear_attacker(Vec2(5, 0)) == Vec2(-1, 0)

    def test_raises_at_origin(self):
        """The law divides by the radius it is handed; an r_safe that would
        let a live attacker come within 1e-12 of the origin is refused before
        the first step."""
        with pytest.raises(engine.InvalidInitializationError, match="needs r_safe >="):
            refuse_world(AttackerBehavior.LINEAR, 1e-13)

    @given(st.floats(min_value=0.5, max_value=60.0), angles)
    def test_unit_norm_toward_origin(self, r, phi):
        xa = Vec2.from_polar(r, phi)
        u = linear_attacker(xa)
        assert u.norm() == pytest.approx(1.0, abs=1e-12)
        assert (xa + u * r).norm() <= 1e-9 * max(1.0, r)  # aims exactly at the origin


class TestSpiralAttacker:
    def test_unit_norm(self):
        assert spiral_attacker(Vec2(47, 0)).norm() == pytest.approx(1.0, abs=1e-12)

    def test_raises_at_small_radius(self):
        """The law aims one unit inward, so an r_safe of at most 1, which
        would let a live attacker reach radius 1, is refused before the
        first step."""
        for r_safe in (0.5, 1.0):
            with pytest.raises(engine.InvalidInitializationError, match="needs r_safe > 1"):
                refuse_world(AttackerBehavior.SPIRAL, r_safe)

    def test_rollout_spirals_clockwise_inward(self):
        xa = Vec2.from_polar(47.0, 1.2)
        radii = [xa.norm()]
        unwrapped = [math.atan2(xa.y, xa.x)]
        for _ in range(60):
            xa = xa + spiral_attacker(xa)
            radii.append(xa.norm())
            a = math.atan2(xa.y, xa.x)
            # Standard unwrap: shift by whole turns only across the +/- pi seam.
            while a - unwrapped[-1] > math.pi:
                a -= 2.0 * math.pi
            while a - unwrapped[-1] < -math.pi:
                a += 2.0 * math.pi
            unwrapped.append(a)
        decrements = [a - b for a, b in zip(radii, radii[1:])]
        assert all(d > 0.0 for d in decrements), "radius must strictly decrease"
        assert all(0.6 < d < 0.8 for d in decrements), f"per-step radial decrease drifted: {decrements[:5]}..."
        assert all(a > b for a, b in zip(unwrapped, unwrapped[1:])), "rotation must be clockwise"

    @given(st.floats(min_value=1.5, max_value=60.0), angles)
    def test_rotation_equivariance(self, r, phi):
        xa = Vec2.from_polar(r, phi)
        theta = 0.7
        u = spiral_attacker(xa)
        u_rot = spiral_attacker(rotated(xa, theta))
        assert u_rot.distance_to(rotated(u, theta)) <= 1e-9


class TestIntelligentAttacker:
    def test_frontal_defender_far_heads_to_origin(self):
        """Beyond unit separation the origin-seeking term dominates."""
        u = intelligent_attacker(Vec2(10, 0), Vec2(5, 0), NOISELESS, Rng(0))
        assert u.distance_to(Vec2(-1, 0)) <= 1e-12

    def test_frontal_defender_close_flees(self):
        """Inside unit separation the evasion term dominates."""
        u = intelligent_attacker(Vec2(10, 0), Vec2(9.5, 0), NOISELESS, Rng(0))
        assert u.distance_to(Vec2(1, 0)) <= 1e-12

    def test_exact_cancellation_falls_back_to_origin_course(self):
        u = intelligent_attacker(Vec2(10, 0), Vec2(9, 0), NOISELESS, Rng(0))
        assert u == Vec2(-1, 0)

    def test_lateral_geometry_by_hand(self):
        xa, xd = Vec2(10, 0), Vec2(10, 2)
        away = xa - xd  # (0, -2)
        dist = away.norm()
        blend = away * (1.0 / (dist * dist)) + Vec2(-1, 0)
        expected = blend / blend.norm()
        u = intelligent_attacker(xa, xd, NOISELESS, Rng(0))
        assert u.distance_to(expected) <= 1e-12

    def test_unit_norm_with_noise(self):
        u = intelligent_attacker(Vec2(30, 10), Vec2(5, 5), NoiseParams(), Rng(3))
        assert u.norm() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_per_seed(self):
        args = (Vec2(30, 10), Vec2(5, 5), NoiseParams())
        assert intelligent_attacker(*args, Rng(11)) == intelligent_attacker(*args, Rng(11))
        assert intelligent_attacker(*args, Rng(11)) != intelligent_attacker(*args, Rng(12))

    @given(st.floats(min_value=2.0, max_value=50.0), angles, angles)
    def test_rotation_equivariance_noiseless(self, r, phi_a, phi_d):
        xa = Vec2.from_polar(r, phi_a)
        xd = Vec2.from_polar(r * 0.5, phi_d)
        assume(xa.distance_to(xd) > 1e-6)
        # A near-cancelling blend is ill-conditioned: rounding the rotated
        # inputs (about 1e-16) turns its direction by about 1e-16 / |blend|.
        away = xa - xd
        assume((away / (away.x * away.x + away.y * away.y) - xa / xa.norm()).norm() > 1e-6)
        theta = -1.1
        u = intelligent_attacker(xa, xd, NOISELESS, Rng(0))
        u_rot = intelligent_attacker(rotated(xa, theta), rotated(xd, theta), NOISELESS, Rng(0))
        assert u_rot.distance_to(rotated(u, theta)) <= 1e-9


class TestDispatchAndNorms:
    @given(
        st.sampled_from(list(DefenderStrategy)),
        st.floats(min_value=-40.0, max_value=40.0),
        st.floats(min_value=-40.0, max_value=40.0),
        st.floats(min_value=-15.0, max_value=15.0),
        st.floats(min_value=-15.0, max_value=15.0),
    )
    def test_defender_controls_admissible(self, strategy, yx, yy, dx, dy):
        y, xd = Vec2(yx, yy), Vec2(dx, dy)
        assume(y.distance_to(xd) > 1e-6)
        u = Vec2(*defender_control(
            strategy, as_pair(y), as_pair(xd), NoiseParams(), 0.5, y.distance_to(xd)))
        assert u.norm() <= 1.0 + 1e-12
        assert u.norm() == pytest.approx(1.0, abs=1e-9)  # non-degenerate inputs: full speed

    @given(
        st.sampled_from([AttackerBehavior.LINEAR, AttackerBehavior.SPIRAL, AttackerBehavior.INTELLIGENT]),
        st.floats(min_value=3.0, max_value=50.0),
        angles,
    )
    def test_attacker_controls_admissible(self, behavior, r, phi):
        xa = Vec2.from_polar(r, phi)
        xd = Vec2(0.5, -0.5)
        u = Vec2(*attacker_control(
            behavior, as_pair(xa), as_pair(xd), NoiseParams(), Rng(1), xa.distance_to(xd),
            xa.norm()))
        assert u.norm() <= 1.0 + 1e-12

    def test_static_stub_is_motionless(self):
        xa = Vec2(9, 9)
        u = Vec2(*attacker_control(AttackerBehavior.STATIC, as_pair(xa), (0.0, 0.0),
                                   NoiseParams(), Rng(0), xa.norm(), xa.norm()))
        assert u == Vec2(0, 0)


# The norms a scalar law or a `lanes` twin is handed by its caller.
NORM_PARAMETERS = {"distance", "separation", "radius", "n", "dist"}


def _lane(v: Vec2) -> np.ndarray:
    return np.array([[v.x], [v.y]])


class TestHeldNorms:
    def test_scalar_laws_take_their_twins_signatures(self):
        """`observe` and `reliability` take their `lanes` twins' parameters
        (the noise source is ``rng`` here, ``normals`` there), and no
        function in `geometry`, `lanes`, `observation`, `strategies` or
        `engine`, private helpers included, lets a norm default: each caller
        hands in the norm it holds."""
        def names(fn) -> list[str]:
            return list(inspect.signature(fn).parameters)

        assert names(observe) == [
            "rng" if name == "normals" else name for name in names(lanes.observe)]
        assert names(reliability) == names(lanes.reliability)
        checked = set()
        for module in (geometry, lanes, observation, strategies, engine):
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ != module.__name__:
                    continue
                name = f"{module.__name__.rpartition('.')[2]}.{name}"
                for param in inspect.signature(fn).parameters.values():
                    if param.name in NORM_PARAMETERS:
                        checked.add(name)
                        assert param.default is inspect.Parameter.empty, (name, param.name)
        assert {"observation.observe", "observation.reliability", "strategies.defender_control",
                "strategies.attacker_control", "strategies._unit", "engine.episode_outcome",
                "engine.step", "geometry._margin", "geometry.defense_margin", "lanes._margin",
                "lanes.defense_margin", "lanes._unit", "lanes.linear_attacker",
                "lanes.intelligent_heading", "lanes.one_step_margin_change"} <= checked

    def test_each_function_uses_the_norm_it_is_given(self):
        """Handed a deliberately wrong norm, each function returns its
        formula at that norm, not at the true one: a held norm is used,
        never recomputed."""
        xa, xd, y, w, k = Vec2(30.0, 4.0), Vec2(2.0, -3.0), Vec2(29.0, 6.5), (0.3, -1.1), 0.5
        params = NoiseParams(beta_b=0.01, beta_d=0.02, beta_v=0.1, nu=0.5)
        true_s, true_d, true_n = xa.distance_to(xd), y.distance_to(xd), xa.norm()
        s, d, n = 1.5 * true_s, 1.5 * true_d, 1.5 * true_n

        def unit(vx: float, vy: float) -> Vec2:
            h = math.hypot(vx, vy)
            return Vec2(vx / h, vy / h)

        def seen(a: Vec2, sep: float) -> Vec2:
            sigma = math.sqrt(noise_variance(sep, params))
            return Vec2(a.x + sigma * w[0], a.y + sigma * w[1])

        one_axis = math.erf(k / (math.sqrt(noise_variance(d, params)) * math.sqrt(2.0)))
        p = one_axis * one_axis
        rho = (y.x * y.x + y.y * y.y - (xd.x * xd.x + xd.y * xd.y)) / (2.0 * d)
        target = Vec2((y.x - xd.x) / d * rho, (y.y - xd.y) / d * rho)
        pp, dm = Vec2((y.x - xd.x) / d, (y.y - xd.y) / d), unit(target.x - xd.x, target.y - xd.y)
        adm = unit(pp.x * p + dm.x * (1.0 - p), pp.y * p + dm.y * (1.0 - p))
        to_origin, angle = Vec2(-xa.x / n, -xa.y / n), math.atan2(xa.y, xa.x) - 1.0 / n
        spiral = unit((n - 1.0) * math.cos(angle) - xa.x, (n - 1.0) * math.sin(angle) - xa.y)
        away = xa - seen(xd, s)
        scale = 1.0 / (away.norm() * away.norm())
        intelligent = unit(away.x * scale + to_origin.x, away.y * scale + to_origin.y)
        margin = (xa.x * xa.x + xa.y * xa.y - (xd.x * xd.x + xd.y * xd.y)) / (2.0 * s)
        pa, pd, py = as_pair(xa), as_pair(xd), as_pair(y)
        cases = [
            (partial(defense_margin, pa, pd), s, true_s, margin),
            (partial(closest_safe_reachable_point, py, pd), d, true_d, target),
            (partial(observe, pa, params, Normals(*w)), s, true_s, seen(xa, s)),
            (partial(reliability, params, k), d, true_d, p),
        ]
        cases += [(partial(defender_control, strategy, py, pd, params, k), d, true_d, want)
                  for strategy, want in zip(DefenderStrategy, (pp, dm, adm))]
        cases += [(partial(attacker_control, b, pa, pd, params, Normals(*w), s), n, true_n, want)
                  for b, want in zip(MATRIX_ATTACKERS, (to_origin, spiral, intelligent))]
        # The margin helpers and the unit maps, the twins on one lane.
        a, ld, lane_s, lane_n, true_lane_s, true_lane_n = (
            _lane(xa), _lane(xd), *(np.array([v]) for v in (s, n, true_s, true_n)))
        direction = Vec2(xa.x / n, xa.y / n)
        cases += [
            (partial(geometry._margin, pa, pd, "defense margin"), s, true_s, margin),
            (partial(lanes._margin, a, ld, "defense margin"), lane_s, true_lane_s, margin),
            (partial(lanes.defense_margin, a, ld), lane_s, true_lane_s, margin),
            (partial(lanes.linear_attacker, a), lane_n, true_lane_n, to_origin),
            (partial(lanes._unit, a), lane_n, true_lane_n, direction),
            (partial(strategies._unit, *pa), n, true_n, direction),
        ]
        assert rho > 0.0
        for fn, held, true, want in cases:
            assert as_vec2(fn(held)) == want, fn
            assert as_vec2(fn(true)) != want, fn
        intelligent_at_true_s = Vec2(*attacker_control(
            AttackerBehavior.INTELLIGENT, pa, pd, params, Normals(*w), true_s, n))
        assert intelligent_at_true_s != intelligent

    def test_the_fallback_cases_reach_their_fallbacks(self):
        zero = Vec2(0.0, 0.0)
        assert adm_control(Vec2(1e-13, 0.0), zero, NOISELESS, 0.5) == zero
        for xd in (Vec2(9.0, 0.0), Vec2(10.0, 0.0)):
            u = intelligent_attacker(Vec2(10.0, 0.0), xd, NOISELESS, Normals(0.0, 0.0))
            assert u == Vec2(-1.0, 0.0)
