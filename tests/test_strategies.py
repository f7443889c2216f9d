"""Defender guidance laws and attacker behaviors."""
from __future__ import annotations

import math
from functools import partial

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import Normals, angles, noise, pairs, points
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

# Each law through its dispatcher.  Pursuit, margin keeping and the linear and
# spiral attackers read none of the arguments bound to None.
pp_control = partial(defender_control, DefenderStrategy.PURE_PURSUIT, params=None, k=None)
dm_control = partial(defender_control, DefenderStrategy.DEFENSE_MARGIN, params=None, k=None)
adm_control = partial(defender_control, DefenderStrategy.ADJUSTED_DEFENSE_MARGIN)
linear_attacker = partial(attacker_control, AttackerBehavior.LINEAR, xd=None, params=None, rng=None)
spiral_attacker = partial(attacker_control, AttackerBehavior.SPIRAL, xd=None, params=None, rng=None)
intelligent_attacker = partial(attacker_control, AttackerBehavior.INTELLIGENT)


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
        p = reliability(y, xd, params, k)
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
        with pytest.raises(ValueError):
            linear_attacker(Vec2(0, 0))

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
        with pytest.raises(ValueError):
            spiral_attacker(Vec2(0.5, 0))

    def test_rollout_spirals_clockwise_inward(self):
        xa = Vec2.from_polar(47.0, 1.2)
        radii = [xa.norm()]
        unwrapped = [xa.angle()]
        for _ in range(60):
            xa = xa + spiral_attacker(xa)
            radii.append(xa.norm())
            a = xa.angle()
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
        assume((away / away.norm_sq() - xa / xa.norm()).norm() > 1e-6)
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
        u = defender_control(strategy, y, xd, NoiseParams(), 0.5)
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
        u = attacker_control(behavior, xa, xd, NoiseParams(), Rng(1))
        assert u.norm() <= 1.0 + 1e-12

    def test_static_stub_is_motionless(self):
        u = attacker_control(AttackerBehavior.STATIC, Vec2(9, 9), Vec2(0, 0), NoiseParams(), Rng(0))
        assert u == Vec2(0, 0)


def _result(fn, *args):
    """The bits `fn` returns, or the error it raises."""
    try:
        out = fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return tuple(v.hex() for v in ((out.x, out.y) if isinstance(out, Vec2) else (out,)))


def assert_held_norms_change_nothing(xa, xd, y, params, k, p, w) -> None:
    """Every scalar function given the norm its caller holds (the engine's
    orientation: ||xa - xd||, ||y - xd|| and ||xa||) returns the bits, or
    raises the error, that it gives when it computes the norm itself."""
    separation, distance, n = xa.distance_to(xd), y.distance_to(xd), xa.norm()
    calls = [
        (partial(observe, xa, xd, params, Normals(*w)), separation),
        (partial(reliability, y, xd, params, k), distance),
        (partial(defense_margin, xa, xd), separation),
        (partial(closest_safe_reachable_point, y, xd), distance),
    ]
    for given_p in (None, p):
        calls += [(partial(defender_control, s, y, xd, params, k, given_p), distance)
                  for s in DefenderStrategy]
    for fn, held in calls:
        assert _result(fn, held) == _result(fn), fn
    for held in ((separation, None), (None, n), (separation, n)):
        for b in AttackerBehavior:
            assert _result(attacker_control, b, xa, xd, params, Normals(*w), *held) == _result(
                attacker_control, b, xa, xd, params, Normals(*w)), b


class TestHeldNorms:
    @given(pairs(), st.sampled_from(["same", "near", "free"]), points, noise,
           st.floats(1e-3, 5.0), st.floats(0.0, 1.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_same_bits_and_errors(self, pair, y_kind, free_y, params, k, p, w0, w1):
        """y == xd (pursuit's zero fallback, margin keeping's refusal), y a
        hair from xd (the 1e-12 direction fallback) or y anywhere."""
        xa, xd = pair
        y = {"same": xd, "near": Vec2(xd.x + 3e-13, xd.y - 2e-13), "free": free_y}[y_kind]
        assert_held_norms_change_nothing(xa, xd, y, params, k, p, (w0, w1))

    @pytest.mark.parametrize(
        "xa, xd, y",
        [
            # `adm`: both parts fall back to zero, so the blend does too.
            (Vec2(30.0, 0.0), Vec2(0.0, 0.0), Vec2(1e-13, 0.0)),
            # The intelligent attacker sees the defender exactly where it is
            # one unit inward, so its blend cancels ...
            (Vec2(10.0, 0.0), Vec2(9.0, 0.0), Vec2(9.0, 0.0)),
            # ... or on top of itself, so it has nothing to flee.
            (Vec2(10.0, 0.0), Vec2(10.0, 0.0), Vec2(10.0, 0.0)),
            # Refusals: the linear attacker at the origin, the spiral at r <= 1.
            (Vec2(0.0, 0.0), Vec2(3.0, 4.0), Vec2(0.0, 0.0)),
            (Vec2(0.6, -0.8), Vec2(3.0, 4.0), Vec2(1.0, 1.0)),
        ],
        ids=["adm-blend", "intelligent-blend", "intelligent-coincident", "origin", "unit-radius"],
    )
    def test_fallbacks(self, xa, xd, y):
        assert_held_norms_change_nothing(xa, xd, y, NOISELESS, 0.5, 0.5, (0.0, 0.0))

    def test_each_function_uses_the_norm_it_is_given(self):
        """Handed a deliberately wrong norm, each function returns its
        formula at that norm, not at the norm it would compute: a held norm
        is used, never recomputed (the identity tests above cannot tell)."""
        xa, xd, y, w, k = Vec2(30.0, 4.0), Vec2(2.0, -3.0), Vec2(29.0, 6.5), (0.3, -1.1), 0.5
        params = NoiseParams(beta_b=0.01, beta_d=0.02, beta_v=0.1, nu=0.5)
        s, d, n = 1.5 * xa.distance_to(xd), 1.5 * y.distance_to(xd), 1.5 * xa.norm()

        def unit(vx: float, vy: float) -> Vec2:
            h = math.hypot(vx, vy)
            return Vec2(vx / h, vy / h)

        def seen(a: Vec2, sep: float) -> Vec2:
            sigma = math.sqrt(noise_variance(sep, params))
            return Vec2(a.x + sigma * w[0], a.y + sigma * w[1])

        one_axis = math.erf(k / (math.sqrt(noise_variance(d, params)) * math.sqrt(2.0)))
        p = one_axis * one_axis
        rho = (y.norm_sq() - xd.norm_sq()) / (2.0 * d)
        target = Vec2((y.x - xd.x) / d * rho, (y.y - xd.y) / d * rho)
        pp, dm = Vec2((y.x - xd.x) / d, (y.y - xd.y) / d), unit(target.x - xd.x, target.y - xd.y)
        adm = unit(pp.x * p + dm.x * (1.0 - p), pp.y * p + dm.y * (1.0 - p))
        to_origin, angle = Vec2(-xa.x / n, -xa.y / n), xa.angle() - 1.0 / n
        spiral = unit((n - 1.0) * math.cos(angle) - xa.x, (n - 1.0) * math.sin(angle) - xa.y)
        away = xa - seen(xd, s)
        scale = 1.0 / (away.norm() * away.norm())
        intelligent = unit(away.x * scale + to_origin.x, away.y * scale + to_origin.y)
        cases = [
            (partial(defense_margin, xa, xd), s, (xa.norm_sq() - xd.norm_sq()) / (2.0 * s)),
            (partial(closest_safe_reachable_point, y, xd), d, target),
            (partial(observe, xa, xd, params, Normals(*w)), s, seen(xa, s)),
            (partial(reliability, y, xd, params, k), d, p),
        ]
        cases += [(partial(defender_control, strategy, y, xd, params, k, None), d, want)
                  for strategy, want in zip(DefenderStrategy, (pp, dm, adm))]
        cases += [(partial(attacker_control, behavior, xa, xd, params, Normals(*w), s), n, want)
                  for behavior, want in zip(MATRIX_ATTACKERS, (to_origin, spiral, intelligent))]
        assert rho > 0.0
        for fn, held, want in cases:
            assert fn(held) == want, fn
            assert fn() != want, fn
        assert intelligent_attacker(xa, xd, params, Normals(*w), None, n) != intelligent

    def test_the_fallback_cases_reach_their_fallbacks(self):
        zero = Vec2(0.0, 0.0)
        assert adm_control(Vec2(1e-13, 0.0), zero, NOISELESS, 0.5) == zero
        for xd in (Vec2(9.0, 0.0), Vec2(10.0, 0.0)):
            u = intelligent_attacker(Vec2(10.0, 0.0), xd, NOISELESS, Normals(0.0, 0.0))
            assert u == Vec2(-1.0, 0.0)
        with pytest.raises(ValueError, match="origin"):
            linear_attacker(zero)
        with pytest.raises(ValueError, match="radius > 1"):
            spiral_attacker(Vec2(0.6, -0.8))
