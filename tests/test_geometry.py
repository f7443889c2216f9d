"""Vector algebra, capture predicate, defense margin, safe-reachable point."""
from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import angles, as_pair, margin_of, outer_inner_pairs, separated_pairs, vec2s
from guardian_sim.engine import Outcome, WorldConfig, episode_outcome
from guardian_sim.geometry import (
    ORIGIN,
    CoincidentAgentsError,
    Vec2,
    closest_safe_reachable_point,
    defense_margin,
)
from oracles import rotated


def closest_point(xa: Vec2, xd: Vec2) -> Vec2:
    """`closest_safe_reachable_point`, handed the separation its caller holds."""
    return Vec2(*closest_safe_reachable_point(as_pair(xa), as_pair(xd), xa.distance_to(xd)))


class TestVec2:
    def test_rejects_non_finite_components(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                Vec2(bad, 0.0)
            with pytest.raises(ValueError):
                Vec2(0.0, bad)

    def test_algebra(self):
        a, b = Vec2(3.0, -1.0), Vec2(1.0, 2.0)
        assert a + b == Vec2(4.0, 1.0)
        assert a - b == Vec2(2.0, -3.0)
        assert a * 2.0 == Vec2(6.0, -2.0)
        assert a / 2.0 == Vec2(1.5, -0.5)
        assert a.dot(b) == 1.0
        assert Vec2(3.0, 4.0).norm() == 5.0
        assert Vec2(1.0, 1.0).distance_to(Vec2(4.0, 5.0)) == 5.0

    def test_polar_round_trip(self):
        v = Vec2.from_polar(2.0, math.pi / 6)
        assert v.norm() == pytest.approx(2.0, abs=1e-12)
        assert math.atan2(v.y, v.x) == pytest.approx(math.pi / 6, abs=1e-12)

    @given(vec2s(), angles)
    def test_rotation_preserves_norm(self, v, theta):
        assert rotated(v, theta).norm() == pytest.approx(v.norm(), abs=1e-9)

    def test_rotation_quarter_turn(self):
        assert rotated(Vec2(1.0, 0.0), math.pi / 2).y == pytest.approx(1.0, abs=1e-12)


class TestIsCaptured:
    """The capture predicate of `episode_outcome`: separation <= tau."""

    @staticmethod
    def captured(xa: Vec2, xd: Vec2) -> bool:
        cfg, separation = WorldConfig(tau=2.0), xa.distance_to(xd)
        outcome = episode_outcome(0, as_pair(xa), as_pair(xd), cfg, separation, xa.norm())
        return outcome is Outcome.CAPTURED

    def test_boundary_inclusive(self):
        assert self.captured(Vec2(22, 0), Vec2(20, 0))

    def test_strict_exceedance(self):
        assert not self.captured(Vec2(22.001, 0), Vec2(20, 0))

    def test_inside(self):
        assert self.captured(Vec2(21, 21), Vec2(20, 20))


class TestDefenseMargin:
    def test_defender_at_origin(self):
        assert defense_margin((4.0, 0.0), (0.0, 0.0), 4.0) == 2.0

    def test_collinear(self):
        assert defense_margin((6.0, 0.0), (2.0, 0.0), 4.0) == 4.0

    def test_coincident_raises(self):
        with pytest.raises(CoincidentAgentsError):
            defense_margin((1.0, 1.0), (1.0, 1.0), 0.0)

    def test_sign_flips_when_defender_outside(self):
        assert defense_margin((1.0, 0.0), (5.0, 0.0), 4.0) < 0.0

    @given(outer_inner_pairs())
    def test_margin_equals_closest_point_norm(self, pair):
        xa, xd = pair
        if xa.distance_to(xd) < 1e-9:
            return
        rho = margin_of(xa, xd)
        assert abs(rho - closest_point(xa, xd).norm()) <= 1e-9 * max(1.0, abs(rho))

    @given(outer_inner_pairs(), angles)
    def test_rotation_invariance(self, pair, theta):
        xa, xd = pair
        if xa.distance_to(xd) < 1e-9:
            return
        rho = margin_of(xa, xd)
        rho_rot = margin_of(rotated(xa, theta), rotated(xd, theta))
        assert rho_rot == pytest.approx(rho, abs=1e-9 * max(1.0, abs(rho)))


class TestClosestSafeReachablePoint:
    def test_bisector_foot_on_axis(self):
        assert closest_point(Vec2(4, 0), Vec2(0, 0)) == Vec2(2, 0)

    def test_bisector_foot_vertical(self):
        p = closest_point(Vec2(0, 6), Vec2(0, 2))
        assert p.x == pytest.approx(0.0, abs=1e-12)
        assert p.y == pytest.approx(4.0, abs=1e-12)

    def test_origin_when_defender_not_closer(self):
        assert closest_point(Vec2(1, 0), Vec2(3, 0)) == Vec2(*ORIGIN)
        assert closest_point(Vec2(2, 0), Vec2(-2, 0)) == Vec2(*ORIGIN)  # tie

    def test_coincident_raises(self):
        with pytest.raises(CoincidentAgentsError):
            closest_point(Vec2(2, 2), Vec2(2, 2))

    @given(st.one_of(outer_inner_pairs(), separated_pairs()))
    def test_point_meets_the_optimality_conditions(self, pair):
        """The point solves min ||p|| over ||p - xa|| <= ||p - xd||.

        The ||p||^2 terms cancel, so the constraint is the half-plane
        g(p) = 2 p . n - c >= 0, with n = xa - xd and c = ||xa||^2 - ||xd||^2.
        A convex objective under one linear constraint is minimised exactly
        at its KKT points: the origin when it is feasible (c <= 0), and
        otherwise the point of the boundary g = 0 that is a non-negative
        multiple of n.  Both hold to a relative 1e-9: |g(p)| <= 1e-9 max(1, c)
        and |p x n| <= 1e-9 ||p|| ||n||.
        """
        xa, xd = pair
        p = closest_point(xa, xd)
        (ax, ay), (dx, dy) = as_pair(xa), as_pair(xd)
        nx, ny = ax - dx, ay - dy
        c = (ax * ax + ay * ay) - (dx * dx + dy * dy)
        assert (p == Vec2(*ORIGIN)) == (c <= 0.0)
        if c > 0.0:
            tol = 1e-9
            assert abs(2.0 * (p.x * nx + p.y * ny) - c) <= tol * max(1.0, c)
            assert p.x * nx + p.y * ny >= 0.0
            assert abs(p.x * ny - p.y * nx) <= tol * p.norm() * math.hypot(nx, ny)

    @given(separated_pairs(min_separation=0.5), st.floats(min_value=0.05, max_value=5.0))
    def test_point_beats_random_feasible_points(self, pair, scale):
        """No feasible point (closer to xa than xd) may be nearer the origin."""
        xa, xd = pair
        p = closest_point(xa, xd)
        probe = xa + (xd - xa) * 0.0 + Vec2(scale, -scale)  # arbitrary offset of xa
        if probe.distance_to(xa) <= probe.distance_to(xd):
            assert p.norm() <= probe.norm() + 1e-9
