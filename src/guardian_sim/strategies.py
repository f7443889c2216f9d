"""Defender guidance laws and attacker behaviors.

All controls are unit-speed direction vectors computed from the current
state; the engine applies them simultaneously.  Defenders only ever see the
noisy observation y, never the true attacker position.  As in the `lanes`
twins, a caller that holds a norm passes it in: ``distance``, the separation
of the two points a function takes, or ``n``, the attacker's radius.
"""
from __future__ import annotations

import enum
import math

from .geometry import Vec2, closest_safe_reachable_point
from .observation import NoiseParams, observe, reliability
from .rng import NormalStream

_ZERO = Vec2(0.0, 0.0)
_EPS_DIRECTION = 1e-12
_EPS_BLEND = 1e-9


class DefenderStrategy(enum.Enum):
    PURE_PURSUIT = "pp"
    DEFENSE_MARGIN = "dm"
    ADJUSTED_DEFENSE_MARGIN = "adm"


class AttackerBehavior(enum.Enum):
    LINEAR = "linear"
    SPIRAL = "spiral"
    INTELLIGENT = "intelligent"
    # Motionless stub, useful for tests and single runs; not part of the
    # standard 3x3 experiment matrix.
    STATIC = "static"


MATRIX_ATTACKERS = (AttackerBehavior.LINEAR, AttackerBehavior.SPIRAL, AttackerBehavior.INTELLIGENT)
MATRIX_DEFENDERS = (
    DefenderStrategy.PURE_PURSUIT,
    DefenderStrategy.DEFENSE_MARGIN,
    DefenderStrategy.ADJUSTED_DEFENSE_MARGIN,
)


def _unit(x: float, y: float, eps: float, n: float | None = None) -> Vec2:
    """(x, y) / ||(x, y)||, or the zero vector when the norm is below eps."""
    n = math.hypot(x, y) if n is None else n
    if n < eps:
        return _ZERO
    return Vec2(x / n, y / n)


def pp_control(y: Vec2, xd: Vec2, distance: float | None = None) -> Vec2:
    """Pure pursuit: head straight at the observed attacker position."""
    return _unit(y.x - xd.x, y.y - xd.y, _EPS_DIRECTION, distance)


def dm_control(y: Vec2, xd: Vec2, distance: float | None = None) -> Vec2:
    """Defense-margin guidance: head for the point of the attacker's safe
    reachable set that is closest to the origin (computed from y)."""
    target = closest_safe_reachable_point(y, xd, distance)
    return _unit(target.x - xd.x, target.y - xd.y, _EPS_DIRECTION)


def adm_control(
    y: Vec2, xd: Vec2, params: NoiseParams, k: float, p: float | None = None,
    distance: float | None = None,
) -> Vec2:
    """Adjusted defense margin: reliability-weighted blend of pure pursuit
    and defense-margin guidance.

    With p = reliability(y, xd), steer along p * pp + (1 - p) * dm,
    renormalized.  Trusted observations (small estimated noise) make this
    pure pursuit; poor ones fall back to margin keeping.  A caller that has
    already computed p for this (y, xd) passes it in, so each step computes
    the reliability once; the three parts share ||y - xd||.
    """
    distance = y.distance_to(xd) if distance is None else distance
    if p is None:
        p = reliability(y, xd, params, k, distance)
    pp_dir = pp_control(y, xd, distance)
    dm_dir = dm_control(y, xd, distance)
    q = 1.0 - p
    bx, by = pp_dir.x * p + dm_dir.x * q, pp_dir.y * p + dm_dir.y * q
    n = math.hypot(bx, by)
    if n < _EPS_BLEND:
        return dm_dir
    return Vec2(bx / n, by / n)


def linear_attacker(xa: Vec2, n: float | None = None) -> Vec2:
    """Straight line toward the origin."""
    n = xa.norm() if n is None else n
    if n < _EPS_DIRECTION:
        raise ValueError("linear attacker undefined at the origin")
    return Vec2(-xa.x / n, -xa.y / n)


def spiral_attacker(xa: Vec2, n: float | None = None) -> Vec2:
    """Clockwise inward spiral: unit step toward the point one unit closer in
    radius and 1/r earlier in angle."""
    r = xa.norm() if n is None else n
    if r <= 1.0:
        raise ValueError(f"spiral attacker needs radius > 1, got {r}")
    angle, inner = xa.angle() - 1.0 / r, r - 1.0
    return _unit(inner * math.cos(angle) - xa.x, inner * math.sin(angle) - xa.y, _EPS_DIRECTION)


def intelligent_attacker(
    xa: Vec2, xd: Vec2, params: NoiseParams, rng: NormalStream,
    distance: float | None = None, n: float | None = None,
) -> Vec2:
    """Evade-while-attacking: blend of fleeing the (noisily) observed defender,
    weighted by inverse observed separation, and heading for the origin.

    The attacker observes the defender through the same distance-scaled noise
    the defender suffers, re-sampled fresh each step.
    """
    to_origin = linear_attacker(xa, n)
    observed_xd = observe(xd, xa, params, rng, distance)
    ax, ay = xa.x - observed_xd.x, xa.y - observed_xd.y
    dist = math.hypot(ax, ay)
    if dist < _EPS_DIRECTION:
        return to_origin
    scale = 1.0 / (dist * dist)  # (1/dist) * unit(away) + 1 * unit(to_origin)
    bx, by = ax * scale + to_origin.x, ay * scale + to_origin.y
    norm = math.hypot(bx, by)
    if norm < _EPS_BLEND:
        return to_origin
    return Vec2(bx / norm, by / norm)


def defender_control(
    strategy: DefenderStrategy, y: Vec2, xd: Vec2, params: NoiseParams, k: float,
    p: float | None = None, distance: float | None = None,
) -> Vec2:
    """The strategy's control; `p`, if given, is reliability(y, xd) for `adm`."""
    if strategy is DefenderStrategy.PURE_PURSUIT:
        return pp_control(y, xd, distance)
    if strategy is DefenderStrategy.DEFENSE_MARGIN:
        return dm_control(y, xd, distance)
    return adm_control(y, xd, params, k, p, distance)


def attacker_control(
    behavior: AttackerBehavior, xa: Vec2, xd: Vec2, params: NoiseParams, rng: NormalStream,
    distance: float | None = None, n: float | None = None,
) -> Vec2:
    if behavior is AttackerBehavior.LINEAR:
        return linear_attacker(xa, n)
    if behavior is AttackerBehavior.SPIRAL:
        return spiral_attacker(xa, n)
    if behavior is AttackerBehavior.INTELLIGENT:
        return intelligent_attacker(xa, xd, params, rng, distance, n)
    return _ZERO
