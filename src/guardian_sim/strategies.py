"""Defender guidance laws and attacker behaviors.

All controls are unit-speed direction vectors computed from the current
state; the engine applies them simultaneously.  Defenders only ever see the
noisy observation y, never the true attacker position.  `defender_control`
holds the three defender laws, `attacker_control` the attacker behaviors.
As in `lanes`, a caller that holds a norm passes it in: ``distance``, the
separation of the two points a function takes, or ``n``, the attacker's radius.
"""
from __future__ import annotations

import enum
import math

from .geometry import ORIGIN, Vec2, closest_safe_reachable_point
from .observation import NoiseParams, observe, reliability
from .rng import NormalStream

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


# The members, looked up once: under Python 3.11 reading one off its class
# costs about 0.13 us, and the controls test several per step.
_PP, _DM, _ADM = DefenderStrategy
_LINEAR, _SPIRAL, _INTELLIGENT, _STATIC = AttackerBehavior
MATRIX_ATTACKERS = (_LINEAR, _SPIRAL, _INTELLIGENT)
MATRIX_DEFENDERS = (_PP, _DM, _ADM)


def _unit(x: float, y: float, eps: float, n: float | None = None) -> Vec2:
    """(x, y) / ||(x, y)||, or the zero vector when the norm is below eps."""
    n = math.hypot(x, y) if n is None else n
    if n < eps:
        return ORIGIN
    return Vec2(x / n, y / n)


def defender_control(
    strategy: DefenderStrategy, y: Vec2, xd: Vec2, params: NoiseParams, k: float,
    p: float | None = None, distance: float | None = None,
) -> Vec2:
    """The strategy's heading for the defender at xd, given the observation y.

    `pp` (pure pursuit) heads straight at y; `dm` (defense margin) for the
    point of the attacker's safe reachable set, computed from y, that is
    closest to the origin; `adm` along p * pp + (1 - p) * dm, renormalized,
    with p = reliability(y, xd), so trusted observations make it pure pursuit
    and poor ones fall back to margin keeping.  A caller that already holds p
    passes it in; every part shares ||y - xd||.
    """
    distance = y.distance_to(xd) if distance is None else distance
    if strategy is _ADM and p is None:
        p = reliability(y, xd, params, k, distance)
    if strategy is not _DM:
        pp_dir = _unit(y.x - xd.x, y.y - xd.y, _EPS_DIRECTION, distance)
        if strategy is _PP:
            return pp_dir
    target = closest_safe_reachable_point(y, xd, distance)
    dm_dir = _unit(target.x - xd.x, target.y - xd.y, _EPS_DIRECTION)
    if strategy is _DM:
        return dm_dir
    q = 1.0 - p
    bx, by = pp_dir.x * p + dm_dir.x * q, pp_dir.y * p + dm_dir.y * q
    n = math.hypot(bx, by)
    if n < _EPS_BLEND:
        return dm_dir
    return Vec2(bx / n, by / n)


def attacker_control(
    behavior: AttackerBehavior, xa: Vec2, xd: Vec2, params: NoiseParams, rng: NormalStream,
    distance: float | None = None, n: float | None = None,
) -> Vec2:
    """The behavior's heading for the attacker at xa.

    `linear` heads for the origin; `spiral` spirals in clockwise, stepping
    toward the point one unit closer in radius and 1/r earlier in angle;
    `intelligent` blends heading for the origin with fleeing the defender,
    weighted by inverse observed separation; it sees the defender through the
    same distance-scaled noise, drawn afresh each step.  `static` stays put.
    """
    if behavior is _STATIC:
        return ORIGIN
    r = xa.norm() if n is None else n
    if behavior is _SPIRAL:
        if r <= 1.0:
            raise ValueError(f"spiral attacker needs radius > 1, got {r}")
        angle, inner = xa.angle() - 1.0 / r, r - 1.0
        return _unit(inner * math.cos(angle) - xa.x, inner * math.sin(angle) - xa.y, _EPS_DIRECTION)
    if r < _EPS_DIRECTION:
        raise ValueError("linear attacker undefined at the origin")
    to_origin = Vec2(-xa.x / r, -xa.y / r)
    if behavior is _LINEAR:
        return to_origin
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
