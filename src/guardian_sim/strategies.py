"""Defender guidance laws and attacker behaviors.

All controls are unit-speed direction vectors computed from the current
state; the engine applies them simultaneously.  Defenders only ever see the
noisy observation y, never the true attacker position.  `defender_control`
holds the three defender laws, `attacker_control` the attacker behaviors.
As in `lanes`, a law is handed the norms its caller holds (``distance``, the
separation of its two points; ``n``, the attacker's radius) and checks none of
the bounds its callers enforce before the first draw: k > 0 (`WorldConfig`, the
margin estimator) and an attacker radius >= 1e-12, or > 1 for the spiral
(`engine._validate_init`'s bounds on r_safe, below which no live attacker goes).
"""
from __future__ import annotations

import enum
import math

from .geometry import ORIGIN, Pair, closest_safe_reachable_point
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


def _unit(x: float, y: float, n: float) -> Pair:
    """(x, y) / n, n being ||(x, y)||, or the zero vector when n is below 1e-12."""
    if n < _EPS_DIRECTION:
        return ORIGIN
    return x / n, y / n


def defender_control(
    strategy: DefenderStrategy, y: Pair, xd: Pair, params: NoiseParams, k: float,
    distance: float, p: float | None = None,
) -> Pair:
    """The strategy's heading for the defender at xd, given the observation y.

    `pp` (pure pursuit) heads straight at y; `dm` (defense margin) for the
    point of the attacker's safe reachable set, computed from y, that is
    closest to the origin; `adm` along p * pp + (1 - p) * dm, renormalized,
    with p the reliability of y, so trusted observations make it pure pursuit
    and poor ones fall back to margin keeping.  Every part shares `distance`,
    ||y - xd||; a caller that already holds p passes it in.
    """
    if strategy is _ADM and p is None:
        p = reliability(params, k, distance)
    dx, dy = xd
    if strategy is not _DM:
        pp_dir = _unit(y[0] - dx, y[1] - dy, distance)
        if strategy is _PP:
            return pp_dir
    tx, ty = closest_safe_reachable_point(y, xd, distance)
    hx, hy = tx - dx, ty - dy
    dm_dir = _unit(hx, hy, math.hypot(hx, hy))
    if strategy is _DM:
        return dm_dir
    q = 1.0 - p
    bx, by = pp_dir[0] * p + dm_dir[0] * q, pp_dir[1] * p + dm_dir[1] * q
    n = math.hypot(bx, by)
    if n < _EPS_BLEND:
        return dm_dir
    return bx / n, by / n


def attacker_control(
    behavior: AttackerBehavior, xa: Pair, xd: Pair, params: NoiseParams, rng: NormalStream,
    distance: float, n: float,
) -> Pair:
    """The behavior's heading for the attacker at xa.

    `linear` heads for the origin; `spiral` spirals in clockwise, stepping
    toward the point one unit closer in radius and 1/r earlier in angle;
    `intelligent` blends heading for the origin with fleeing the defender,
    weighted by inverse observed separation; it sees the defender through the
    same distance-scaled noise, drawn afresh each step.  `static` stays put.
    """
    if behavior is _STATIC:
        return ORIGIN
    ax, ay = xa
    if behavior is _SPIRAL:
        angle, inner = math.atan2(ay, ax) - 1.0 / n, n - 1.0
        hx, hy = inner * math.cos(angle) - ax, inner * math.sin(angle) - ay
        return _unit(hx, hy, math.hypot(hx, hy))
    to_origin = ox, oy = -ax / n, -ay / n
    if behavior is _LINEAR:
        return to_origin
    seen_x, seen_y = observe(xd, params, rng, distance)
    awx, awy = ax - seen_x, ay - seen_y
    dist = math.hypot(awx, awy)
    if dist < _EPS_DIRECTION:
        return to_origin
    scale = 1.0 / (dist * dist)  # (1/dist) * unit(away) + 1 * unit(to_origin)
    bx, by = awx * scale + ox, awy * scale + oy
    norm = math.hypot(bx, by)
    if norm < _EPS_BLEND:
        return to_origin
    return bx / norm, by / norm
