"""Array twins of the one-step kernels.

Each function takes ``(N,)`` float64 lanes (a vector is a pair ``(x, y)`` of
them) and returns, lane by lane, the bits of its scalar namesake.  If any
lane hits a case the scalar code refuses, it raises the same error.  It uses
only operations that round like the scalar ones: ``+ - * /``, ``sqrt``,
numpy's ``cos``/``sin`` (equal to libm's on every sampled angle the tests
try) and `math.erf` per lane.  ``np.hypot`` calls the C library's ``hypot``,
which differs from `math.hypot` in the last bit on about 0.6 % of pairs, so
`hypot` transcribes CPython 3.11's algorithm.  `observation.noise_variance`
needs no twin: over arrays it already computes each lane's expression.
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import CoincidentAgentsError
from .observation import NoiseParams, noise_variance
from .strategies import _EPS_BLEND, _EPS_DIRECTION, DefenderStrategy

_SQRT2 = math.sqrt(2.0)
_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_erf = np.frompyfunc(math.erf, 1, 1)


def _square(x):
    """(hi, lo) with hi + lo == x * x exactly, as CPython's ``dl_mul(x, x)``."""
    t = x * _VELTKAMP
    hi = t - (t - x)
    lo = x - hi
    p = hi * hi
    q = 2.0 * (hi * lo)  # hi*lo + lo*hi: both exact, so the same bits
    z = p + q
    return z, p - z + q + lo * lo


def hypot(x, y):
    """`math.hypot(x, y)` lane by lane: CPython 3.11's ``vector_norm`` of two
    coordinates.  Scale the larger magnitude into [0.5, 1), add the exact
    squares to 1.0 by fast two-sums, take the root, correct it once.  Below
    2**-1024 the scale overflows, and CPython divides by the larger magnitude
    instead, with plain squares and no correction."""
    x, y = np.abs(x), np.abs(y)
    big = np.maximum(x, y)
    with np.errstate(all="ignore"):
        e = np.frexp(big)[1]
        scale = np.ldexp(1.0, -e)
        csum, frac1, frac2 = 1.0, 0.0, 0.0
        for v in (x * scale, y * scale):
            hi, lo = _square(v)
            total = csum + hi
            frac1, frac2, csum = frac1 + lo, frac2 + ((csum - total) + hi), total
        h = np.sqrt(csum - 1.0 + (frac1 + frac2))
        hi, lo = _square(h)  # CPython's dl_mul(-h, h), negated
        total = csum - hi
        frac1, frac2 = frac1 - lo, frac2 + ((csum - total) - hi)
        out = (h + (total - 1.0 + (frac1 + frac2)) / (2.0 * h)) / scale
        if np.isfinite(out).all():  # tiny, zero, infinite and NaN lanes are not
            return out
        tiny = e < -1023
        m = big[tiny]
        csum, frac = 1.0, 0.0
        for v in (x[tiny] / m, y[tiny] / m):
            total = csum + v * v
            frac, csum = frac + ((csum - total) + v * v), total
        out[tiny] = m * np.sqrt(csum - 1.0 + frac)
        out[big == 0.0] = 0.0
        out[np.isnan(x) | np.isnan(y)] = np.nan
        out[np.isinf(x) | np.isinf(y)] = np.inf
    return out


def _vec(x, y):
    """The lanes (x, y), refused as `Vec2` refuses a non-finite component."""
    bad = ~(np.isfinite(x) & np.isfinite(y))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"non-finite component in Vec2({float(x[i])!r}, {float(y[i])!r})")
    return x, y


def from_polar(radius, angle):
    return _vec(radius * np.cos(angle), radius * np.sin(angle))


def _margin(xa, xd, what: str):
    """The scalar margin formula and the separation it divides by."""
    separation = hypot(xa[0] - xd[0], xa[1] - xd[1])
    if (separation == 0.0).any():
        raise CoincidentAgentsError(f"{what} undefined for coincident agents")
    sq_a, sq_d = xa[0] * xa[0] + xa[1] * xa[1], xd[0] * xd[0] + xd[1] * xd[1]
    return (sq_a - sq_d) / (2.0 * separation), separation


def defense_margin(xa, xd):
    return _margin(xa, xd, "defense margin")[0]


def closest_safe_reachable_point(xa, xd):
    rho, separation = _margin(xa, xd, "safe reachable set")
    (dx, dy), origin = _vec(xa[0] - xd[0], xa[1] - xd[1]), rho <= 0.0
    return _vec(np.where(origin, 0.0, dx / separation * rho),
                np.where(origin, 0.0, dy / separation * rho))


def observe(xa, xd, params: NoiseParams, normals):
    """`observation.observe`, with row i of the (N, 2) `normals` as the two
    standard normals lane i's stream would give."""
    sigma = np.sqrt(noise_variance(hypot(xa[0] - xd[0], xa[1] - xd[1]), params))
    return _vec(xa[0] + sigma * normals[:, 0], xa[1] + sigma * normals[:, 1])


def reliability(y, xd, params: NoiseParams, k: float):
    if k <= 0.0:
        raise ValueError(f"reliability half-width k must be positive, got {k}")
    variance = noise_variance(hypot(y[0] - xd[0], y[1] - xd[1]), params)
    exact = variance == 0.0
    one_axis = _erf(k / (np.sqrt(np.where(exact, 1.0, variance)) * _SQRT2)).astype(float)
    return np.where(exact, 1.0, one_axis * one_axis)


def _unit(v, eps: float, fallback=(0.0, 0.0)):
    """v / ||v||, or `fallback` on lanes where ||v|| < eps."""
    n = hypot(*v)
    small = n < eps
    n = np.where(small, 1.0, n)
    return np.where(small, fallback[0], v[0] / n), np.where(small, fallback[1], v[1] / n)


def pp_control(y, xd):
    return _unit(_vec(y[0] - xd[0], y[1] - xd[1]), _EPS_DIRECTION)


def dm_control(y, xd):
    tx, ty = closest_safe_reachable_point(y, xd)
    return _unit(_vec(tx - xd[0], ty - xd[1]), _EPS_DIRECTION)


def adm_control(y, xd, params: NoiseParams, k: float):
    p = reliability(y, xd, params, k)
    pp_dir, dm_dir = pp_control(y, xd), dm_control(y, xd)
    q = 1.0 - p
    blend = (pp_dir[0] * p + dm_dir[0] * q, pp_dir[1] * p + dm_dir[1] * q)
    return _unit(blend, _EPS_BLEND, dm_dir)


def defender_control(strategy: DefenderStrategy, y, xd, params: NoiseParams, k: float):
    if strategy is DefenderStrategy.ADJUSTED_DEFENSE_MARGIN:
        return adm_control(y, xd, params, k)
    return (pp_control if strategy is DefenderStrategy.PURE_PURSUIT else dm_control)(y, xd)


def linear_attacker(xa):
    n = hypot(*xa)
    if (n < _EPS_DIRECTION).any():
        raise ValueError("linear attacker undefined at the origin")
    return -xa[0] / n, -xa[1] / n


def one_step_margin_change(
    xa, xd, strategy: DefenderStrategy, params: NoiseParams, k: float, normals, motion
):
    """`analysis.one_step_margin_change`, with the noise given as in `observe`."""
    before = defense_margin(xa, xd)
    y = observe(xa, xd, params, normals)
    ux, uy = defender_control(strategy, y, xd, params, k)
    moved_a = _vec(xa[0] + motion[0], xa[1] + motion[1])
    return defense_margin(moved_a, _vec(xd[0] + ux, xd[1] + uy)) - before
