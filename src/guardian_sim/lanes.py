"""Array twins of the one-step kernels.

Each function takes float64 lanes, a number per lane as an ``(N,)`` array and
a vector as one ``(2, N)`` array (or view) with rows x and y.  On inputs within
the bounds its callers enforce before the first draw, it returns, lane by lane,
the bits of its scalar namesake (for `linear_attacker`, the linear law of
`strategies.attacker_control`).  The bounds: every observation is finite
(`WorldConfig`'s reach and noise bounds; the margin estimator's
`check_noise_bound`); `k` is positive and finite (`WorldConfig`, the estimator;
`check` passes 0.5); the attacker radius is >= 1e-12 for the linear and
intelligent controls and > 1 for the spiral.  A live attacker keeps ||xa|| >=
r_safe under either failure criterion, and `_validate_init` asks r_safe >=
1e-12 of the homing attackers and > 1 of the spiral, so the linear control,
which every attacker's starts as, holds on each live lane; the estimator's
attacker radii are >= 25.  Coincident agents still raise
`CoincidentAgentsError`.  Outside those bounds a twin is undefined; only
`hypot` is defined on every input.  The twins use only operations that round
like the scalar ones: ``+ - * /``; numpy's ``sqrt``, ``cos`` and ``sin``,
assumed (and tested, on the angles the default outputs reach and a wide sweep)
to give libm's bits; and `math.atan2` and `math.erf` per lane, since
``np.arctan2`` misses `math.atan2` on about 1 % of lanes and numpy has no
``erf``.  `hypot` gives `math.hypot`'s bits: on a wide call it rounds
``sqrt(x*x + y*y)`` (alone one bit off on about 17 % of simulator-scale
pairs) by the offset an exact residual gives, where that residual certifies
the result, and calls `math.hypot` on the rest.  `noise_variance` needs no
twin: over arrays it already computes each lane's expression.  A mask is
tested with `np.count_nonzero`, about 1 us a call cheaper than ``.any()``.

A twin takes only what it reads, and one that reads a norm is handed it as
`hypot`'s bits: ``distance`` (the separation of the two points), ``n`` (the
norm of the one vector) or ``dist`` (that of ``away``).  Only the margin
estimator's `defense_margin`, `linear_attacker` and `_unit` may omit it.  Each
control is `_unit` of a heading, a piece `analysis.run_matrix_block` composes too.
"""
from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .geometry import CoincidentAgentsError
from .observation import _SQRT2, NoiseParams, noise_variance
from .strategies import _EPS_BLEND, _EPS_DIRECTION, DefenderStrategy

# `hypot` certifies from this many lanes on: a certified call cost 25 us + 19 ns a lane against
# `math.hypot`'s 94 ns (varied inputs), even at 340, but 384 left the 100-trial matrix no faster.
_CERTIFY_FROM = 512
# and on at most this many at once, cutting wider calls into near-equal slices: a call
# cost 28-34 ns a lane at 2,048-3,328 lanes on varied inputs; a wider one faults its
# temporaries in again until glibc malloc raises its trim threshold (README, "How
# `matrix` runs", gives the page faults with and without).
_CERTIFY_SLICE = 2560
_DELTA = 0.005  # the margin, in ulp, a certified lane keeps from a rounding midpoint
_ACCEPT = 0.5 - _DELTA  # the bound on |e - k|, the true value's distance in ulp from the result
_HIGH_HALF = np.int64(-(1 << 27))  # masks off the low 27 mantissa bits
_EXPONENT = np.int64(0x7FF << 52)
_LOW_BITS, _SPAN_BITS = np.int64((1023 - 400) << 52), np.uint64(800 << 52)  # 2**-400 <= h < 2**400


def _per_lane(fn, *args):
    """The scalar `fn` called on each lane, so each lane gets its bits."""
    return np.fromiter(map(fn, *(a.tolist() for a in args)), float, len(args[0]))


def hypot(x, y):
    """`math.hypot(x, y)` lane by lane.

    Below `_CERTIFY_FROM` lanes, each lane calls `math.hypot`.  From there on,
    ``sqrt(x*x + y*y)`` gives a candidate h within 2 ulp of the true value T, an
    exact residual r = x^2 + y^2 - h^2 gives T's offset e = r / (2 h ulp(h)) in
    ulp, and h moves by k = rint(e) ulp.  A lane keeps the result if |e - k| <=
    1/2 - delta and it lies strictly inside h's binade.  Every other lane calls
    `math.hypot`: zero, subnormal, huge, NaN and infinite lanes, results on a
    power of two or outside h's binade, and true values near a rounding midpoint.

    One assumption: `math.hypot` errs by less than 1/2 + delta ulp.  Then
    the result, the only float that close to a certified lane's true value,
    is also what `math.hypot` returns there.
    """
    if len(x) < _CERTIFY_FROM:
        return _per_lane(math.hypot, x, y)
    if len(x) > _CERTIFY_SLICE:
        w = math.ceil(len(x) / math.ceil(len(x) / _CERTIFY_SLICE))  # as few as fit the cap
        return np.concatenate([hypot(x[i:i + w], y[i:i + w]) for i in range(0, len(x), w)])
    with np.errstate(all="ignore"):
        # Four 2**-53 roundings: h = T (1 + t), |t| < 2**-52 (1 + 2**-52): |h - T| < 2.001 ulp(h).
        h = np.sqrt(x * x + y * y)
        # Split each of x, y and h into a high half of 26 bits and a low
        # half of 27: a^2 = hi^2 + (2 hi + lo) lo, with hi^2 exact; a + hi,
        # formed in place, is the same exact sum as 2 hi + lo.
        a = np.concatenate((x, y, h)).reshape(3, -1)
        hi = (a.view(np.int64) & _HIGH_HALF).view(np.float64)
        lo = a - hi
        a += hi
        (sx, sy, sh), (cx, cy, ch) = np.square(hi, out=hi), np.multiply(a, lo, out=a)
        # big - sh is exact, big being the larger of sx and sy: squares of 26-bit
        # halves have 52-bit significands, and big (1 - 2**-23) < sh < 2 big
        # (1 + 2**-23) makes big - sh a multiple of ulp(big) below 2**53 ulp(big)
        # or of 2 ulp(big) below 2**54 ulp(big).  Cutting a root to 26 bits shrinks its square
        # by less than 2**-24, so those bounds hold for any h within 2**-26 of T.  Adding small
        # leaves r minus the c terms (each below 2**-23 h^2; |r| < 2**-50 h^2), so it and the
        # later sums round away less than 2**-70 h^2.
        s = np.maximum(sx, sy)
        s -= sh
        s += np.minimum(sx, sy, out=sx)
        cx += cy
        cx -= ch
        s += cx  # the residual r = ((big - sh) + small) + ((cx + cy) - ch)
        # Range: both components are at most T < 2**400 (1 + 2**-51), so h < 2**400 keeps every
        # product finite.  h >= 2**-400 puts h * ulp(h) above 2**-860, and a product that
        # underflows (the smaller component's square, say) loses less than 2**-1074: no lane
        # crosses the delta margin that way, so h alone bounds what either component can do.
        bits = h.view(np.int64)
        power = (bits & _EXPONENT).view(np.float64)  # 2**floor(log2(h)), ulp(h) * 2**52
        fail = (bits - _LOW_BITS).view(np.uint64) >= _SPAN_BITS
        # e = r / (2 h ulp(h)) takes 2 h for T + h in (T - h) / ulp(h) = r / ((T + h) ulp(h)),
        # off by < 2**-50; r's 2**-70 h^2 moves it by < 2**-18, its roundings by < 2**-51:
        # e errs by less than 2**-17, far inside the delta margin of 2**-7.6.
        s /= h * power  # exact product
        s *= 2.0**51
        k = np.rint(s)
        s -= k
        fail |= np.abs(s, out=s) > _ACCEPT
        # k more in the bits is k floats on, k ulp(h) within h's binade.  Strictly inside it,
        # the result's neighbours lie ulp(h) away, so T has ulp(h) too; a result on a power of
        # two (the grid below it is finer) or past one falls back.
        bits += k.astype(np.int64)
        fail |= (h <= power) | (h >= power + power)
    fall = np.flatnonzero(fail)
    if fall.size:
        h[fall] = _per_lane(math.hypot, x[fall], y[fall])
    return h


def from_polar(radius, angle):
    return radius * np.array((np.cos(angle), np.sin(angle)))


def _margin(xa, xd, what: str, separation=None):
    """The scalar margin formula and the separation it divides by."""
    if separation is None:
        separation = hypot(*(xa - xd))
    if np.count_nonzero(separation == 0.0):
        raise CoincidentAgentsError(f"{what} undefined for coincident agents")
    sq_a, sq_d = xa * xa, xd * xd
    return ((sq_a[0] + sq_a[1]) - (sq_d[0] + sq_d[1])) / (2.0 * separation), separation


def defense_margin(xa, xd, distance=None):
    return _margin(xa, xd, "defense margin", distance)[0]


def closest_safe_reachable_point(xa, xd, distance):
    rho, separation = _margin(xa, xd, "safe reachable set", distance)
    return np.where(rho <= 0.0, 0.0, (xa - xd) / separation * rho)


def observe(xa, params: NoiseParams, normals, distance):
    """`observation.observe`, with lane i of the (2, N) `normals` as the two
    standard normals lane i's stream would give; the defender enters only
    through `distance`."""
    return xa + np.sqrt(noise_variance(distance, params)) * normals


def reliability(params: NoiseParams, k: float, distance):
    # An infinite variance gives erf(0), and k over a tiny one erf(inf), as in the scalar code.
    with np.errstate(over="ignore"):
        variance = noise_variance(distance, params)
        exact = variance == 0.0
        z = k / (np.sqrt(np.where(exact, 1.0, variance)) * _SQRT2)
    one_axis = _per_lane(math.erf, z)
    return np.where(exact, 1.0, one_axis * one_axis)


def hypots(*vectors):
    """`hypot` over the lanes of several vectors in one call: their norms, in order."""
    norms = hypot(*np.concatenate(vectors, axis=1))
    ends = [0, *accumulate(v.shape[1] for v in vectors)]
    return [norms[i:j] for i, j in zip(ends, ends[1:])]


def _unit(v, eps: float = _EPS_DIRECTION, fallback=0.0, n=None):
    """v / ||v||, or `fallback` on lanes where ||v|| < eps."""
    n = hypot(*v) if n is None else n
    small = n < eps
    if not np.count_nonzero(small):
        return v / n
    return np.where(small, fallback, v / np.where(small, 1.0, n))


def dm_heading(y, xd, distance):
    return closest_safe_reachable_point(y, xd, distance) - xd


def adm_heading(pp_dir, dm_dir, p):
    return pp_dir * p + dm_dir * (1.0 - p)


def defender_control(strategy: DefenderStrategy, y, xd, params: NoiseParams, k: float):
    # The pursuit, margin-keeping and reliability parts share ||y - xd||.
    sight = y - xd
    distance = hypot(*sight)
    if strategy is DefenderStrategy.PURE_PURSUIT:
        return _unit(sight, n=distance)
    dm_dir = _unit(dm_heading(y, xd, distance))
    if strategy is DefenderStrategy.DEFENSE_MARGIN:
        return dm_dir
    p = reliability(params, k, distance)
    return _unit(adm_heading(_unit(sight, n=distance), dm_dir, p), _EPS_BLEND, dm_dir)


def linear_attacker(xa, n=None):
    return -xa / (hypot(*xa) if n is None else n)


def spiral_heading(xa, n):
    return from_polar(n - 1.0, _per_lane(math.atan2, xa[1], xa[0]) - 1.0 / n) - xa


def intelligent_away(xa, xd, params: NoiseParams, normals, distance):
    """xa minus the defender as the attacker observes it (normals as in `observe`)."""
    return xa - observe(xd, params, normals, distance)


def intelligent_heading(away, to_origin, dist):
    """The blend of `away` and `to_origin`, zero where dist < 1e-12 so `_unit` falls back."""
    near = dist < _EPS_DIRECTION
    scale = 1.0 / np.where(near, 1.0, dist * dist)
    return np.where(near, 0.0, away * scale + to_origin)


def one_step_margin_change(
    xa, xd, strategy: DefenderStrategy, params: NoiseParams, k: float, normals, motion
):
    """`analysis.one_step_margin_change`, with the noise given as in `observe`."""
    before, separation = _margin(xa, xd, "defense margin")
    y = observe(xa, params, normals, separation)
    ud = defender_control(strategy, y, xd, params, k)
    return defense_margin(xa + motion, xd + ud) - before
