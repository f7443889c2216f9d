"""Independent numerical oracles for the test suite.

Everything here is deliberately written against the raw math, not the
package's closed forms: Gauss-Legendre quadrature for Gaussian masses and
expectations, constrained optimization and dense line grids for the
safe-reachable-point geometry.  Tests compare package output against these.
The lane attackers are the exception: they compose the `lanes` pieces into
whole controls, as the matrix kernel does, for the twin tests to check
against the scalar attackers.  So are the three loops at the end: the
start sampler and the `check` sweep as they were written before each took
its uniforms four at a time and the sweep moved onto the lanes, and the
margin-change estimator as it was written before it stepped two blocks at
a time.  So are `run`'s two renderers, as they were written before the
config block was rendered once per world and the CSV rows were streamed.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize

from guardian_sim import lanes
from guardian_sim.analysis import (
    MARGIN_BLOCK, MARGIN_SAMPLE_ATTACKER_RADIUS, MARGIN_SAMPLE_DEFENDER_RADIUS,
    one_step_margin_change)
from guardian_sim.engine import (
    ATTACKER_RADIUS_RANGE, DEFENDER_RADIUS_RANGE, TRAJECTORY_HEADER, InvalidInitializationError)
from guardian_sim.fileio import fmt9, json_text
from guardian_sim.geometry import Vec2
from guardian_sim.observation import NoiseParams
from guardian_sim.rng import Rng

TWO_PI = 2.0 * math.pi


def rotated(v: Vec2, angle: float) -> Vec2:
    """`v` turned by `angle` about the origin, for the rotation checks."""
    c, s = math.cos(angle), math.sin(angle)
    return Vec2(c * v.x - s * v.y, s * v.x + c * v.y)


def gaussian_square_mass_quadrature(k: float, sigma: float, nodes: int = 48) -> float:
    """Mass of the zero-mean isotropic Gaussian (per-axis std sigma) inside
    the square [-k, k]^2, by 2-D tensor Gauss-Legendre quadrature.

    The domain is clipped to +/- 8 sigma per axis (mass beyond is < 1e-14)
    so the rule keeps resolving the density even when k >> sigma.
    """
    if sigma <= 0.0:
        raise ValueError("quadrature oracle needs sigma > 0")
    half = min(k, 8.0 * sigma)
    x, w = np.polynomial.legendre.leggauss(nodes)
    pts = x * half
    wts = w * half
    density_1d = np.exp(-0.5 * (pts / sigma) ** 2) / (sigma * math.sqrt(TWO_PI))
    # 2-D tensor rule: sum_ij w_i w_j f(x_i) f(x_j) for the separable density.
    grid = np.outer(density_1d * wts, density_1d * wts)
    return float(grid.sum())


def expected_cos_quadrature(
    e: tuple[float, float],
    ua: tuple[float, float],
    sigma: float,
    radial_nodes: int = 400,
    angular_nodes: int = 400,
) -> tuple[float, float]:
    """(E[cos a], Std[cos a]) where cos a is the cosine between (e + w) and
    (e + ua), and w is an isotropic Gaussian truncated to ||w|| < ||e||.

    Polar-coordinates Gauss-Legendre product rule; returns the truncated
    (renormalized) expectation and the standard deviation of the integrand,
    for calibrating Monte Carlo tolerances.
    """
    ex, ey = e
    e_norm = math.hypot(ex, ey)
    fx, fy = ex + ua[0], ey + ua[1]
    f_norm = math.hypot(fx, fy)
    if sigma <= 0.0 or e_norm <= 0.0 or f_norm <= 0.0:
        raise ValueError("quadrature oracle needs sigma > 0 and non-degenerate vectors")
    xr, wr = np.polynomial.legendre.leggauss(radial_nodes)
    xt, wt = np.polynomial.legendre.leggauss(angular_nodes)
    r = 0.5 * e_norm * (xr + 1.0)
    wr = 0.5 * e_norm * wr
    theta = math.pi * (xt + 1.0)
    wt = math.pi * wt
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    wx = rr * np.cos(tt)
    wy = rr * np.sin(tt)
    gx = ex + wx
    gy = ey + wy
    cos_a = (gx * fx + gy * fy) / (np.hypot(gx, gy) * f_norm)
    density = np.exp(-0.5 * (rr / sigma) ** 2) / (TWO_PI * sigma * sigma)
    weight = np.outer(wr, wt) * rr * density
    mass = float(weight.sum())
    mean = float((cos_a * weight).sum()) / mass
    second = float((cos_a * cos_a * weight).sum()) / mass
    return mean, math.sqrt(max(second - mean * mean, 0.0))


KKT_TOL = 1e-9


def closest_point_constrained(
    xa: tuple[float, float], xd: tuple[float, float]
) -> tuple[float, float]:
    """argmin ||p|| over the half-plane of points at least as close to xa as
    to xd, via SLSQP from several starts.  Independent of the closed form.

    The constraint ||p - xa|| <= ||p - xd|| is exactly linear, because the
    quadratic terms ||p||^2 cancel on both sides:

        g(p) = 2 p . n - c >= 0,  n = xa - xd,  c = ||xa||^2 - ||xd||^2,

    oriented so that xa itself is feasible.

    Each start's final iterate is accepted on its own checks, never on
    ``res.success``: on scipy >= 1.16 SLSQP at ftol=1e-14 ends with status 8
    ("Positive directional derivative for linesearch") on iterates that are
    already exact, and a reported success is no proof of optimality either.
    With tol = KKT_TOL and s = tol * max(1, |c|), an iterate p is kept when

    - it is feasible: g(p) >= -s, and
    - it is a KKT point of min ||p||^2 s.t. g(p) >= 0: either p = 0, or the
      constraint is active (|g(p)| <= s) with multiplier p . n >= 0 and
      stationarity |p x n| <= tol * ||p|| ||n|| (p parallel to n).

    Only the objective and constraint gradients enter the check, so the
    oracle stays independent of the closed form.  The lowest-objective
    verified iterate is returned; RuntimeError if no start verifies.
    """
    ax, ay = xa
    dx, dy = xd
    nx, ny = ax - dx, ay - dy
    c = (ax * ax + ay * ay) - (dx * dx + dy * dy)
    # Feasible set: 2 p.(xa - xd) >= c  (check: p = xa gives
    # 2||xa||^2 - 2 xa.xd >= ||xa||^2 - ||xd||^2  <=>  ||xa - xd||^2 >= 0).
    cons = {"type": "ineq", "fun": lambda p: 2.0 * (p[0] * nx + p[1] * ny) - c}
    slack = KKT_TOL * max(1.0, abs(c))
    n_norm = math.hypot(nx, ny)

    def verified(px: float, py: float) -> bool:
        g = 2.0 * (px * nx + py * ny) - c
        if not g >= -slack:  # also refuses a NaN iterate
            return False
        if px == 0.0 and py == 0.0:
            return True
        return (
            abs(g) <= slack
            and px * nx + py * ny >= 0.0
            and abs(px * ny - py * nx) <= KKT_TOL * math.hypot(px, py) * n_norm
        )

    best = None
    best_f = math.inf
    for start in ((ax, ay), ((ax + dx) / 2.0, (ay + dy) / 2.0), (ax + 1.0, ay - 1.0)):
        res = optimize.minimize(
            lambda p: p[0] * p[0] + p[1] * p[1],
            np.asarray(start, dtype=float),
            jac=lambda p: 2.0 * p,
            constraints=[cons],
            method="SLSQP",
            options={"maxiter": 200, "ftol": 1e-14},
        )
        px, py = float(res.x[0]), float(res.x[1])
        f = px * px + py * py
        if verified(px, py) and f < best_f:
            best, best_f = (px, py), f
    if best is None:
        raise RuntimeError(f"SLSQP found no feasible KKT point for xa={xa}, xd={xd}")
    return best


def capture_countdown_steps(initial_separation: float, tau: float) -> int:
    """Steps for a unit-speed pursuer to close on a static target from the
    given separation under exact observations: separation drops by exactly 1
    per step, capture (inclusive) at separation <= tau."""
    t = 0
    sep = initial_separation
    while sep > tau:
        sep -= 1.0
        t += 1
    return t


def margin_config_from_frame(
    r: float, rho0: float, psi: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """World-frame (xa, xd) realizing a one-step margin configuration given in
    the defender's frame: separation r, current margin rho0 > 0, and the foot
    of the perpendicular from the protected center to the reachability
    boundary seen from the defender under angle psi in (-pi/2, pi/2).

    Construction: in the frame with the defender at the origin and the
    attacker at (r, 0), the boundary is the vertical bisector x = r/2 and the
    center sits at (p, q) with p = r/2 - rho0, q = (r/2) tan(psi).  Shifting
    the center back to the world origin gives xd = (-p, -q), xa = (r-p, -q).
    """
    p = r / 2.0 - rho0
    q = (r / 2.0) * math.tan(psi)
    return (r - p, -q), (-p, -q)


def dm_margin_gain_closed_form(r: float, rho0: float, psi: float) -> float:
    """Exact one-step margin change for a unit step toward the nearest safe
    reachable point (static opponent, exact observations), in the frame of
    `margin_config_from_frame`.

    New separation D = sqrt(r^2 - 2 r cos(psi) + 1); the new margin is the
    center's distance to the moved bisector, and the change collapses to

        gain = B + rho0 * c,  B = (r - cos psi) / (2 cos psi * D),
                              c = (r - cos psi) / D - 1.

    c <= 0 with equality iff psi == 0 (where the step is pure pursuit and the
    gain is exactly 1/2), so the gain is unbounded below in rho0 for any
    psi != 0.
    """
    cp = math.cos(psi)
    d = math.sqrt(r * r - 2.0 * r * cp + 1.0)
    b = (r - cp) / (2.0 * cp * d)
    c = (r - cp) / d - 1.0
    return b + rho0 * c


def given_start_clearing_chance(given: float, tau: float, low: float, high: float) -> float:
    """P(||a - b|| > tau) for a point b at radius `given` and a point a at a
    radius r uniform over [low, high) and a uniform angle.

    Given r, the separation exceeds tau where the cosine of the angle
    between the points is below c = (given^2 + r^2 - tau^2) / (2 given r),
    which a uniform angle over [0, pi] is with chance 1 - arccos(c) / pi.
    That chance is 1 for r < given - tau or r > given + tau, and 0 for
    r < tau - given, so the integral is cut at those kinks (scipy's adaptive
    `quad`)."""

    def clears(r: float) -> float:
        if given * r == 0.0:
            return float(given + r > tau)
        c = (given * given + r * r - tau * tau) / (2.0 * given * r)
        return 1.0 - math.acos(min(1.0, max(-1.0, c))) / math.pi

    kinks = [x for x in (given - tau, tau - given, given + tau) if low < x < high] or None
    mass = integrate.quad(clears, low, high, epsabs=1e-14, epsrel=1e-12, points=kinks)[0]
    return mass / (high - low)


def sampled_start_clearing_chance(tau: float) -> float:
    """P(||xa - xd|| > tau) for one attempt of the start sampler: defender
    radius uniform over `DEFENDER_RADIUS_RANGE`, attacker radius over
    `ATTACKER_RADIUS_RANGE`, and the angle between them uniform.  The
    attacker radius a is integrated over the chance for a given attacker,
    cut where that chance has kinks (a - tau or tau - a at a defender
    radius bound)."""
    (d_lo, d_hi), (a_lo, a_hi) = DEFENDER_RADIUS_RANGE, ATTACKER_RADIUS_RANGE
    kinks = [x for x in (tau - d_hi, tau - d_lo, tau + d_lo, tau + d_hi) if a_lo < x < a_hi]
    mass = integrate.quad(given_start_clearing_chance, a_lo, a_hi, args=(tau, d_lo, d_hi),
                          epsabs=1e-14, epsrel=1e-12, points=kinks or None)[0]
    return mass / (a_hi - a_lo)


def lane_spiral_attacker(xa, n):
    """The scalar spiral attacker (`strategies.attacker_control`) over lanes at
    the radius `n`, composed of the `lanes` pieces as `analysis.run_matrix_block`
    composes them."""
    return lanes._unit(lanes.spiral_heading(xa, n))


def lane_intelligent_attacker(xa, xd, params, normals, distance, n):
    """The scalar intelligent attacker (`strategies.attacker_control`) over
    lanes at the separation `distance` and radius `n`, with the attacker's
    normals as in `lanes.observe`, composed as `analysis.run_matrix_block`
    composes it."""
    to_origin = lanes.linear_attacker(xa, n)
    away = lanes.intelligent_away(xa, xd, params, normals, distance)
    heading = lanes.intelligent_heading(away, to_origin, lanes.hypot(*away))
    return lanes._unit(heading, lanes._EPS_BLEND, to_origin)


def _uniform_point(rng: Rng, low: float, high: float) -> Vec2:
    """A radius from `rng.uniform(low, high)`, then an angle from
    `rng.uniform(-pi, pi)`."""
    return Vec2.from_polar(rng.uniform(low, high), rng.uniform(-math.pi, math.pi))


def uniform_call_starts(
    rng: Rng, min_separation: float = 0.0, xa: Vec2 | None = None, xd: Vec2 | None = None
) -> tuple[Vec2, Vec2]:
    """`engine.sample_initial_positions` with four `Rng.uniform` calls per
    attempt: the defender's point, then the attacker's, a given start taking
    the place of its draw."""
    for _ in range(1000):
        d = _uniform_point(rng, *DEFENDER_RADIUS_RANGE)
        a = _uniform_point(rng, *ATTACKER_RADIUS_RANGE)
        a, d = (a if xa is None else xa), (d if xd is None else xd)
        if a.distance_to(d) > min_separation:
            return a, d
    raise InvalidInitializationError(
        f"could not draw initial positions separated by more than {min_separation}"
    )


def scalar_noiseless_static_gains(strategy, n: int, seed: int) -> list[tuple[Vec2, Vec2, float]]:
    """The states and gains of `analysis.check_one_step_gains` as a loop of
    scalar `one_step_margin_change` calls, each state's pair drawn by four
    `Rng.uniform` calls per attempt."""
    rng = Rng(seed)
    params = NoiseParams(beta_b=0.0, beta_d=0.0, beta_v=0.0, nu=1.0)
    states = []
    for _ in range(n):
        while True:
            xa = _uniform_point(rng, 2.0, 50.0)
            xd = _uniform_point(rng, 0.0, xa.norm() * 0.999)
            if xa.distance_to(xd) > math.sqrt(2.0):
                break
        gain = one_step_margin_change(xa, xd, strategy, params, 0.5, rng, Vec2(0.0, 0.0))
        states.append((xa, xd, gain))
    return states


def one_block_margin_change(strategy, params: NoiseParams, k: float, n: int, rng: Rng):
    """(mean_change, stderr) of `analysis.estimate_mean_margin_change`, one
    block of draws stepped and merged at a time."""
    gen = rng.generator
    count, mean, m2 = 0, 0.0, 0.0
    while count < n:
        m = min(n - count, MARGIN_BLOCK)
        xa = lanes.from_polar(
            gen.uniform(*MARGIN_SAMPLE_ATTACKER_RADIUS, m), gen.uniform(-math.pi, math.pi, m)
        )
        xd = lanes.from_polar(
            gen.uniform(*MARGIN_SAMPLE_DEFENDER_RADIUS, m), gen.uniform(-math.pi, math.pi, m)
        )
        normals = gen.standard_normal((m, 2)).T
        delta = lanes.one_step_margin_change(
            xa, xd, strategy, params, k, normals, lanes.linear_attacker(xa)
        )
        block_mean = float(delta.mean())
        gap, total = block_mean - mean, count + m
        mean += gap * m / total
        m2 += float(((delta - block_mean) ** 2).sum()) + gap * gap * count * m / total
        count = total
    return mean, math.sqrt(m2 / (n - 1) / n)


_LIVE_ROW = "%d" + ",%.9g" * 8


def trajectory_csv_text(result) -> str:
    """`engine.trajectory_csv_text`, one appended line per record."""
    lines = [TRAJECTORY_HEADER]
    for t, xa, xd, y, margin, rel in result.trajectory:
        if y is not None:
            lines.append(_LIVE_ROW % (t, xa.x, xa.y, xd.x, xd.y, y.x, y.y, margin, rel))
            continue
        margin_cell = fmt9(margin) if margin is not None else ""
        lines.append(f"{t},{fmt9(xa.x)},{fmt9(xa.y)},{fmt9(xd.x)},{fmt9(xd.y)},,,{margin_cell},")
    return "\n".join(lines) + "\n"


def summary_json_text(result, cfg, seed: int) -> str:
    """`engine.summary_json_text`, the whole payload built and encoded on
    every call."""
    payload = {
        "outcome": result.outcome.value,
        "end_time": result.end_time,
        "seed": seed,
        "config": cfg.to_flat_dict(),
    }
    return json_text(payload)
