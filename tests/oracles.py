"""Independent numerical oracles for the test suite.

Everything here is deliberately written against the raw math, not the
package's closed forms: Gauss-Legendre quadrature for Gaussian masses and
expectations.  Tests compare package output against these.  The closest
safe-reachable point has its one oracle in the package, the dense line grid
`analysis.closest_point_grid_search` that `check` runs.
The lane attackers are the exception: they compose the `lanes` pieces into
whole controls, as the matrix kernel does, for the twin tests to check
against the scalar attackers.  So are the three loops at the end: the
start sampler and the `check` sweep as they were written before each took
its uniforms four at a time and the sweep moved onto the lanes, and the
margin-change estimator as it was written before it stepped two blocks at
a time.  So are `run`'s two renderers, as they were written before the
config block was rendered once per world and the CSV rows were streamed,
the matrix block as the scalar engine plays it, in the kernel's codes, and
the scalar engine itself as it stood on `Vec2`s, before its laws took plain
pairs and its records went flat.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import integrate

from guardian_sim import lanes
from guardian_sim.analysis import (
    MARGIN_BLOCK, MARGIN_SAMPLE_ATTACKER_RADIUS, MARGIN_SAMPLE_DEFENDER_RADIUS,
    one_step_margin_change, run_matrix_trial)
from guardian_sim.engine import (
    ATTACKER_RADIUS_RANGE, DEFENDER_RADIUS_RANGE, POSITION_BREACH, TRAJECTORY_HEADER,
    InvalidInitializationError, Outcome, _validate_init)
from guardian_sim.fileio import fmt9, json_text
from guardian_sim.geometry import CoincidentAgentsError, Vec2
from guardian_sim.observation import NoiseParams, noise_variance, reliability
from guardian_sim.rng import NormalWindow, Rng
from guardian_sim.strategies import (
    _EPS_BLEND, _EPS_DIRECTION, AttackerBehavior, DefenderStrategy)

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
    heading = lanes.spiral_heading(xa, n)
    return lanes._unit(heading, lanes.hypot(*heading))


def lane_intelligent_attacker(xa, xd, params, normals, distance, n):
    """The scalar intelligent attacker (`strategies.attacker_control`) over
    lanes at the separation `distance` and radius `n`, with the attacker's
    normals as in `lanes.observe`, composed as `analysis.run_matrix_block`
    composes it."""
    to_origin = lanes.linear_attacker(xa, n)
    away = lanes.intelligent_away(xa, xd, params, normals, distance)
    heading = lanes.intelligent_heading(away, to_origin, lanes.hypot(*away))
    return lanes._unit(heading, lanes.hypot(*heading), lanes._EPS_BLEND, to_origin)


# The matrix kernel's outcome codes, by index; 0 is a live lane.
OUTCOME_CODES = (None, Outcome.CAPTURED, Outcome.BREACHED, Outcome.SURVIVED)


def matrix_block_reference(base_seed: int, first: int, count: int, cfg):
    """`analysis.run_matrix_block`'s codes for trials `first`, ...,
    `first + count - 1`, from `run_matrix_trial` on the scalar engine: a
    (9, count) int8 array of `OUTCOME_CODES` indices."""
    trials = [run_matrix_trial(base_seed, trial, cfg) for trial in range(first, first + count)]
    codes = [[OUTCOME_CODES.index(outcome) for outcome in outcomes] for outcomes in trials]
    return np.array(codes, dtype=np.int8).T


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
        gain = one_step_margin_change(
            (xa.x, xa.y), (xd.x, xd.y), strategy, params, 0.5, rng, (0.0, 0.0))
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
            xa, xd, strategy, params, k, normals, lanes.linear_attacker(xa, lanes.hypot(*xa)),
            lanes.hypot(*(xa - xd))
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
    for t, xa_x, xa_y, xd_x, xd_y, y_x, y_y, margin, rel in result.trajectory:
        if y_x is not None:
            lines.append(_LIVE_ROW % (t, xa_x, xa_y, xd_x, xd_y, y_x, y_y, margin, rel))
            continue
        margin_cell = fmt9(margin) if margin is not None else ""
        lines.append(f"{t},{fmt9(xa_x)},{fmt9(xa_y)},{fmt9(xd_x)},{fmt9(xd_y)},,,{margin_cell},")
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


# The scalar engine as it stood on `Vec2`s: its laws, `step` and `run_episode`,
# with a record holding the three points as `Vec2`s.  The engine's pin test
# plays every episode on both and compares them bit for bit.
_ORIGIN = Vec2(0.0, 0.0)


def _vec2_margin(xa: Vec2, xd: Vec2, what: str, distance: float | None):
    separation = xa.distance_to(xd) if distance is None else distance
    if separation == 0.0:
        raise CoincidentAgentsError(f"{what} undefined for coincident agents")
    squares = xa.x * xa.x + xa.y * xa.y, xd.x * xd.x + xd.y * xd.y
    return (squares[0] - squares[1]) / (2.0 * separation), separation


def vec2_defense_margin(xa: Vec2, xd: Vec2, distance: float | None = None) -> float:
    return _vec2_margin(xa, xd, "defense margin", distance)[0]


def vec2_closest_safe_reachable_point(xa: Vec2, xd: Vec2, distance: float) -> Vec2:
    rho, separation = _vec2_margin(xa, xd, "safe reachable set", distance)
    if rho <= 0.0:
        return _ORIGIN
    return Vec2((xa.x - xd.x) / separation * rho, (xa.y - xd.y) / separation * rho)


def vec2_observe(xa: Vec2, params: NoiseParams, rng, distance: float) -> Vec2:
    sigma = math.sqrt(noise_variance(distance, params))
    wx, wy = rng.normal_pair(sigma)
    return Vec2(xa.x + wx, xa.y + wy)


def _vec2_unit(x: float, y: float, eps: float, n: float | None = None) -> Vec2:
    n = math.hypot(x, y) if n is None else n
    if n < eps:
        return _ORIGIN
    return Vec2(x / n, y / n)


def vec2_defender_control(strategy, y: Vec2, xd: Vec2, params, k, distance, p=None) -> Vec2:
    pp, dm, adm = DefenderStrategy
    if strategy is adm and p is None:
        p = reliability(params, k, distance)
    if strategy is not dm:
        pp_dir = _vec2_unit(y.x - xd.x, y.y - xd.y, _EPS_DIRECTION, distance)
        if strategy is pp:
            return pp_dir
    target = vec2_closest_safe_reachable_point(y, xd, distance)
    dm_dir = _vec2_unit(target.x - xd.x, target.y - xd.y, _EPS_DIRECTION)
    if strategy is dm:
        return dm_dir
    q = 1.0 - p
    bx, by = pp_dir.x * p + dm_dir.x * q, pp_dir.y * p + dm_dir.y * q
    n = math.hypot(bx, by)
    if n < _EPS_BLEND:
        return dm_dir
    return Vec2(bx / n, by / n)


def vec2_attacker_control(behavior, xa: Vec2, xd: Vec2, params, rng, distance, n) -> Vec2:
    linear, spiral, _, static = AttackerBehavior
    if behavior is static:
        return _ORIGIN
    if behavior is spiral:
        angle, inner = math.atan2(xa.y, xa.x) - 1.0 / n, n - 1.0
        return _vec2_unit(inner * math.cos(angle) - xa.x, inner * math.sin(angle) - xa.y,
                          _EPS_DIRECTION)
    to_origin = Vec2(-xa.x / n, -xa.y / n)
    if behavior is linear:
        return to_origin
    observed_xd = vec2_observe(xd, params, rng, distance)
    ax, ay = xa.x - observed_xd.x, xa.y - observed_xd.y
    dist = math.hypot(ax, ay)
    if dist < _EPS_DIRECTION:
        return to_origin
    scale = 1.0 / (dist * dist)
    bx, by = ax * scale + to_origin.x, ay * scale + to_origin.y
    norm = math.hypot(bx, by)
    if norm < _EPS_BLEND:
        return to_origin
    return Vec2(bx / norm, by / norm)


def vec2_episode_outcome(t, xa: Vec2, xd: Vec2, cfg, separation, radius):
    if separation <= cfg.tau:
        return Outcome.CAPTURED
    if cfg.failure_criterion is POSITION_BREACH:
        if radius < cfg.r_safe:
            return Outcome.BREACHED
    elif vec2_defense_margin(xa, xd, separation) <= cfg.r_safe:
        return Outcome.BREACHED
    if t >= cfg.max_steps:
        return Outcome.SURVIVED
    return None


class Vec2Record(NamedTuple):
    t: int
    xa: Vec2
    xd: Vec2
    y: Vec2 | None
    margin: float | None
    reliability: float | None


@dataclass(slots=True)
class Vec2State:
    t: int
    xa: Vec2
    xd: Vec2
    rng: object


def vec2_step(state: Vec2State, defender, attacker, cfg, separation, radius) -> Vec2Record:
    xa, xd, rng, noise, k = state.xa, state.xd, state.rng, cfg.noise, cfg.k
    y = vec2_observe(xa, noise, rng, separation)
    distance = y.distance_to(xd)
    p = reliability(noise, k, distance)
    ud = vec2_defender_control(defender, y, xd, noise, k, distance, p)
    ua = vec2_attacker_control(attacker, xa, xd, noise, rng, separation, radius)
    record = Vec2Record(state.t, xa, xd, y, vec2_defense_margin(xa, xd, separation), p)
    state.t += 1
    state.xa = xa + ua
    state.xd = xd + ud
    return record


def vec2_run_episode(init_xa: Vec2, init_xd: Vec2, defender, attacker, cfg, seed: int):
    """(outcome, end time, records) of `engine.run_episode` as it stood on `Vec2`s."""
    _validate_init(init_xa, init_xd, attacker, cfg)
    state = Vec2State(t=0, xa=init_xa, xd=init_xd, rng=NormalWindow(Rng(seed)))
    records = []
    while True:
        xa, xd = state.xa, state.xd
        separation, radius = xa.distance_to(xd), xa.norm()
        outcome = vec2_episode_outcome(state.t, xa, xd, cfg, separation, radius)
        if outcome is not None:
            break
        records.append(vec2_step(state, defender, attacker, cfg, separation, radius))
    margin = vec2_defense_margin(xa, xd, separation) if separation != 0.0 else None
    records.append(Vec2Record(state.t, xa, xd, None, margin, None))
    return outcome, state.t, records
