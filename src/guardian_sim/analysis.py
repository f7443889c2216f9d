"""Numerical experiments and validation utilities.

Five sections:
 * stability diagnostics for noisy pure pursuit (closed-form condition side
   vs a Monte Carlo alignment estimate);
 * one-step defense-margin change estimators under observation noise;
 * an independent grid-search oracle for the closest safe-reachable point;
 * the 3x3 win-rate experiment matrix with common random numbers across
   strategy pairs, deterministic for any worker count;
 * the invariant checks behind the CLI `check` subcommand.
"""
from __future__ import annotations

import concurrent.futures
import logging
import math
import os
from dataclasses import asdict, dataclass
from itertools import repeat

import numpy as np

from . import lanes
from .engine import Outcome, WorldConfig, random_point, run_episode, sample_initial_positions
from .fileio import fmt9, json_text, round9
from .geometry import Vec2, closest_safe_reachable_point, defense_margin
from .observation import NoiseParams, noise_variance, observe, reliability
from .rng import Rng, derive_seed
from .strategies import (
    DefenderStrategy,
    MATRIX_ATTACKERS,
    MATRIX_DEFENDERS,
    defender_control,
)

log = logging.getLogger(__name__)

_SQRT2 = math.sqrt(2.0)

# Sampling ranges for the margin-change estimator: attacker and defender
# radii uniform over these, angles uniform.
MARGIN_SAMPLE_ATTACKER_RADIUS = (25.0, 40.0)
MARGIN_SAMPLE_DEFENDER_RADIUS = (0.0, 15.0)
# Most noise pairs the expected-cos estimator draws at once, which bounds its
# memory whatever the sample count.
_DRAW_BLOCK = 1 << 20
# Least acceptance probability the expected-cos estimator runs at: it draws
# at most 1,000 noise pairs per accepted sample on average.
_MIN_ACCEPTANCE = 1e-3
# Most samples the margin-change estimator draws and steps at once.
MARGIN_BLOCK = 1024


# ---------------------------------------------------------------------------
# Stability of noisy pure pursuit


@dataclass(frozen=True, slots=True)
class StabilityDiagnostic:
    lhs: float
    expected_cos: float
    n_samples: int
    condition_holds: bool


def stability_condition_lhs(e: Vec2, ua: Vec2) -> float:
    """Left side of the pursuit-stability condition, (e . ua + 1) / ||e + ua||.

    Callers should supply ||ua|| <= 1.  Equals -1 for a head-on attacker,
    +1 for a fleeing one.
    """
    denom = (e + ua).norm()
    if denom <= 1e-12:
        raise ValueError("degenerate configuration: e + ua vanishes")
    return (e.dot(ua) + 1.0) / denom


def estimate_expected_cos(e: Vec2, ua: Vec2, params: NoiseParams, n: int, rng: Rng) -> float:
    """Monte Carlo estimate of the expected cosine between the noisy error
    (e + w) and the attacker-shifted error (e + ua).

    Noise draws with ||w|| >= ||e|| fall outside the regime the condition
    covers and are rejected and redrawn (count logged at debug level).
    Requires ||e|| > sqrt(2), and a draw accepted with probability
    P(||w|| < ||e||) = 1 - exp(-(||e|| / sigma)^2 / 2) of at least
    `_MIN_ACCEPTANCE`, so that the expected number of draws is bounded.
    """
    e_norm = e.norm()
    if e_norm <= _SQRT2:
        raise ValueError(f"estimator requires ||e|| > sqrt(2), got {e_norm}")
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    sigma = math.sqrt(noise_variance(e_norm, params))
    ratio = e_norm / sigma if sigma > 0.0 else math.inf
    accept = -math.expm1(-0.5 * ratio * ratio)
    if not accept >= _MIN_ACCEPTANCE:
        raise ValueError(
            f"noise too large for the error vector: beta={params.beta_d!r} and "
            f"e=({e.x!r}, {e.y!r}) give sigma={sigma:.3g}, so a noise draw is accepted "
            f"with probability {accept:.3g} < {_MIN_ACCEPTANCE}"
        )
    f = e + ua
    f_norm = f.norm()
    gen = rng.generator
    total = 0.0
    accepted = 0
    rejected = 0
    while accepted < n:
        m = min(n - accepted, _DRAW_BLOCK)
        w = gen.standard_normal((m, 2)) * sigma
        keep = np.hypot(w[:, 0], w[:, 1]) < e_norm
        wk = w[keep]
        rejected += m - wk.shape[0]
        gx = e.x + wk[:, 0]
        gy = e.y + wk[:, 1]
        g_norm = np.hypot(gx, gy)
        total += float(((gx * f.x + gy * f.y) / (g_norm * f_norm)).sum())
        accepted += wk.shape[0]
    if rejected:
        log.debug("expected-cos estimator rejected %d draw(s)", rejected)
    return total / n


def stability_diagnostic(
    e: Vec2, ua: Vec2, params: NoiseParams, n: int, rng: Rng
) -> StabilityDiagnostic:
    lhs = stability_condition_lhs(e, ua)
    expected_cos = estimate_expected_cos(e, ua, params, n, rng)
    return StabilityDiagnostic(
        lhs=lhs, expected_cos=expected_cos, n_samples=n, condition_holds=lhs <= expected_cos
    )


# ---------------------------------------------------------------------------
# One-step defense-margin change


@dataclass(frozen=True, slots=True)
class MarginChangeEstimate:
    strategy: str
    mean_change: float
    stderr: float
    n_samples: int


def one_step_margin_change(
    xa: Vec2,
    xd: Vec2,
    strategy: DefenderStrategy,
    params: NoiseParams,
    k: float,
    rng: Rng,
    attacker_motion: Vec2,
) -> float:
    """Margin after one simultaneous move minus margin before.

    The defender steers from a fresh noisy observation; the attacker applies
    the given displacement (zero for a static attacker).
    """
    before = defense_margin(xa, xd)
    y = observe(xa, xd, params, rng)
    ud = defender_control(strategy, y, xd, params, k)
    return defense_margin(xa + attacker_motion, xd + ud) - before


def estimate_mean_margin_change(
    strategy: DefenderStrategy, params: NoiseParams, k: float, n: int, rng: Rng
) -> MarginChangeEstimate:
    """Mean one-step margin change over random engagements with a
    straight-to-origin attacker.

    Attacker radius ~ U[25, 40], defender radius ~ U[0, 15], angles uniform.
    Samples are drawn in blocks of at most `MARGIN_BLOCK` (1,024), each in a
    fixed order: the block's attacker radii, attacker angles, defender radii
    and defender angles (one `Generator.uniform` call each), then an (m, 2)
    array of standard normals, row i being sample i's observation noise.
    The `lanes` kernels step each sample to the bits `one_step_margin_change`
    gives on the same draws, and raise what it raises (so a non-finite
    observation is refused, never averaged).  Block means and sums of
    squared deviations merge by Chan et al.'s pairwise update.  The block
    size bounds memory: at 1,024 a 10^4-sample run peaks within about 1 MB
    of the RSS of a one-sample-at-a-time loop; one 10^4-sample block added
    about 4 MB.
    """
    if n < 2:
        raise ValueError(f"need at least two samples for a standard error, got {n}")
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
        normals = gen.standard_normal((m, 2))
        delta = lanes.one_step_margin_change(
            xa, xd, strategy, params, k, normals, lanes.linear_attacker(xa)
        )
        block_mean = float(delta.mean())
        gap, total = block_mean - mean, count + m
        mean += gap * m / total
        m2 += float(((delta - block_mean) ** 2).sum()) + gap * gap * count * m / total
        count = total
    stderr = math.sqrt(m2 / (n - 1) / n)
    return MarginChangeEstimate(
        strategy=strategy.value, mean_change=mean, stderr=stderr, n_samples=n
    )


# ---------------------------------------------------------------------------
# Independent oracle for the closest safe-reachable point


def closest_point_grid_search(xa: Vec2, xd: Vec2, resolution: float = 1e-3) -> Vec2:
    """Brute-force argmin of distance-to-origin over the attacker's safe
    reachable half-plane.

    The half-plane is convex, so the minimiser is either the origin (when the
    origin lies inside) or a point of the boundary line; the search
    enumerates a dense grid along the boundary at the given resolution plus
    the origin candidate.  Independent of the closed-form formulas under
    test.
    """
    separation = xa.distance_to(xd)
    if separation == 0.0:
        raise ValueError("grid oracle undefined for coincident agents")
    if xa.norm() <= xd.norm():  # origin feasible: ||origin - xa|| <= ||origin - xd||
        return Vec2(0.0, 0.0)
    mid = (xa + xd) * 0.5
    normal = (xa - xd) / separation
    tangent = Vec2(-normal.y, normal.x)
    half_span = mid.norm() + 1.0
    steps = np.arange(-half_span, half_span + resolution, resolution)
    px = mid.x + steps * tangent.x
    py = mid.y + steps * tangent.y
    norms = np.hypot(px, py)
    best = int(np.argmin(norms))
    return Vec2(float(px[best]), float(py[best]))


# ---------------------------------------------------------------------------
# Win-rate experiment matrix


@dataclass(frozen=True, slots=True)
class PairResult:
    defender: str
    attacker: str
    wins: int
    losses: int
    survived: int
    trials: int
    win_rate: float


@dataclass(slots=True)
class ExperimentReport:
    pairs: list[PairResult]
    trials: int
    base_seed: int
    seeds: list[int]
    config: WorldConfig


MATRIX_PAIRS = tuple((d, a) for d in MATRIX_DEFENDERS for a in MATRIX_ATTACKERS)

_INIT_STREAM = 0
_EPISODE_STREAM = 1


def trial_seeds(base_seed: int, trial: int) -> tuple[int, int]:
    """(init_seed, episode_seed) for one trial; shared by every strategy pair
    so all pairs replay the same initial conditions and noise draws."""
    return (
        derive_seed(base_seed, trial, _INIT_STREAM),
        derive_seed(base_seed, trial, _EPISODE_STREAM),
    )


def run_matrix_trial(base_seed: int, trial: int, cfg: WorldConfig) -> tuple[int, list[Outcome]]:
    """The episode seed of one trial and its outcomes for every pair of
    `MATRIX_PAIRS`, in that order.

    Every pair starts from the same initial positions and replays the same
    episode seed (common random numbers).
    """
    init_seed, episode_seed = trial_seeds(base_seed, trial)
    xa, xd = sample_initial_positions(Rng(init_seed), min_separation=cfg.tau)
    outcomes = [
        run_episode(xa, xd, d, a, cfg, episode_seed, capture=False).outcome
        for d, a in MATRIX_PAIRS
    ]
    return episode_seed, outcomes


def run_experiment_matrix(
    cfg: WorldConfig, trials: int, base_seed: int, jobs: int = 1
) -> ExperimentReport:
    """Run every defender strategy against every attacker behavior with
    common random numbers.

    Results are identical for any `jobs` value: each trial is seeded
    independently of scheduling, and aggregation is order-free.  At most
    one worker process per CPU and per trial is started.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if jobs < 1:
        raise ValueError(f"need at least one worker, got {jobs}")
    cfg.check_sampled_starts()
    workers = min(jobs, os.cpu_count() or 1, trials)
    args = (repeat(base_seed), range(trials), repeat(cfg))
    if workers == 1:
        per_trial = list(map(run_matrix_trial, *args))
    else:
        chunk = max(1, trials // (workers * 16))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(run_matrix_trial, *args, chunksize=chunk))
    seeds, outcomes = zip(*per_trial)
    pairs = []
    for (d, a), column in zip(MATRIX_PAIRS, zip(*outcomes)):
        survived = column.count(Outcome.SURVIVED)
        losses = column.count(Outcome.BREACHED)
        wins = trials - losses  # captures, and surviving the step cap
        pairs.append(PairResult(d.value, a.value, wins, losses, survived, trials, wins / trials))
    return ExperimentReport(
        pairs=pairs, trials=trials, base_seed=base_seed, seeds=list(seeds), config=cfg
    )


def report_json_text(report: ExperimentReport) -> str:
    payload = {
        "pairs": [{**asdict(p), "win_rate": round9(p.win_rate)} for p in report.pairs],
        "trials": report.trials,
        "base_seed": report.base_seed,
        "seeds": report.seeds,
        "config": report.config.to_flat_dict(),
    }
    return json_text(payload)


def report_csv_text(report: ExperimentReport) -> str:
    """3x3 win-rate table: defender strategies as rows, attackers as columns."""
    attackers = [a.value for a in MATRIX_ATTACKERS]
    rates = {(p.defender, p.attacker): p.win_rate for p in report.pairs}
    lines = ["defender," + ",".join(attackers)]
    for d in MATRIX_DEFENDERS:
        cells = [fmt9(rates[(d.value, a)]) for a in attackers]
        lines.append(d.value + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Invariant checks (used by the CLI `check` subcommand and the tests)


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_separated_pair(rng: Rng, min_separation: float) -> tuple[Vec2, Vec2]:
    """Random (xa, xd) with ||xa|| > ||xd|| and separation > min_separation."""
    while True:
        xa = random_point(rng, 2.0, 50.0)
        xd = random_point(rng, 0.0, xa.norm() * 0.999)
        if xa.distance_to(xd) > min_separation:
            return xa, xd


def _noiseless_static_gains(strategy: DefenderStrategy, n: int, seed: int):
    """(xa, xd, one-step margin change) for `n` random states with a static
    attacker, exact observations, separation > sqrt(2) and the defender
    inside the attacker's radius."""
    rng = Rng(seed)
    params = NoiseParams(beta_b=0.0, beta_d=0.0, beta_v=0.0, nu=1.0)
    still = Vec2(0.0, 0.0)
    for _ in range(n):
        xa, xd = _random_separated_pair(rng, _SQRT2)
        yield xa, xd, one_step_margin_change(xa, xd, strategy, params, 0.5, rng, still)


def check_pursuit_margin_gain(n: int = 10_000, seed: int = 0) -> CheckResult:
    """Against a static attacker with exact observations, one pursuit step
    buys exactly +1/2 of margin whenever separation > sqrt(2) and the
    defender sits inside the attacker's radius."""
    worst = 0.0
    for _, _, delta in _noiseless_static_gains(DefenderStrategy.PURE_PURSUIT, n, seed):
        worst = max(worst, abs(delta - 0.5))
    passed = worst <= 1e-9
    detail = f"max |pp_gain - 0.5| = {worst:.3g} over {n} configs"
    return CheckResult("pursuit_margin_gain", passed, detail)


def check_margin_step_dominance(n: int = 10_000, seed: int = 0) -> CheckResult:
    """Sweeps the claimed one-step dominance bound: a margin-seeking step is
    supposed to gain at least the pursuit step's +1/2 (static attacker, exact
    observations, separation > sqrt(2), defender inside the attacker's
    radius).

    The bound is FALSE for a sizeable slice of those states, so this check is
    expected to fail; it is kept in the default suite to document the
    counterexamples rather than hide them.  In the defender's frame (defender
    at origin, attacker at (r, 0), protected center at distance rho from the
    reachability boundary, foot of the perpendicular seen under angle psi)
    the gain collapses to

        B + rho * c,   B = (r - cos psi) / (2 cos psi * D),
                       c = (r - cos psi) / D - 1 <= 0,
                       D = sqrt(r^2 - 2 r cos psi + 1),

    so for every psi != 0 a large enough current margin rho drives the gain
    below +1/2 and eventually negative: chasing the receding foot point
    rotates the reachability boundary, and the induced loss scales with rho.
    """
    worst = math.inf
    worst_config: tuple[Vec2, Vec2] | None = None
    violations = 0
    for xa, xd, delta in _noiseless_static_gains(DefenderStrategy.DEFENSE_MARGIN, n, seed):
        if delta < 0.5 - 1e-9:
            violations += 1
        if delta < worst:
            worst = delta
            worst_config = (xa, xd)
    passed = violations == 0
    assert worst_config is not None
    xa, xd = worst_config
    detail = (
        f"{violations}/{n} configs gain < 0.5, min dm_gain = {worst:.6g} at "
        f"xa=({xa.x:.6g}, {xa.y:.6g}) xd=({xd.x:.6g}, {xd.y:.6g})"
    )
    return CheckResult("margin_step_dominance", passed, detail)


def check_margin_grid_oracle(
    n: int = 200, resolution: float = 1e-3, seed: int = 1
) -> CheckResult:
    """Closed-form margin and closest point vs the brute-force grid search."""
    rng = Rng(seed)
    worst_value = 0.0
    worst_point = 0.0
    for _ in range(n):
        xa, xd = _random_separated_pair(rng, 0.1)
        oracle = closest_point_grid_search(xa, xd, resolution)
        worst_value = max(worst_value, abs(defense_margin(xa, xd) - oracle.norm()))
        worst_point = max(
            worst_point, closest_safe_reachable_point(xa, xd).distance_to(oracle)
        )
    passed = worst_value <= 2.0 * resolution and worst_point <= 2.0 * resolution
    detail = (
        f"max |margin - ||grid point||| = {worst_value:.3g}, "
        f"max point gap = {worst_point:.3g} over {n} configs"
    )
    return CheckResult("margin_grid_oracle", passed, detail)


def check_reliability_monotonicity() -> CheckResult:
    """Reliability is in [0, 1], strictly monotone in the noise scale and the
    box half-width, and exactly 1 with zero noise.

    Strictness is asserted wherever float64 can witness it.  At tiny noise
    scales with a wide box the true value sits within 1e-22 of 1 and erf
    rounds both neighbours to exactly 1.0; such saturated ties are allowed
    only when both values equal 1.0 and the noise scale is at the small end
    (sigma <= 0.2 on this grid).
    """
    y, xd = Vec2(1.0, 0.0), Vec2(0.0, 0.0)
    ks = [round(0.1 * i, 10) for i in range(1, 21)]
    sigmas = [round(0.1 * i, 10) for i in range(1, 51)]
    table = [
        [reliability(y, xd, NoiseParams(beta_b=s * s, beta_d=0.0), k) for s in sigmas]
        for k in ks
    ]
    # (sigma, earlier, later, rises): each row falls as sigma grows, each
    # column rises as k grows.
    walks = [(s, a, b, False) for row in table for s, a, b in zip(sigmas[1:], row, row[1:])]
    walks += [(s, a, b, True) for s, col in zip(sigmas, zip(*table)) for a, b in zip(col, col[1:])]
    ok = all(0.0 <= p <= 1.0 for row in table for p in row)
    saturated = 0
    for s, prev, p, rises in walks:
        if prev == 1.0 and p == 1.0:
            saturated += 1
            ok &= s <= 0.2
        else:
            ok &= p > prev if rises else p < prev
    exact_one = reliability(y, xd, NoiseParams(beta_b=0.0, beta_d=0.0), 0.5) == 1.0
    ok &= exact_one
    detail = (
        f"{len(ks)}x{len(sigmas)} grid, {saturated} saturated ties at 1.0, "
        f"zero-noise reliability == 1: {exact_one}"
    )
    return CheckResult("reliability_monotonicity", bool(ok), detail)


def run_default_checks(seed: int = 0) -> list[CheckResult]:
    """Full invariant sweep.  `margin_step_dominance` fails by design: the
    dominance bound it sweeps does not hold (see its docstring)."""
    return [
        check_pursuit_margin_gain(seed=seed),
        check_margin_step_dominance(seed=seed),
        check_margin_grid_oracle(seed=seed + 1),
        check_reliability_monotonicity(),
    ]
