"""Numerical experiments and validation utilities.

Five sections:
 * the two sides of the stability condition for noisy pure pursuit (closed
   form, and a Monte Carlo alignment estimate), which `stability` compares;
 * one-step defense-margin change estimators under observation noise;
 * an independent grid-search oracle for the closest safe-reachable point;
 * the 3x3 win-rate experiment matrix with common random numbers across
   strategy pairs, run on a lock-step lane kernel and deterministic for any
   worker count;
 * the invariant checks behind the CLI `check` subcommand, whose two
   one-step claims are swept over one draw of states.
"""
from __future__ import annotations

import math
import os
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import lanes
from .engine import (
    _MAX_COORDINATE,
    FailureCriterion,
    Outcome,
    WorldConfig,
    _validate_init,
    check_noise_bound,
    polar_point,
    run_episode,
    sample_initial_positions,
)
from .fileio import fmt9, json_text, round9
from .geometry import Vec2, closest_safe_reachable_point, defense_margin
from .observation import (
    _SQRT2, NoiseParams, check_positive_finite, noise_variance, observe, reliability)
from .rng import Rng, derive_seed, derive_seeds, seed_words, word_generator
from .strategies import (
    AttackerBehavior,
    DefenderStrategy,
    MATRIX_ATTACKERS,
    MATRIX_DEFENDERS,
    defender_control,
)

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
# Most trials the matrix kernel advances together (9 episodes each), and the
# steps of standard normals it draws from a trial's generator at once.  A
# 1,000-trial matrix ran 17 % faster in blocks of 512 than of 256 (260 against
# 312 ms); a block holds 9 x 512 lanes and 512 x 32 x 6 normals (0.8 MB, and
# 1.0 MB more as a step gathers them).
MATRIX_BLOCK = 512
MATRIX_WINDOW = 32


# ---------------------------------------------------------------------------
# Stability of noisy pure pursuit


def stability_condition_lhs(e: Vec2, ua: Vec2) -> float:
    """Left side of the pursuit-stability condition, (e . ua + 1) / ||e + ua||.

    It is stated for ||ua|| <= 1, so a longer control is refused, up to a few
    ulp: a vector divided by its norm can read 1 + 2**-52.  Equals -1 for a
    head-on attacker, +1 for a fleeing one.
    """
    if not ua.norm() <= 1.0 + 4.0 * math.ulp(1.0):
        raise ValueError(f"attacker control ua=({ua.x!r}, {ua.y!r}) is longer than one unit")
    denom = (e + ua).norm()
    if denom <= 1e-12:
        raise ValueError("degenerate configuration: e + ua vanishes")
    return (e.dot(ua) + 1.0) / denom


def estimate_expected_cos(e: Vec2, ua: Vec2, params: NoiseParams, n: int, rng: Rng) -> float:
    """Monte Carlo estimate of the expected cosine between the noisy error
    (e + w) and the attacker-shifted error (e + ua).

    Noise draws with ||w|| >= ||e|| fall outside the regime the condition
    covers and are rejected and redrawn.
    Requires ||e|| > sqrt(2), and a draw accepted with probability
    P(||w|| < ||e||) = 1 - exp(-(||e|| / sigma)^2 / 2) of at least
    `_MIN_ACCEPTANCE`, so that the expected number of draws is bounded.
    Requires ||e|| < sqrt(float max / 4) too: an accepted draw has
    ||e + w|| < 2 ||e||, and ||e + ua|| <= ||e|| + 1, so their product stays
    finite.
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
    if not e_norm < _MAX_COORDINATE:
        raise ValueError(
            f"error vector e=({e.x!r}, {e.y!r}) is too long: the estimator requires "
            f"||e|| < {_MAX_COORDINATE:.3g}, got {e_norm:.3g}"
        )
    f = e + ua
    f_norm = f.norm()
    gen = rng.generator
    total = 0.0
    accepted = 0
    while accepted < n:
        m = min(n - accepted, _DRAW_BLOCK)
        w = gen.standard_normal((m, 2)) * sigma
        keep = np.hypot(w[:, 0], w[:, 1]) < e_norm
        wk = w[keep]
        gx = e.x + wk[:, 0]
        gy = e.y + wk[:, 1]
        g_norm = np.hypot(gx, gy)
        total += float(((gx * f.x + gy * f.y) / (g_norm * f_norm)).sum())
        accepted += wk.shape[0]
    return total / n


# ---------------------------------------------------------------------------
# One-step defense-margin change


class MarginChangeEstimate(NamedTuple):
    mean_change: float
    stderr: float


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
    separation = xa.distance_to(xd)
    before = defense_margin(xa, xd, separation)
    y = observe(xa, xd, params, rng, separation)
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
    The `lanes` kernels step two blocks at a time to the bits
    `one_step_margin_change` gives on the same draws.  Noise that could
    overflow an observation is refused before any draw, by `WorldConfig`'s
    bound over these radii (coordinates within 40, separations to 55), so no
    infinity is ever averaged.  Block
    means and sums of squared deviations merge, block by block, by Chan et
    al.'s pairwise update.  The block size bounds memory: a 10^4-sample run
    of each strategy peaks about 1.0 MB above the RSS it starts from (0.1 MB
    at one-sample blocks); one 10^4-sample block adds about 2.9 MB.
    """
    if n < 2:
        raise ValueError(f"need at least two samples for a standard error, got {n}")
    check_positive_finite(k, "reliability half-width k")
    top_a, top_d = MARGIN_SAMPLE_ATTACKER_RADIUS[1], MARGIN_SAMPLE_DEFENDER_RADIUS[1]
    check_noise_bound(params, top_a, top_a + top_d, f"{top_a:g} + {top_d:g}")
    gen = rng.generator
    count, mean, m2 = 0, 0.0, 0.0
    while count < n:
        sizes = [min(m, MARGIN_BLOCK) for m in (n - count, n - count - MARGIN_BLOCK) if m > 0]
        draws = [(gen.uniform(*MARGIN_SAMPLE_ATTACKER_RADIUS, m), gen.uniform(-math.pi, math.pi, m),
                  gen.uniform(*MARGIN_SAMPLE_DEFENDER_RADIUS, m), gen.uniform(-math.pi, math.pi, m),
                  gen.standard_normal((m, 2)).T) for m in sizes]
        ra, aa, rd, ad, normals = map(np.hstack, zip(*draws))  # the normals as (2, n)
        xa, xd = lanes.from_polar(ra, aa), lanes.from_polar(rd, ad)
        changes = lanes.one_step_margin_change(
            xa, xd, strategy, params, k, normals, lanes.linear_attacker(xa))
        for delta in np.split(changes, sizes[:-1]):  # each block in turn
            m = len(delta)
            block_mean = float(delta.mean())
            gap, total = block_mean - mean, count + m
            mean += gap * m / total
            m2 += float(((delta - block_mean) ** 2).sum()) + gap * gap * count * m / total
            count = total
    return MarginChangeEstimate(mean_change=mean, stderr=math.sqrt(m2 / (n - 1) / n))


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


class PairResult(NamedTuple):
    defender: str
    attacker: str
    wins: int
    losses: int
    survived: int
    trials: int
    win_rate: float


class ExperimentReport(NamedTuple):
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
    `MATRIX_PAIRS`, in that order, from the scalar engine.

    Every pair starts from the same initial positions and replays the same
    episode seed (common random numbers).  The matrix runs `run_matrix_block`
    instead; this is the reference it is tested against.
    """
    init_seed, episode_seed = trial_seeds(base_seed, trial)
    xa, xd = sample_initial_positions(Rng(init_seed), min_separation=cfg.tau)
    outcomes = [run_episode(xa, xd, d, a, cfg, episode_seed).outcome for d, a in MATRIX_PAIRS]
    return episode_seed, outcomes


def _block_starts(base_seed: int, first: int, count: int, cfg: WorldConfig):
    """Episode seeds, starts (xa, xd) and the episode seeds' `seed_words`
    of trials `first`, ..., `first + count - 1`, as `run_matrix_trial` gets
    the seed and the start.

    `derive_seeds` gives the seeds of the trials below 2**32, whose index is
    one entropy word, at once, and `trial_seeds` those of the rest.  Each
    trial's start is `sample_initial_positions` on its init stream, built
    from the init seed's words.
    """
    arrayed = max(0, min(count, 2**32 - first))
    keys = np.arange(first, first + arrayed)[:, None], np.array([_INIT_STREAM, _EPISODE_STREAM])
    seeds = derive_seeds(base_seed, *keys).tolist() + [
        trial_seeds(base_seed, trial) for trial in range(first + arrayed, first + count)]
    words = seed_words(seeds)
    starts = []
    for init_words in words[:, 0]:
        xa, xd = sample_initial_positions(word_generator(init_words), min_separation=cfg.tau)
        _validate_init(xa, xd, AttackerBehavior.SPIRAL, cfg)  # its checks include every pair's
        starts.append((xa.x, xa.y, xd.x, xd.y))
    return [episode_seed for _, episode_seed in seeds], starts, words[:, 1]


# Outcome codes of the matrix kernel; 0 is a live lane.
_CODES = (None, Outcome.CAPTURED, Outcome.BREACHED, Outcome.SURVIVED)
_SPIRAL_PAIR = np.array([a is AttackerBehavior.SPIRAL for _, a in MATRIX_PAIRS])
_INTELLIGENT_PAIR = np.array([a is AttackerBehavior.INTELLIGENT for _, a in MATRIX_PAIRS])
# First dm pair and first adm pair: `MATRIX_PAIRS` is defender-major, pp first.
_DM_ADM_PAIRS = np.array([1, 2]) * len(MATRIX_ATTACKERS)


def _end_codes(t: int, xa, xd, separation, attacker_norm, cfg: WorldConfig):
    """`engine.episode_outcome` lane by lane, as indices into `_CODES`."""
    captured = separation <= cfg.tau
    if cfg.failure_criterion is FailureCriterion.POSITION_BREACH:
        breached = attacker_norm < cfg.r_safe
    else:
        # A coincident lane is captured and its margin never read.
        breached = lanes.defense_margin(xa, xd, np.where(captured, 1.0, separation)) <= cfg.r_safe
    return np.where(captured, 1, np.where(breached, 2, 3 if t >= cfg.max_steps else 0))


def run_matrix_block(
    base_seed: int, first: int, count: int, cfg: WorldConfig
) -> list[tuple[int, list[Outcome]]]:
    """`run_matrix_trial` for trials `first`, ..., `first + count - 1`, from a
    lock-step lane kernel: every pair of every trial is a lane, all lanes
    take step t together, and a lane is dropped when its episode ends.

    The block's seeds and starts come from `_block_starts`, which checks
    every start as the scalar engine does.  Each step follows `engine.step`
    on the pieces of the `lanes` twins, with one `lanes.hypot` call per
    round: ||y - xd|| and the intelligent attacker's ||away||; the dm and adm
    headings (one run of lanes: pairs are defender-major), the spiral's, on
    one lead lane per trial, and the intelligent one; adm's blend; after both
    moves, the separation and attacker radius, which the tests of
    `engine.episode_outcome` and the next step share.  The spiral attacker
    moves alike against every defender, so its lead's move is gathered to
    the trial's other live spiral lanes.  A step of a pair draws c standard
    normals (4 against the intelligent attacker, the second two being the
    attacker's, else 2), so at step t a lane reads normals [c t, c t + c) of
    its trial's episode stream.  Each trial has one generator per c, seeded
    from its episode seed's `seed_words` as the scalar episode's `Rng` is,
    which draws `MATRIX_WINDOW` steps of normals at a time while a lane of
    that c lives.  One generator could not serve both c: it would have to
    hold every normal between 2t and 4t, a gap that grows with t.  So memory
    is set by the block and window sizes, not by the step cap.
    """
    window = min(MATRIX_WINDOW, cfg.max_steps)  # no lane steps at t >= max_steps
    seeds, starts, words = _block_starts(base_seed, first, count, cfg)
    generators = {c: [word_generator(w) for w in words] for c in (2, 4)}
    windows = {c: np.zeros((count, window, c)) for c in (2, 4)}
    # The windows again, so that a step gathers each lane's normals as one
    # contiguous (4, N) array: rows the defender's two, then the attacker's;
    # columns by c, trial and step.
    normals = np.zeros((4, 2, count, window))

    # Lanes are pair-major, an order that dropping lanes keeps, so each
    # defender's lanes are a contiguous run.
    n_pairs = len(MATRIX_PAIRS)
    trial = np.tile(np.arange(count), n_pairs)
    pair = np.repeat(np.arange(n_pairs), count)
    offset = (trial + count * _INTELLIGENT_PAIR[pair]) * window  # a lane's window in `normals`
    xa, xd = np.tile(np.array(starts).T, n_pairs).reshape(2, 2, -1)
    codes = np.zeros((n_pairs, count), dtype=np.int8)
    noise, k = cfg.noise, cfg.k
    t = 0
    while True:
        separation, radius = lanes.hypots(xa - xd, xa)
        ended = _end_codes(t, xa, xd, separation, radius, cfg)
        done = ended != 0
        dropped = np.count_nonzero(done)
        if dropped:
            codes[pair[done], trial[done]] = ended[done]
            live = (~done).nonzero()[0]
            if not len(live):
                break
            trial, pair, offset, separation, radius = (
                a.take(live) for a in (trial, pair, offset, separation, radius))
            xa, xd = xa.take(live, axis=1), xd.take(live, axis=1)
        if dropped or not t:  # the groups change only when lanes drop
            n, (dm, adm) = len(pair), np.searchsorted(pair, _DM_ADM_PAIRS).tolist()
            intelligent = _INTELLIGENT_PAIR[pair]
            spiral, on = _SPIRAL_PAIR[pair].nonzero()[0], intelligent.nonzero()[0]
            # A trial's spiral lanes start alike and move by a law of the
            # attacker's position only, so they stay alike: one of them, any,
            # leads the trial, and its move is gathered to all of them.
            of_spiral, lead = trial[spiral], np.empty(count, dtype=np.intp)
            lead[of_spiral] = spiral
            led = np.flatnonzero(np.bincount(of_spiral, minlength=count))
            leads, gather = lead[led], np.searchsorted(led, of_spiral)
        row = t % window
        if row == 0:
            for c, of_c in ((2, ~intelligent), (4, intelligent)):
                for i in np.flatnonzero(np.bincount(trial[of_c], minlength=count)).tolist():
                    generators[c][i].standard_normal(out=windows[c][i])
            normals[:2, 0], normals[:, 1] = (windows[c].transpose(2, 0, 1) for c in (2, 4))
        drawn = normals.reshape(4, -1).take(offset + row, axis=1)
        y = lanes.observe(xa, noise, drawn[:2], separation)
        # Rounds 1 and 2; a group with no lanes skips its pieces.
        sight, none = y - xd, np.empty((2, 0))
        away = none if not len(on) else lanes.intelligent_away(
            xa.take(on, 1), xd.take(on, 1), noise, drawn[2:].take(on, 1), separation[on])
        distance, away_norm = lanes.hypots(sight, away)
        ua = lanes.linear_attacker(xa, radius)
        origin_on = ua.take(on, axis=1)
        headings = (
            lanes.dm_heading(y[:, dm:], xd[:, dm:], distance[dm:]) if dm < n else none,
            lanes.spiral_heading(xa.take(leads, axis=1), radius[leads]) if len(leads) else none,
            lanes.intelligent_heading(away, origin_on, away_norm) if len(on) else none)
        norms = lanes.hypots(*headings)
        pp_dir, dm_dir = lanes._unit(sight, n=distance), lanes._unit(headings[0], n=norms[0])
        ud = np.concatenate((pp_dir[:, :dm], dm_dir), axis=1)
        # Row by row: a row's scatter is numpy's fast path, a (2, N) one is not.
        ua[0][spiral], ua[1][spiral] = lanes._unit(headings[1], n=norms[1]).take(gather, axis=1)
        ua[0][on], ua[1][on] = lanes._unit(headings[2], lanes._EPS_BLEND, origin_on, norms[2])
        if adm < n:  # round 3, on the last run of lanes
            adm_dm = dm_dir[:, adm - dm:]
            p = lanes.reliability(noise, k, distance[adm:])
            blend = lanes.adm_heading(pp_dir[:, adm:], adm_dm, p)
            ud[:, adm:] = lanes._unit(blend, lanes._EPS_BLEND, adm_dm, lanes.hypot(*blend))
        # Positions stay within r_interest + max_steps of the origin, so the
        # moves need no finiteness check.
        xa, xd = xa + ua, xd + ud
        t += 1
    return [(seed, [_CODES[c] for c in column]) for seed, column in zip(seeds, codes.T.tolist())]


def run_experiment_matrix(
    cfg: WorldConfig, trials: int, base_seed: int, jobs: int = 1
) -> ExperimentReport:
    """Run every defender strategy against every attacker behavior with
    common random numbers.

    Trials run in blocks of at most `MATRIX_BLOCK` on `run_matrix_block`.
    Results are identical for any `jobs` value and block size: each trial
    is seeded independently of scheduling, and aggregation is order-free.
    Blocks are spread over min(jobs, CPUs, blocks) worker processes, counting
    only the CPUs this process may run on; with one, no pool is started.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if jobs < 1:
        raise ValueError(f"need at least one worker, got {jobs}")
    cfg.check_sampled_starts()
    firsts = range(0, trials, MATRIX_BLOCK)
    counts = [min(MATRIX_BLOCK, trials - first) for first in firsts]
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(jobs, cpus, len(counts))
    args = (repeat(base_seed), firsts, counts, repeat(cfg))
    if workers == 1:
        blocks = list(map(run_matrix_block, *args))
    else:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool starts
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(run_matrix_block, *args))
    seeds, outcomes = zip(*(per_trial for block in blocks for per_trial in block))
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
        "pairs": [{**p._asdict(), "win_rate": round9(p.win_rate)} for p in report.pairs],
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


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _random_separated_pair(rng: Rng, min_separation: float) -> tuple[Vec2, Vec2]:
    """Random (xa, xd) with ||xa|| > ||xd|| and separation > min_separation,
    from one `random(4)` per attempt: xa over radii [2, 50), xd over [0, 0.999 ||xa||)."""
    while True:
        ar, aa, dr, da = rng.random(4).tolist()
        xa = polar_point(ar, aa, 2.0, 50.0)
        xd = polar_point(dr, da, 0.0, xa.norm() * 0.999)
        if xa.distance_to(xd) > min_separation:
            return xa, xd


def check_one_step_gains(n: int = 10_000, seed: int = 0) -> tuple[CheckResult, CheckResult]:
    """`pursuit_margin_gain` and `margin_step_dominance`, swept over the same
    `n` random states: a static attacker, exact observations, separation >
    sqrt(2) and the defender inside the attacker's radius.

    One pursuit step buys exactly +1/2 of margin there.  A margin-seeking
    step is supposed to gain at least that much, but this bound is FALSE for
    a sizeable slice of those states, so the second check is expected to
    fail; it is kept in the default suite to document the counterexamples
    rather than hide them.  In the defender's frame (defender at origin,
    attacker at (r, 0), protected center at distance rho from the
    reachability boundary, foot of the perpendicular seen under angle psi)
    the gain collapses to

        B + rho * c,   B = (r - cos psi) / (2 cos psi * D),
                       c = (r - cos psi) / D - 1 <= 0,
                       D = sqrt(r^2 - 2 r cos psi + 1),

    so for every psi != 0 a large enough current margin rho drives the gain
    below +1/2 and eventually negative: chasing the receding foot point
    rotates the reachability boundary, and the induced loss scales with rho.

    Each state's pair and then its observation's two normals are drawn once,
    in the stream order of a loop over `one_step_margin_change`;
    `lanes.one_step_margin_change` steps all of them for each strategy.
    """
    rng, rows = Rng(seed), []
    for _ in range(n):
        xa, xd = _random_separated_pair(rng, _SQRT2)
        rows.append((xa.x, xa.y, xd.x, xd.y, *rng.normal_pair(1.0)))
    xa, xd, normals = np.array(rows).reshape(n, 3, 2).transpose(1, 2, 0)
    exact = NoiseParams(beta_b=0.0, beta_d=0.0, beta_v=0.0, nu=1.0)
    pp, dm = (
        lanes.one_step_margin_change(xa, xd, strategy, exact, 0.5, normals, np.zeros((2, n)))
        for strategy in (DefenderStrategy.PURE_PURSUIT, DefenderStrategy.DEFENSE_MARGIN))
    worst = float(np.abs(pp - 0.5).max(initial=0.0))
    violations = int((dm < 0.5 - 1e-9).sum())
    i = int(np.argmin(dm))  # the first state of least gain
    return (
        CheckResult("pursuit_margin_gain", worst <= 1e-9,
                    f"max |pp_gain - 0.5| = {worst:.3g} over {n} configs"),
        CheckResult(
            "margin_step_dominance", violations == 0,
            f"{violations}/{n} configs gain < 0.5, min dm_gain = {float(dm[i]):.6g} at "
            f"xa=({float(xa[0, i]):.6g}, {float(xa[1, i]):.6g}) "
            f"xd=({float(xd[0, i]):.6g}, {float(xd[1, i]):.6g})"),
    )


def check_margin_grid_oracle(n: int = 200, seed: int = 1) -> CheckResult:
    """Closed-form margin and closest point vs the brute-force grid search,
    each within twice the grid's spacing."""
    rng, spacing, worst_value, worst_point = Rng(seed), 1e-3, 0.0, 0.0
    for _ in range(n):
        xa, xd = _random_separated_pair(rng, 0.1)
        oracle = closest_point_grid_search(xa, xd, spacing)
        worst_value = max(worst_value, abs(defense_margin(xa, xd) - oracle.norm()))
        worst_point = max(worst_point, closest_safe_reachable_point(xa, xd).distance_to(oracle))
    passed = worst_value <= 2 * spacing and worst_point <= 2 * spacing
    return CheckResult("margin_grid_oracle", passed,
                       f"max |margin - ||grid point||| = {worst_value:.3g}, "
                       f"max point gap = {worst_point:.3g} over {n} configs")


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
    table = np.array([[reliability(y, xd, NoiseParams(beta_b=s * s, beta_d=0.0), k)
                       for s in sigmas] for k in ks])
    sigma = np.broadcast_to(sigmas, table.shape)
    ok = bool(((table >= 0.0) & (table <= 1.0)).all())
    saturated = 0
    # (lower, higher, sigma of the step): each row falls as sigma grows, each
    # column rises as k grows.
    for lo, hi, at in ((table[:, 1:], table[:, :-1], sigma[:, 1:]),
                       (table[:-1], table[1:], sigma[1:])):
        tie = (lo == 1.0) & (hi == 1.0)
        saturated += int(np.count_nonzero(tie))
        ok &= bool(np.where(tie, at <= 0.2, hi > lo).all())
    exact_one = reliability(y, xd, NoiseParams(beta_b=0.0, beta_d=0.0), 0.5) == 1.0
    return CheckResult("reliability_monotonicity", bool(ok and exact_one),
                       f"{len(ks)}x{len(sigmas)} grid, {saturated} saturated ties at 1.0, "
                       f"zero-noise reliability == 1: {exact_one}")


def run_default_checks(seed: int = 0) -> list[CheckResult]:
    """Full invariant sweep.  `margin_step_dominance` fails by design: the
    dominance bound it sweeps does not hold (see `check_one_step_gains`)."""
    return [
        *check_one_step_gains(seed=seed),
        check_margin_grid_oracle(seed=seed + 1),
        check_reliability_monotonicity(),
    ]
