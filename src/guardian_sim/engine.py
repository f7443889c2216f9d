"""Episode engine: simultaneous-move game loop, termination rules, exports.

Per step, from the state at time t: the defender draws its noisy observation
y_t, both agents pick controls from time-t information, and both moves apply
at once.  Termination is checked after the move — capture first (ties go to
the defender), then the configured failure criterion, then the step cap
(surviving the cap counts as a defender win).
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .fileio import fmt9, json_text, round9
from .geometry import Pair, Vec2, defense_margin
from .observation import NoiseParams, check_positive_finite, noise_variance, observe, reliability
from .rng import NormalStream, NormalWindow, Rng
from .strategies import (
    _EPS_DIRECTION, AttackerBehavior, DefenderStrategy, attacker_control, defender_control)

# Initial-condition distributions: radii uniform over these ranges, angles
# uniform over [-pi, pi).
DEFENDER_RADIUS_RANGE = (0.0, 20.0)
ATTACKER_RADIUS_RANGE = (45.0, 50.0)
_MAX_INIT_REDRAWS = 1000
# Largest tau run with both starts sampled: all 1,000 attempts fail to clear
# it with chance 1.7e-13 (8.4e-9 at 65, 0.73 at 69; by quadrature).
_MAX_SAMPLED_TAU = 64.0
# numpy's ziggurat normal sampler returns no draw beyond about 13.7 in
# magnitude: its tail draw is bounded by the smallest nonzero uniform.
_MAX_NORMAL_DRAW = 14.0
# Largest observed coordinate a world may produce: the sum of two squares
# (a squared norm) then stays finite with a factor of 2 to spare.
_MAX_COORDINATE = math.sqrt(sys.float_info.max / 4.0)
# No episode runs this many steps (at a microsecond a step, 30 years), so a
# larger step cap moves no agent further; capping it keeps the reach finite.
_STEP_HORIZON = 10**15


class InvalidInitializationError(ValueError):
    """Initial positions violate the episode preconditions."""


class FailureCriterion(enum.Enum):
    POSITION_BREACH = "position_breach"  # attacker entered the safe zone
    MARGIN_BREACH = "margin_breach"      # defense margin fell to the safe radius


POSITION_BREACH = FailureCriterion.POSITION_BREACH  # read once, not on every step


class Outcome(enum.Enum):
    CAPTURED = "Captured"
    BREACHED = "Breached"
    SURVIVED = "Survived"


def check_noise_bound(noise: NoiseParams, reach: float, separation: float, span: str) -> None:
    """Refuse noise that could overflow a squared observed coordinate, for true
    coordinates within `reach` and agents at most `separation` (`span`) apart:
    the bound reach + 14 sigma(separation) < sqrt(float max / 4) of `WorldConfig`."""
    sigma = math.sqrt(noise_variance(separation, noise))
    if not reach + _MAX_NORMAL_DRAW * sigma < _MAX_COORDINATE:
        raise ValueError(
            f"noise too large: beta={noise.beta_d!r} gives sigma={sigma:.3g} at separation "
            f"{span} = {separation:.6g}, so an observed coordinate could overflow when squared")


def clearing_chance(given: float, tau: float, low: float, high: float) -> float:
    """P(||a - b|| > tau) for a point b at radius `given` and a point a at a
    radius r uniform over [low, high) and a uniform angle.

    Given r, the separation exceeds tau where the cosine of the angle
    between the points is below c = (given^2 + r^2 - tau^2) / (2 given r),
    which a uniform angle is with chance 1 - arccos(c) / pi, c clipped to
    [-1, 1]; where `given` is 0 the separation is r.  The mean over r is
    taken by the midpoint rule on 10,000 points, within 5e-5 of the
    quadrature at the sampled radius ranges.  c is formed so that it
    overflows only to an infinity of its own sign while given and tau are
    below 9e307."""
    r = low + (high - low) * (np.arange(10_000) + 0.5) / 10_000
    if given == 0.0:
        return float(np.mean(r > tau))
    with np.errstate(all="ignore"):
        c = ((given - tau) * (given + tau) + r * r) / given / (2.0 * r)
    return float(np.mean(1.0 - np.arccos(np.clip(c, -1.0, 1.0)) / math.pi))


@dataclass(frozen=True, slots=True)
class WorldConfig:
    """The world settings of an episode, checked on construction.

    `tau` and `k` must be positive and finite.  Besides the range checks, the
    noise is bounded so that no observation can overflow.  Both agents start
    inside the zone of interest and move at most one unit per step, so every
    true coordinate stays within reach = r_interest + max_steps (a cap above
    10**15 steps, which no run reaches, counts as 10**15) and the separation
    within 2 * reach.  An observed coordinate is a true one plus sigma times a
    normal draw, and no draw exceeds 14 in magnitude.  The settings are
    refused unless reach + 14 * sigma(2 * reach) < sqrt(float max / 4), about
    6.7e153; then the squared norm of any observation is finite.  With the
    other defaults this caps beta near 5.7e296.  A reach that breaks the bound
    on its own, noise or none, is refused with r_interest named.

    Each object also holds the `config` block of `summary_json_text`, rendered
    once on construction from this object's own settings.  Equal worlds can
    render differently (a noise term of -0.0 against 0.0, a step cap of
    1000.0 against 1000), so the rendering is kept per object, outside
    equality and the hash.
    """

    r_interest: float = 50.0  # play stays inside this origin-centered disk
    r_safe: float = 10.0  # the origin-centered disk the defender protects
    tau: float = 2.0
    noise: NoiseParams = field(default_factory=NoiseParams)
    k: float = 0.5
    max_steps: int = 10_000
    failure_criterion: FailureCriterion = FailureCriterion.POSITION_BREACH
    _summary_config: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not 0.0 < self.r_safe < self.r_interest:
            raise ValueError(
                f"need 0 < r_safe < r_interest, got {self.r_safe}, {self.r_interest}"
            )
        check_positive_finite(self.tau, "capture radius tau")
        check_positive_finite(self.k, "reliability half-width k")
        if not self.max_steps >= 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        reach = self.r_interest + min(self.max_steps, _STEP_HORIZON)
        if not reach < _MAX_COORDINATE:  # infinite r_interest too
            raise ValueError(
                f"r_interest={self.r_interest!r} too large: a coordinate within r_interest + "
                f"max_steps = {reach:.6g} could overflow when squared"
            )
        check_noise_bound(self.noise, reach, 2.0 * reach, "2 * (r_interest + max_steps)")
        # `json_text` of the flat dict, one indent level deeper, as it sits
        # inside the summary.
        block = json_text(self.to_flat_dict())[:-1].replace("\n", "\n  ")
        object.__setattr__(self, "_summary_config", block)

    def check_sampled_starts(self, xa: Vec2 | None = None, xd: Vec2 | None = None) -> None:
        """Refuse a world that `sample_initial_positions` can draw an invalid
        start for, so that whether it runs never depends on the seed.  A
        given `xa` or `xd` takes the place of its draw, as it does there, so
        only the sampled starts are checked.  With one start given, tau is
        refused where all 1,000 attempts fail to clear it with chance 1e-12
        or more, the standard of `_MAX_SAMPLED_TAU`."""
        attacker, defender = xa is None, xd is None
        low, high = ATTACKER_RADIUS_RANGE
        if attacker and self.r_safe > low:
            raise InvalidInitializationError(
                f"r_safe={self.r_safe} exceeds {low}, the least sampled attacker radius"
            )
        if attacker and self.r_interest < high:
            raise InvalidInitializationError(f"r_interest={self.r_interest} is below {high}, "
                                             f"the top of the sampled attacker radii")
        top = DEFENDER_RADIUS_RANGE[1]
        if defender and self.r_interest < top:
            raise InvalidInitializationError(f"r_interest={self.r_interest} is below {top}, "
                                             f"the top of the sampled defender radii")
        if attacker and defender and self.tau > _MAX_SAMPLED_TAU:
            raise InvalidInitializationError(
                f"tau={self.tau} exceeds {_MAX_SAMPLED_TAU:g}: sampled starts, at most "
                f"{top + high:g} apart, clear a larger tau too rarely to start at every seed")
        if attacker != defender:
            given, sampled, radii = ((xd, "attacker", ATTACKER_RADIUS_RANGE) if attacker
                                     else (xa, "defender", DEFENDER_RADIUS_RANGE))
            p = clearing_chance(given.norm(), self.tau, *radii)
            if not (1.0 - p) ** _MAX_INIT_REDRAWS < 1e-12:  # NaN too
                raise InvalidInitializationError(
                    f"tau={self.tau} with the start given at radius {given.norm():g}: a "
                    f"sampled {sampled} start clears it with chance {p:.3g}, too rarely to "
                    f"start at every seed")

    def to_flat_dict(self) -> dict:
        return {
            "r_interest": round9(self.r_interest),
            "r_safe": round9(self.r_safe),
            "tau": round9(self.tau),
            "beta": round9(self.noise.beta_d),
            "beta_b": round9(self.noise.beta_b),
            "beta_v": round9(self.noise.beta_v),
            "nu": round9(self.noise.nu),
            "k": round9(self.k),
            "max_steps": self.max_steps,
            "failure_criterion": self.failure_criterion.value,
        }


# A step's record: the state at time t plus the observation drawn at time t,
# flat, in `TRAJECTORY_HEADER`'s column order (t, xa_x, xa_y, xd_x, xd_y, y_x,
# y_y, margin, reliability), so that a live row renders with one `%`.  The
# terminal record has no observation and no reliability (none is drawn after
# termination), and no margin in the corner case where capture lands the
# agents exactly on top of each other.  A plain tuple: one is built per step,
# and a named tuple's constructor call cost about 5 % of the `trajectories` pass.
StepRecord = tuple[int, float, float, float, float, float | None, float | None, float | None,
                   float | None]


class EpisodeResult(NamedTuple):
    outcome: Outcome
    end_time: int
    trajectory: list[StepRecord]


def episode_outcome(
    t: int, xa: Pair, xd: Pair, cfg: WorldConfig, separation: float, radius: float
) -> Outcome | None:
    """Termination state at time t, or None if the episode is still live.

    Capture fires when the agents are within tau of each other, inclusively.
    Position breach means strictly inside the safe zone: an attacker sitting
    exactly on the boundary circle has not entered it (a static attacker
    placed there must still be run down and captured).  The margin criterion
    fires as soon as the margin falls *to* the safe radius, inclusively.
    `separation` and `radius` are ||xa - xd|| and ||xa||.
    """
    if separation <= cfg.tau:
        return Outcome.CAPTURED
    if cfg.failure_criterion is POSITION_BREACH:
        if radius < cfg.r_safe:
            return Outcome.BREACHED
    elif defense_margin(xa, xd, separation) <= cfg.r_safe:
        return Outcome.BREACHED
    if t >= cfg.max_steps:
        return Outcome.SURVIVED
    return None


def step(
    t: int, defender: DefenderStrategy, attacker: AttackerBehavior, cfg: WorldConfig, xa: Pair,
    xd: Pair, rng: NormalStream, separation: float, radius: float,
) -> tuple[StepRecord, Pair, Pair]:
    """Advance one simultaneous move of a live episode from its state at time
    `t`, and return the flat record for time t with the next `xa` and `xd`.
    The laws take and return `Pair`s, and no `Vec2` is built.

    `separation` and `radius` are ||xa - xd|| and ||xa||, from the
    termination test, and ||y - xd|| is computed once, so `adm` gets the
    step's one reliability.  As in `lanes`, each law is handed the norms its
    caller holds and checks no bound enforced before the first draw.

    RNG order is fixed: the defender's observation draws first, then any
    attacker-side noise.  `rng` is anything with `normal_pair`, such as an
    `Rng`, or the `NormalWindow` through which `run_episode` reads one; both
    draws come from it.
    """
    noise, k = cfg.noise, cfg.k
    y = observe(xa, noise, rng, separation)
    (ax, ay), (dx, dy), (yx, yy) = xa, xd, y
    distance = math.hypot(yx - dx, yy - dy)
    p = reliability(noise, k, distance)
    udx, udy = defender_control(defender, y, xd, noise, k, distance, p)
    uax, uay = attacker_control(attacker, xa, xd, noise, rng, separation, radius)
    record = (t, ax, ay, dx, dy, yx, yy, defense_margin(xa, xd, separation), p)
    return record, (ax + uax, ay + uay), (dx + udx, dy + udy)


def _validate_init(
    init_xa: Vec2, init_xd: Vec2, attacker: AttackerBehavior, cfg: WorldConfig
) -> None:
    r = cfg.r_interest
    if init_xa.norm() > r or init_xd.norm() > r:
        raise InvalidInitializationError(
            f"initial positions must lie inside the zone of interest (radius {r})"
        )
    if init_xa.norm() < cfg.r_safe:
        raise InvalidInitializationError("attacker may not start inside the safe zone")
    if init_xa.distance_to(init_xd) <= cfg.tau:
        raise InvalidInitializationError(
            f"initial separation must exceed the capture radius tau={cfg.tau}"
        )
    check_attacker_domain(attacker, cfg)


def check_attacker_domain(attacker: AttackerBehavior, cfg: WorldConfig) -> None:
    # A live attacker keeps ||xa|| >= r_safe under either failure criterion
    # (the margin never exceeds ||xa||), so r_safe > 1 keeps the spiral
    # attacker inside its domain (radius > 1) for the whole episode, and
    # r_safe >= 1e-12 keeps the linear control, which the intelligent
    # attacker calls first, inside its domain (radius >= 1e-12).
    if attacker is AttackerBehavior.SPIRAL and cfg.r_safe <= 1.0:
        raise InvalidInitializationError(
            f"the spiral attacker needs r_safe > 1, got r_safe={cfg.r_safe}"
        )
    homing = attacker in (AttackerBehavior.LINEAR, AttackerBehavior.INTELLIGENT)
    if homing and cfg.r_safe < _EPS_DIRECTION:
        raise InvalidInitializationError(
            f"the {attacker.value} attacker needs r_safe >= {_EPS_DIRECTION}, got {cfg.r_safe}"
        )


def run_episode(
    init_xa: Vec2,
    init_xd: Vec2,
    defender: DefenderStrategy,
    attacker: AttackerBehavior,
    cfg: WorldConfig,
    seed: int,
    *,
    sink: Callable[[StepRecord], object] | None = None,
) -> EpisodeResult:
    """Play one episode to termination from fixed initial positions, given
    as `Vec2`s and played as `Pair`s.

    Fully deterministic in (arguments, seed): the trajectory, outcome and end
    time come out bitwise identical on every run.  The time, the positions
    and the noise stream are locals, and `step` returns the next positions.
    The separation and the attacker's radius are computed once per state,
    for its termination test and for the step from it.  The normals come
    from `Rng(seed)` a window at a time, in the order per-draw calls give.

    Without a `sink`, the result holds the trajectory: one record per step,
    then the terminal record.  With one, each record goes to `sink` as it is
    made, the terminal one included, and none is kept: the result's
    trajectory is empty, so memory does not grow with the episode's length.
    """
    _validate_init(init_xa, init_xd, attacker, cfg)
    xa, xd, rng = (init_xa.x, init_xa.y), (init_xd.x, init_xd.y), NormalWindow(Rng(seed))
    records: list[StepRecord] = []
    emit = records.append if sink is None else sink
    t = 0
    while True:
        (ax, ay), (dx, dy) = xa, xd
        separation, radius = math.hypot(ax - dx, ay - dy), math.hypot(ax, ay)
        outcome = episode_outcome(t, xa, xd, cfg, separation, radius)
        if outcome is not None:
            break
        record, xa, xd = step(t, defender, attacker, cfg, xa, xd, rng, separation, radius)
        emit(record)
        t += 1
    # A coincident capture leaves the terminal margin undefined.
    margin = defense_margin(xa, xd, separation) if separation != 0.0 else None
    emit((t, ax, ay, dx, dy, None, None, margin, None))
    return EpisodeResult(outcome=outcome, end_time=t, trajectory=records)


def polar_point(u: float, v: float, low: float, high: float) -> Vec2:
    """The point at a radius uniform over [low, high) and an angle uniform
    over [-pi, pi), from two `random()` draws u and v, mapped as
    `Generator.uniform(low, high)` maps a draw: low + (high - low) u."""
    return Vec2.from_polar(low + (high - low) * u, -math.pi + 2.0 * math.pi * v)


def sample_initial_positions(
    rng: Rng | np.random.Generator, min_separation: float = 0.0, xa: Vec2 | None = None,
    xd: Vec2 | None = None,
) -> tuple[Vec2, Vec2]:
    """Random initial (attacker, defender) positions; a given `xa` or `xd`
    takes the place of its draw.

    Each attempt maps one `rng.random(4)`, in a fixed order: defender radius,
    defender angle, attacker radius, attacker angle, both points every time.
    A pair whose separation is <= min_separation is rejected and redrawn.
    """
    for _ in range(_MAX_INIT_REDRAWS):
        dr, da, ar, aa = rng.random(4).tolist()
        d = polar_point(dr, da, *DEFENDER_RADIUS_RANGE) if xd is None else xd
        a = polar_point(ar, aa, *ATTACKER_RADIUS_RANGE) if xa is None else xa
        if a.distance_to(d) > min_separation:
            return a, d
    raise InvalidInitializationError(
        f"could not draw initial positions separated by more than {min_separation}"
    )


TRAJECTORY_HEADER = "t,xa_x,xa_y,xd_x,xd_y,y_x,y_y,margin,reliability"
# A live row: every cell filled, each float as `fmt9` renders it.
_LIVE_ROW = "%d" + ",%.9g" * 8 + "\n"


def trajectory_row(record: StepRecord) -> str:
    """One line of `trajectory_csv_text`, its newline included.  The
    terminal record leaves the observation and reliability cells empty, and
    the margin cell too after a coincident capture."""
    if record[5] is not None:  # y_x, None only on the terminal record
        return _LIVE_ROW % record
    t, xa_x, xa_y, xd_x, xd_y, _, _, margin, _ = record
    margin_cell = fmt9(margin) if margin is not None else ""
    return f"{t},{fmt9(xa_x)},{fmt9(xa_y)},{fmt9(xd_x)},{fmt9(xd_y)},,,{margin_cell},\n"


def trajectory_csv_text(result: EpisodeResult) -> str:
    """The trajectory as CSV: the header, then one `trajectory_row` a record."""
    return TRAJECTORY_HEADER + "\n" + "".join([trajectory_row(r) for r in result.trajectory])


# `json_text` of the summary payload, with the world's rendered block as its
# `config`.
_SUMMARY = '{\n  "outcome": "%s",\n  "end_time": %s,\n  "seed": %s,\n  "config": %s\n}\n'


def summary_json_text(result: EpisodeResult, cfg: WorldConfig, seed: int) -> str:
    """`json_text` of {outcome, end_time, seed, config: cfg.to_flat_dict()},
    byte for byte.  The config block is the one `cfg` rendered when it was
    built, so a call formats only the outcome, the end time and the seed."""
    return _SUMMARY % (result.outcome.value, result.end_time, seed, cfg._summary_config)
