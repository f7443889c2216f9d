"""Episode engine: simultaneous-move game loop, termination rules, exports.

Per step, from the state at time t: the defender draws its noisy observation
y_t, both agents pick controls from time-t information, and both moves apply
at once.  Termination is checked after the move — capture first (ties go to
the defender), then the configured failure criterion, then the step cap
(surviving the cap counts as a defender win).
"""
from __future__ import annotations

import enum
import logging
import math
import sys
from dataclasses import dataclass, field

from .fileio import fmt9, json_text, round9
from .geometry import Vec2, defense_margin, is_captured
from .observation import NoiseParams, noise_variance, observe, reliability
from .rng import Rng
from .strategies import AttackerBehavior, DefenderStrategy, attacker_control, defender_control

log = logging.getLogger(__name__)

# Initial-condition distributions: radii uniform over these ranges, angles
# uniform over [-pi, pi).
DEFENDER_RADIUS_RANGE = (0.0, 20.0)
ATTACKER_RADIUS_RANGE = (45.0, 50.0)
_MAX_INIT_REDRAWS = 1000
# numpy's ziggurat normal sampler returns no draw beyond about 13.7 in
# magnitude: its tail draw is bounded by the smallest nonzero uniform.
_MAX_NORMAL_DRAW = 14.0
# Largest observed coordinate a world may produce: the sum of two squares
# (`Vec2.norm_sq`) then stays finite with a factor of 2 to spare.
_MAX_COORDINATE = math.sqrt(sys.float_info.max / 4.0)
# No episode runs this many steps (at a microsecond a step, 30 years), so a
# larger step cap moves no agent further; capping it keeps the reach finite.
_STEP_HORIZON = 10**15


class InvalidInitializationError(ValueError):
    """Initial positions violate the episode preconditions."""


class FailureCriterion(enum.Enum):
    POSITION_BREACH = "position_breach"  # attacker entered the safe zone
    MARGIN_BREACH = "margin_breach"      # defense margin fell to the safe radius


class Outcome(enum.Enum):
    CAPTURED = "Captured"
    BREACHED = "Breached"
    SURVIVED = "Survived"


@dataclass(frozen=True, slots=True)
class WorldConfig:
    """The world settings of an episode, checked on construction.

    Besides the range checks, the noise is bounded so that no observation
    can overflow.  Both agents start inside the zone of interest and move at
    most one unit per step, so every true coordinate stays within
    reach = r_interest + max_steps (a cap above 10**15 steps, which no run
    reaches, counts as 10**15) and the separation within 2 * reach.  An
    observed coordinate is a true one plus sigma times a normal draw, and no
    draw exceeds 14 in magnitude.  The settings are refused unless
    reach + 14 * sigma(2 * reach) < sqrt(float max / 4), about 6.7e153; then
    the squared norm of any observation is finite.  With the other defaults
    this caps beta near 5.7e296.
    """

    r_interest: float = 50.0  # play stays inside this origin-centered disk
    r_safe: float = 10.0  # the origin-centered disk the defender protects
    tau: float = 2.0
    noise: NoiseParams = field(default_factory=NoiseParams)
    k: float = 0.5
    max_steps: int = 10_000
    failure_criterion: FailureCriterion = FailureCriterion.POSITION_BREACH

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not 0.0 < self.r_safe < self.r_interest:
            raise ValueError(
                f"need 0 < r_safe < r_interest, got {self.r_safe}, {self.r_interest}"
            )
        if not self.tau > 0.0:
            raise ValueError(f"capture radius tau must be positive, got {self.tau}")
        if not self.k > 0.0:
            raise ValueError(f"reliability half-width k must be positive, got {self.k}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        reach = self.r_interest + min(self.max_steps, _STEP_HORIZON)
        sigma = math.sqrt(noise_variance(2.0 * reach, self.noise))
        if not reach + _MAX_NORMAL_DRAW * sigma < _MAX_COORDINATE:
            raise ValueError(
                f"noise too large: beta={self.noise.beta_d!r} gives sigma={sigma:.3g} at "
                f"separation 2 * (r_interest + max_steps) = {2.0 * reach:.6g}, so an "
                f"observed coordinate could overflow when squared"
            )

    def check_sampled_starts(self) -> None:
        """Refuse a world that `sample_initial_positions` can draw an invalid
        start for, so that whether it runs never depends on the seed."""
        low, high = ATTACKER_RADIUS_RANGE
        if self.r_safe > low:
            raise InvalidInitializationError(
                f"r_safe={self.r_safe} exceeds {low}, the least sampled attacker radius"
            )
        if self.r_interest < high:
            raise InvalidInitializationError(
                f"r_interest={self.r_interest} is below {high}, "
                f"the top of the sampled attacker radii"
            )

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


@dataclass(slots=True)
class EpisodeState:
    t: int
    xa: Vec2
    xd: Vec2
    rng: Rng


@dataclass(frozen=True, slots=True)
class StepRecord:
    """State at time t plus the observation drawn at time t.

    The terminal row of a trajectory has no observation (none is drawn after
    termination), and no margin in the corner case where capture lands the
    agents exactly on top of each other.
    """

    t: int
    xa: Vec2
    xd: Vec2
    y: Vec2 | None
    margin: float | None
    reliability: float | None


@dataclass(slots=True)
class EpisodeResult:
    outcome: Outcome
    end_time: int
    trajectory: list[StepRecord]


def episode_outcome(t: int, xa: Vec2, xd: Vec2, cfg: WorldConfig) -> Outcome | None:
    """Termination state at time t, or None if the episode is still live.

    Position breach means strictly inside the safe zone: an attacker sitting
    exactly on the boundary circle has not entered it (a static attacker
    placed there must still be run down and captured).  The margin criterion
    fires as soon as the margin falls *to* the safe radius, inclusively.
    """
    if is_captured(xa, xd, cfg.tau):
        return Outcome.CAPTURED
    if cfg.failure_criterion is FailureCriterion.POSITION_BREACH:
        if xa.norm() < cfg.r_safe:
            return Outcome.BREACHED
    else:
        if defense_margin(xa, xd) <= cfg.r_safe:
            return Outcome.BREACHED
    if t >= cfg.max_steps:
        return Outcome.SURVIVED
    return None


def step(
    state: EpisodeState,
    defender: DefenderStrategy,
    attacker: AttackerBehavior,
    cfg: WorldConfig,
    capture: bool = True,
) -> tuple[EpisodeState, StepRecord | None]:
    """Advance one simultaneous move of a live episode.

    `state` is updated in place and returned, with the record for the
    pre-move time.  With `capture` off no record is built (None is
    returned in its place) and neither the margin nor, except for `adm`, the
    reliability is computed; the moves and draws are the same either way.
    `adm` gets the one reliability the step computes, so it is never
    computed twice.

    RNG order is fixed: the defender's observation draws first, then any
    attacker-side noise.
    """
    xa, xd, rng, noise, k = state.xa, state.xd, state.rng, cfg.noise, cfg.k
    y = observe(xa, xd, noise, rng)
    if capture or defender is DefenderStrategy.ADJUSTED_DEFENSE_MARGIN:
        p = reliability(y, xd, noise, k)
    else:
        p = None
    ud = defender_control(defender, y, xd, noise, k, p)
    ua = attacker_control(attacker, xa, xd, noise, rng)
    record = None
    if capture:
        record = StepRecord(
            t=state.t, xa=xa, xd=xd, y=y, margin=defense_margin(xa, xd), reliability=p
        )
    state.t += 1
    state.xa = xa + ua
    state.xd = xd + ud
    return state, record


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
    # A live attacker keeps ||xa|| >= r_safe under either failure criterion
    # (the margin never exceeds ||xa||), so r_safe > 1 keeps the spiral
    # attacker inside its domain (radius > 1) for the whole episode.
    if attacker is AttackerBehavior.SPIRAL and cfg.r_safe <= 1.0:
        raise InvalidInitializationError(
            f"the spiral attacker needs r_safe > 1, got r_safe={cfg.r_safe}"
        )


def _terminal_record(state: EpisodeState) -> StepRecord:
    if state.xa.distance_to(state.xd) == 0.0:
        margin: float | None = None  # coincident capture: margin undefined
    else:
        margin = defense_margin(state.xa, state.xd)
    return StepRecord(t=state.t, xa=state.xa, xd=state.xd, y=None, margin=margin, reliability=None)


def run_episode(
    init_xa: Vec2,
    init_xd: Vec2,
    defender: DefenderStrategy,
    attacker: AttackerBehavior,
    cfg: WorldConfig,
    seed: int,
    capture: bool = True,
) -> EpisodeResult:
    """Play one episode to termination from fixed initial positions.

    Fully deterministic in (arguments, seed): the trajectory, outcome and end
    time come out bitwise identical on every run.  With `capture` off the
    trajectory is left empty; the outcome and end time are the same, since
    every step runs the same body (see `step`).
    """
    _validate_init(init_xa, init_xd, attacker, cfg)
    state = EpisodeState(t=0, xa=init_xa, xd=init_xd, rng=Rng(seed))
    records: list[StepRecord] = []
    outcome = episode_outcome(state.t, state.xa, state.xd, cfg)
    while outcome is None:
        _, record = step(state, defender, attacker, cfg, capture)
        if capture:
            records.append(record)
        outcome = episode_outcome(state.t, state.xa, state.xd, cfg)
    if capture:
        records.append(_terminal_record(state))
    return EpisodeResult(outcome=outcome, end_time=state.t, trajectory=records)


def random_point(rng: Rng, low: float, high: float) -> Vec2:
    """Point at a radius uniform over [low, high) and an angle uniform over
    [-pi, pi), drawn in that order."""
    return Vec2.from_polar(rng.uniform(low, high), rng.uniform(-math.pi, math.pi))


def sample_initial_positions(rng: Rng, min_separation: float = 0.0) -> tuple[Vec2, Vec2]:
    """Random initial (attacker, defender) positions.

    Draw order is fixed for reproducibility: defender radius, defender angle,
    attacker radius, attacker angle.  Draws with separation <= min_separation
    are rejected and redrawn.
    """
    for attempt in range(_MAX_INIT_REDRAWS):
        xd = random_point(rng, *DEFENDER_RADIUS_RANGE)
        xa = random_point(rng, *ATTACKER_RADIUS_RANGE)
        if xa.distance_to(xd) > min_separation:
            if attempt:
                log.debug("initial positions redrawn %d time(s)", attempt)
            return xa, xd
    raise InvalidInitializationError(
        f"could not draw initial positions separated by more than {min_separation}"
    )


TRAJECTORY_HEADER = "t,xa_x,xa_y,xd_x,xd_y,y_x,y_y,margin,reliability"


def trajectory_csv_text(result: EpisodeResult) -> str:
    lines = [TRAJECTORY_HEADER]
    for rec in result.trajectory:
        y_x = fmt9(rec.y.x) if rec.y is not None else ""
        y_y = fmt9(rec.y.y) if rec.y is not None else ""
        margin = fmt9(rec.margin) if rec.margin is not None else ""
        rel = fmt9(rec.reliability) if rec.reliability is not None else ""
        lines.append(
            f"{rec.t},{fmt9(rec.xa.x)},{fmt9(rec.xa.y)},{fmt9(rec.xd.x)},{fmt9(rec.xd.y)},"
            f"{y_x},{y_y},{margin},{rel}"
        )
    return "\n".join(lines) + "\n"


def summary_json_text(result: EpisodeResult, cfg: WorldConfig, seed: int) -> str:
    payload = {
        "outcome": result.outcome.value,
        "end_time": result.end_time,
        "seed": seed,
        "config": cfg.to_flat_dict(),
    }
    return json_text(payload)
