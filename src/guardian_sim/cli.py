"""Command-line interface.

Subcommands:
  run           one episode -> trajectory CSV + summary JSON
  matrix        3x3 strategy/behavior win-rate experiment -> CSV table + JSON report
  check         invariant suites
  stability     stability diagnostic for one error vector and attacker control
  margin-table  one-step margin-change table of the three defender strategies

Each command accepts only the flags it reads.  Settings resolve flag > config
file > environment (seed only) > defaults.  The config file is a flat JSON
object using the same names as the flags; every command takes the same keys
and checks only the values it reads.
"""
from __future__ import annotations

import argparse
import enum
import json
import os
import re
import sys
from pathlib import Path

from .analysis import (
    MAX_TRIALS,
    estimate_expected_cos,
    estimate_mean_margin_change,
    report_csv_text,
    report_json_text,
    run_default_checks,
    run_experiment_matrix,
    stability_condition_lhs,
    trial_seeds,
)
from .engine import (
    TRAJECTORY_HEADER,
    FailureCriterion,
    Outcome,
    WorldConfig,
    _validate_init,
    run_episode,
    sample_initial_positions,
    summary_json_text,
    trajectory_row,
)
from .fileio import fmt9, open_atomic, write_text_atomic
from .geometry import Vec2
from .observation import NoiseParams
from .rng import Rng, derive_seed
from .strategies import AttackerBehavior, DefenderStrategy

SEED_ENV_VAR = "GUARDIAN_SIM_SEED"

# Every command reads an argument that matches this as a value, not a flag:
# a negative number, in e-notation too, or `-inf`, `-infinity` or `-nan` in
# any case, as `float` reads them.  argparse's own pattern before Python 3.13
# misses these, and takes the `-3e-5` of `--xd 0 -3e-5` for a flag.
_NEGATIVE_NUMBER = re.compile(
    r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

_DEFAULTS: dict = {
    "defender": "pp",
    "attacker": "linear",
    "trials": 1000,
    "seed": None,  # resolved to env var, then 0
    "jobs": 1,
    "out": ".",
    "format": "both",
    "xa": None,
    "xd": None,
    **WorldConfig().to_flat_dict(),
}


class ConfigError(ValueError):
    pass


class OutputFormat(enum.Enum):
    CSV = "csv"
    JSON = "json"
    BOTH = "both"


def build_parser() -> argparse.ArgumentParser:
    # Each parent adds flags to the one before it; a command takes the
    # smallest parent that holds every flag it reads.
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--config", type=Path, help="flat JSON config file")
    base.add_argument("--seed", type=int, help=f"base seed (fallback: ${SEED_ENV_VAR}, then 0)")
    noise = argparse.ArgumentParser(add_help=False, parents=[base])
    noise.add_argument("--beta", type=float, help="distance-squared noise coefficient")
    noise_k = argparse.ArgumentParser(add_help=False, parents=[noise])
    noise_k.add_argument("--k", type=float, help="reliability box half-width")
    world = argparse.ArgumentParser(add_help=False, parents=[noise_k])
    world.add_argument("--tau", type=float, help="capture radius")
    world.add_argument("--r-safe", type=float, help="safe zone radius")
    world.add_argument("--r-interest", type=float, help="zone of interest radius")
    world.add_argument("--max-steps", type=int, help="step cap per episode")
    world.add_argument(
        "--failure-criterion",
        choices=[c.value for c in FailureCriterion],
        help="what counts as a defender loss",
    )
    world.add_argument("--out", type=Path, help="output directory")
    world.add_argument(
        "--format", choices=[f.value for f in OutputFormat], help="which files to write"
    )
    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument("--samples", type=int, default=100_000,
                         help="Monte Carlo sample count (default %(default)s)")

    parser = argparse.ArgumentParser(
        prog="guardian-sim",
        description="Safe-zone protection game simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, parents, summary):
        cmd = sub.add_parser(name, parents=parents, help=summary)
        cmd.set_defaults(func=func)
        cmd._negative_number_matcher = _NEGATIVE_NUMBER
        return cmd

    run_p = command("run", cmd_run, [world], "run a single episode")
    run_p.add_argument("--defender", choices=[s.value for s in DefenderStrategy])
    run_p.add_argument("--attacker", choices=[b.value for b in AttackerBehavior])
    run_p.add_argument("--xa", nargs=2, type=float, metavar=("X", "Y"), help="attacker start")
    run_p.add_argument("--xd", nargs=2, type=float, metavar=("X", "Y"), help="defender start")
    matrix_p = command("matrix", cmd_matrix, [world], "run the 3x3 win-rate experiment")
    matrix_p.add_argument("--trials", type=int, help="episodes per strategy pair")
    matrix_p.add_argument("--jobs", type=int, help="worker processes")
    command("check", cmd_check, [base], "run the invariant checks")
    stability_p = command("stability", cmd_stability, [noise, samples],
                          "print a stability diagnostic")
    for flag, what in (("--e", "error vector"), ("--ua", "attacker control")):
        stability_p.add_argument(flag, nargs=2, type=float, metavar=("X", "Y"), required=True,
                                 help=what)
    command("margin-table", cmd_margin_table, [noise_k, samples], "print the margin-change table")
    return parser


def _load_config_file(path: Path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return data


def _parse_point(value, label: str) -> Vec2 | None:
    if value is None:
        return None
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{label} must be a pair of numbers")
    x, y = (_number(component, label) for component in value)
    try:
        return Vec2(x, y)
    except ValueError as exc:
        raise ConfigError(f"{label} must be a pair of finite numbers: {exc}") from exc


def _choice(enum_cls, settings: dict, key: str):
    """The member of `enum_cls` whose value is `settings[key]`."""
    name = str(settings[key])
    try:
        return enum_cls(name)
    except ValueError:
        valid = ", ".join(m.value for m in enum_cls)
        raise ConfigError(f"unknown {key} {name!r} (valid: {valid})") from None


def _integer(value, label: str, minimum: int, maximum: float = float("inf")) -> int:
    """`value` as a whole number from `minimum` to `maximum`.  Config-file values
    skip argparse's type checks, so floats and strings arrive here too."""
    whole = int(value) if isinstance(value, float) and value.is_integer() else value
    try:
        if isinstance(whole, bool) or not isinstance(whole, (int, str)):
            raise ValueError
        number = int(whole)
    except ValueError:
        raise ConfigError(f"{label} must be an integer, got {value!r}") from None
    if number < minimum:
        raise ConfigError(f"{label} must be >= {minimum}, got {number}")
    if number > maximum:  # named as given: 1e308 as a whole number has 309 digits
        raise ConfigError(f"{label} must be <= {maximum}, got {value!r}")
    return number


def _number(value, key: str) -> float:
    """`value` as a float.  Like `_integer`, refuses what a config file can
    hold but a number setting cannot: null, lists, objects and booleans."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ValueError
        return float(value)
    except (ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _path(value, key: str) -> Path:
    if not isinstance(value, (str, os.PathLike)):
        raise ConfigError(f"{key} must be a path string, got {value!r}")
    return Path(value)


def resolve_settings(args: argparse.Namespace) -> dict:
    """Every setting by name, unchecked, with the seed's environment
    fallback applied."""
    settings = dict(_DEFAULTS)
    if args.config is not None:
        settings.update(_load_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    if settings["seed"] is None:
        env = os.environ.get(SEED_ENV_VAR)
        settings["seed"] = 0 if env is None else _integer(env, f"${SEED_ENV_VAR}", 0)
    return settings


def _seed(settings: dict) -> int:
    return _integer(settings["seed"], "seed", 0)


def _noise(settings: dict) -> NoiseParams:
    return NoiseParams(
        beta_b=_number(settings["beta_b"], "beta_b"),
        beta_d=_number(settings["beta"], "beta"),
        beta_v=_number(settings["beta_v"], "beta_v"),
        nu=_number(settings["nu"], "nu"),
    )


def _world(settings: dict) -> WorldConfig:
    """The world of `run` and `matrix`, from its ten keys."""
    # Range checks that span several settings live in WorldConfig and
    # NoiseParams; their ValueError becomes a ConfigError here.
    try:
        return WorldConfig(
            r_interest=_number(settings["r_interest"], "r_interest"),
            r_safe=_number(settings["r_safe"], "r_safe"),
            tau=_number(settings["tau"], "tau"),
            noise=_noise(settings),
            k=_number(settings["k"], "k"),
            max_steps=_integer(settings["max_steps"], "max_steps", 1),
            failure_criterion=_choice(FailureCriterion, settings, "failure_criterion"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _output(settings: dict) -> tuple[Path, OutputFormat]:
    return _path(settings["out"], "out"), _choice(OutputFormat, settings, "format")


def cmd_run(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    world = _world(settings)
    defender = _choice(DefenderStrategy, settings, "defender")
    attacker = _choice(AttackerBehavior, settings, "attacker")
    seed, (out, fmt) = _seed(settings), _output(settings)
    xa, xd = _parse_point(settings["xa"], "xa"), _parse_point(settings["xd"], "xd")
    init_seed, episode_seed = trial_seeds(seed, 0)
    if xa is None or xd is None:
        world.check_sampled_starts(xa, xd)
        xa, xd = sample_initial_positions(Rng(init_seed), world.tau, xa, xd)
    # Refused starts leave no trace, not even the output directory that
    # `open_atomic` would make.
    _validate_init(xa, xd, attacker, world)
    episode = (xa, xd, defender, attacker, world, episode_seed)
    # The rows stream to the CSV as the steps make them, and none is kept.
    if fmt is OutputFormat.JSON:
        result = run_episode(*episode, sink=lambda record: None)
    else:
        with open_atomic(out / "trajectory.csv") as fh:
            fh.write(TRAJECTORY_HEADER + "\n")
            result = run_episode(*episode, sink=lambda record: fh.write(trajectory_row(record)))
    if fmt is not OutputFormat.CSV:
        write_text_atomic(out / "summary.json", summary_json_text(result, world, seed))
    print(f"outcome={result.outcome.value} t={result.end_time}")
    return 0 if result.outcome in (Outcome.CAPTURED, Outcome.SURVIVED) else 1


def cmd_matrix(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    world, trials = _world(settings), _integer(settings["trials"], "trials", 1, MAX_TRIALS)
    seed, jobs = _seed(settings), _integer(settings["jobs"], "jobs", 1)
    out, fmt = _output(settings)
    report = run_experiment_matrix(world, trials, seed, jobs=jobs)
    csv_text = report_csv_text(report)
    if fmt is not OutputFormat.JSON:
        write_text_atomic(out / "winrates.csv", csv_text)
    if fmt is not OutputFormat.CSV:
        write_text_atomic(out / "report.json", report_json_text(report))
    print(csv_text, end="")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    results = run_default_checks(seed=_seed(resolve_settings(args)))
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    return 0 if all(res.passed for res in results) else 1


def cmd_stability(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    e, ua, noise = _parse_point(args.e, "e"), _parse_point(args.ua, "ua"), _noise(settings)
    rng = Rng(derive_seed(_seed(settings), 3))
    lhs = stability_condition_lhs(e, ua)
    expected_cos = estimate_expected_cos(e, ua, noise, args.samples, rng)
    print(
        f"lhs={fmt9(lhs)} expected_cos={fmt9(expected_cos)} n={args.samples} "
        f"condition_holds={'true' if lhs <= expected_cos else 'false'}"
    )
    return 0


def cmd_margin_table(args: argparse.Namespace) -> int:
    settings = resolve_settings(args)
    noise, k, seed = _noise(settings), _number(settings["k"], "k"), _seed(settings)
    # Strategy i draws from stream derive_seed(seed, 40 + i).
    estimates = [
        estimate_mean_margin_change(strategy, noise, k, args.samples,
                                    Rng(derive_seed(seed, 40 + i)))
        for i, strategy in enumerate(DefenderStrategy)
    ]
    print(f"{'strategy':>8}  {'mean':>10}  {'stderr':>9}  n={args.samples}")
    for strategy, est in zip(DefenderStrategy, estimates):
        print(f"{strategy.value:>8}  {est.mean_change:>10.6f}  {est.stderr:>9.6f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # includes ConfigError and unwritable outputs
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
