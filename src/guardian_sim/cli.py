"""Command-line interface.

Subcommands:
  run     one episode -> trajectory CSV + summary JSON
  matrix  3x3 strategy/behavior win-rate experiment -> CSV table + JSON report
  check   invariant suites, stability diagnostics and the margin-change table

Settings resolve flag > config file > environment (seed only) > defaults.
The config file is a flat JSON object using the same names as the flags.
"""
from __future__ import annotations

import argparse
import enum
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .analysis import (
    estimate_mean_margin_change,
    report_csv_text,
    report_json_text,
    run_default_checks,
    run_experiment_matrix,
    stability_diagnostic,
    trial_seeds,
)
from .engine import (
    FailureCriterion,
    Outcome,
    WorldConfig,
    run_episode,
    sample_initial_positions,
    summary_json_text,
    trajectory_csv_text,
)
from .fileio import fmt9, write_text_atomic
from .geometry import Vec2
from .observation import NoiseParams
from .rng import Rng, derive_seed
from .strategies import AttackerBehavior, DefenderStrategy

SEED_ENV_VAR = "GUARDIAN_SIM_SEED"

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


@dataclass(slots=True)
class RunConfig:
    world: WorldConfig
    defender: DefenderStrategy
    attacker: AttackerBehavior
    trials: int
    seed: int
    jobs: int
    output_dir: Path
    output_format: OutputFormat
    xa: Vec2 | None
    xd: Vec2 | None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="flat JSON config file")
    common.add_argument("--seed", type=int, help=f"base seed (fallback: ${SEED_ENV_VAR}, then 0)")
    common.add_argument("--beta", type=float, help="distance-squared noise coefficient")
    common.add_argument("--k", type=float, help="reliability box half-width")
    common.add_argument("--tau", type=float, help="capture radius")
    common.add_argument("--r-safe", type=float, help="safe zone radius")
    common.add_argument("--r-interest", type=float, help="zone of interest radius")
    common.add_argument("--max-steps", type=int, help="step cap per episode")
    common.add_argument(
        "--failure-criterion",
        choices=[c.value for c in FailureCriterion],
        help="what counts as a defender loss",
    )
    common.add_argument("--out", type=Path, help="output directory")
    common.add_argument(
        "--format", choices=[f.value for f in OutputFormat], help="which files to write"
    )

    parser = argparse.ArgumentParser(
        prog="guardian-sim",
        description="Safe-zone protection game simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[common], help="run a single episode")
    run_p.add_argument("--defender", choices=[s.value for s in DefenderStrategy])
    run_p.add_argument("--attacker", choices=[b.value for b in AttackerBehavior])
    run_p.add_argument("--xa", nargs=2, type=float, metavar=("X", "Y"), help="attacker start")
    run_p.add_argument("--xd", nargs=2, type=float, metavar=("X", "Y"), help="defender start")

    matrix_p = sub.add_parser(
        "matrix", parents=[common], help="run the 3x3 win-rate experiment"
    )
    matrix_p.add_argument("--trials", type=int, help="episodes per strategy pair")
    matrix_p.add_argument("--jobs", type=int, help="worker processes")

    check_p = sub.add_parser(
        "check", parents=[common], help="run invariant checks, or print one of two reports"
    )
    check_p.add_argument(
        "--stability", action="store_true", help="print a stability diagnostic instead"
    )
    check_p.add_argument(
        "--margin-table", action="store_true", help="print the margin-change table instead"
    )
    check_p.add_argument("--e", nargs=2, type=float, metavar=("X", "Y"), help="error vector")
    check_p.add_argument("--ua", nargs=2, type=float, metavar=("X", "Y"), help="attacker control")
    check_p.add_argument("--samples", type=int, help="Monte Carlo sample count (default 100000)")
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
    try:
        return Vec2(float(value[0]), float(value[1]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{label} must be a pair of finite numbers: {exc}") from exc


def _choice(enum_cls, settings: dict, key: str):
    """The member of `enum_cls` whose value is `settings[key]`."""
    name = str(settings[key])
    try:
        return enum_cls(name)
    except ValueError:
        valid = ", ".join(m.value for m in enum_cls)
        raise ConfigError(f"unknown {key} {name!r} (valid: {valid})") from None


def _integer(value, label: str, minimum: int) -> int:
    """`value` as a whole number of at least `minimum`.  Config-file values
    skip argparse's type checks, so floats and strings arrive here too."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ValueError
        number = int(value)
    except ValueError:
        raise ConfigError(f"{label} must be an integer, got {value!r}") from None
    if number < minimum:
        raise ConfigError(f"{label} must be >= {minimum}, got {number}")
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


def resolve_config(args: argparse.Namespace) -> RunConfig:
    settings = dict(_DEFAULTS)
    if args.config is not None:
        settings.update(_load_config_file(args.config))
    for key in _DEFAULTS:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            settings[key] = flag
    if settings["seed"] is None:
        env = os.environ.get(SEED_ENV_VAR)
        settings["seed"] = 0 if env is None else _integer(env, f"${SEED_ENV_VAR}", 0)
    # Range checks that span several settings live in WorldConfig and
    # NoiseParams; their ValueError becomes a ConfigError here.
    try:
        return RunConfig(
            world=WorldConfig(
                r_interest=_number(settings["r_interest"], "r_interest"),
                r_safe=_number(settings["r_safe"], "r_safe"),
                tau=_number(settings["tau"], "tau"),
                noise=NoiseParams(
                    beta_b=_number(settings["beta_b"], "beta_b"),
                    beta_d=_number(settings["beta"], "beta"),
                    beta_v=_number(settings["beta_v"], "beta_v"),
                    nu=_number(settings["nu"], "nu"),
                ),
                k=_number(settings["k"], "k"),
                max_steps=_integer(settings["max_steps"], "max_steps", 1),
                failure_criterion=_choice(FailureCriterion, settings, "failure_criterion"),
            ),
            defender=_choice(DefenderStrategy, settings, "defender"),
            attacker=_choice(AttackerBehavior, settings, "attacker"),
            trials=_integer(settings["trials"], "trials", 1),
            seed=_integer(settings["seed"], "seed", 0),
            jobs=_integer(settings["jobs"], "jobs", 1),
            output_dir=_path(settings["out"], "out"),
            output_format=_choice(OutputFormat, settings, "format"),
            xa=_parse_point(settings["xa"], "xa"),
            xd=_parse_point(settings["xd"], "xd"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_run(cfg: RunConfig) -> int:
    init_seed, episode_seed = trial_seeds(cfg.seed, 0)
    xa, xd = cfg.xa, cfg.xd
    if xa is None or xd is None:
        cfg.world.check_sampled_starts()
        sampled = sample_initial_positions(Rng(init_seed), min_separation=cfg.world.tau)
        xa = xa if xa is not None else sampled[0]
        xd = xd if xd is not None else sampled[1]
    result = run_episode(xa, xd, cfg.defender, cfg.attacker, cfg.world, episode_seed)
    if cfg.output_format is not OutputFormat.JSON:
        write_text_atomic(cfg.output_dir / "trajectory.csv", trajectory_csv_text(result))
    if cfg.output_format is not OutputFormat.CSV:
        write_text_atomic(
            cfg.output_dir / "summary.json", summary_json_text(result, cfg.world, cfg.seed)
        )
    print(f"outcome={result.outcome.value} t={result.end_time}")
    return 0 if result.outcome in (Outcome.CAPTURED, Outcome.SURVIVED) else 1


def cmd_matrix(cfg: RunConfig) -> int:
    report = run_experiment_matrix(cfg.world, cfg.trials, cfg.seed, jobs=cfg.jobs)
    csv_text = report_csv_text(report)
    if cfg.output_format is not OutputFormat.JSON:
        write_text_atomic(cfg.output_dir / "winrates.csv", csv_text)
    if cfg.output_format is not OutputFormat.CSV:
        write_text_atomic(cfg.output_dir / "report.json", report_json_text(report))
    print(csv_text, end="")
    return 0


def cmd_check(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.margin_table and args.stability:
        raise ConfigError("--margin-table and --stability are separate reports; pick one")
    if not args.stability and (args.e is not None or args.ua is not None):
        raise ConfigError("--e and --ua are read only by --stability")
    if not (args.stability or args.margin_table) and args.samples is not None:
        raise ConfigError("--samples is read only by --stability and --margin-table")
    samples = 100_000 if args.samples is None else args.samples
    if args.margin_table:
        # Strategy i draws from stream derive_seed(seed, 40 + i).
        estimates = [
            estimate_mean_margin_change(strategy, cfg.world.noise, cfg.world.k, samples,
                                        Rng(derive_seed(cfg.seed, 40 + i)))
            for i, strategy in enumerate(DefenderStrategy)
        ]
        print(f"{'strategy':>8}  {'mean':>10}  {'stderr':>9}  n={samples}")
        for est in estimates:
            print(f"{est.strategy:>8}  {est.mean_change:>10.6f}  {est.stderr:>9.6f}")
        return 0
    if args.stability:
        e = _parse_point(args.e, "e")
        ua = _parse_point(args.ua, "ua")
        if e is None or ua is None:
            raise ConfigError("--stability requires --e X Y and --ua X Y")
        diag = stability_diagnostic(
            e, ua, cfg.world.noise, samples, Rng(derive_seed(cfg.seed, 3))
        )
        holds = "true" if diag.condition_holds else "false"
        print(
            f"lhs={fmt9(diag.lhs)} expected_cos={fmt9(diag.expected_cos)} "
            f"n={diag.n_samples} condition_holds={holds}"
        )
        return 0
    results = run_default_checks(seed=cfg.seed)
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    return 0 if all(res.passed for res in results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "matrix":
            return cmd_matrix(cfg)
        return cmd_check(cfg, args)
    except ValueError as exc:  # includes ConfigError and InvalidInitializationError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
