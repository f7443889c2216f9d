"""Command-line front end: precedence, exit codes, artifacts, determinism."""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import guardian_sim
from guardian_sim import analysis, cli, engine
from guardian_sim.analysis import estimate_mean_margin_change, trial_seeds
from guardian_sim.cli import (
    _DEFAULTS,
    SEED_ENV_VAR,
    OutputFormat,
    build_parser,
    main,
)
from guardian_sim.engine import TRAJECTORY_HEADER, FailureCriterion, WorldConfig
from guardian_sim.observation import NoiseParams
from guardian_sim.rng import Rng, derive_seed
from guardian_sim.strategies import AttackerBehavior, DefenderStrategy


def parse(argv):
    return build_parser().parse_args(argv)


def write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return path


class Resolved(Exception):
    """Raised by a stubbed library call, with the arguments a command gave it."""


def handed(monkeypatch, argv, name):
    """The (args, kwargs) that `main(argv)` hands `cli.<name>`, stubbed out
    so that the command stops there."""

    def stub(*args, **kwargs):
        raise Resolved(args, kwargs)

    monkeypatch.setattr(cli, name, stub)
    with pytest.raises(Resolved) as exc:
        main(argv)
    return exc.value.args


def run_settings(monkeypatch, *argv):
    """The defender, attacker, world and episode seed `run` resolves."""
    (_, _, defender, attacker, world, episode_seed), _ = handed(
        monkeypatch, ["run", *argv], "run_episode")
    return defender, attacker, world, episode_seed


def matrix_settings(monkeypatch, *argv):
    """The world, trials, seed and jobs `matrix` resolves."""
    (world, trials, seed), kwargs = handed(monkeypatch, ["matrix", *argv], "run_experiment_matrix")
    return world, trials, seed, kwargs["jobs"]


def check_seed(monkeypatch, *argv) -> int:
    return handed(monkeypatch, ["check", *argv], "run_default_checks")[1]["seed"]


# The flags each command requires, and the keys of a config file it reads.
REQUIRED = {"run": [], "matrix": [], "check": [],
            "stability": ["--e", "10", "0", "--ua", "0", "1"], "margin-table": []}
WORLD_KEYS = set(WorldConfig().to_flat_dict())
NOISE_KEYS = {"beta", "beta_b", "beta_v", "nu"}
READS = {
    "run": WORLD_KEYS | {"defender", "attacker", "seed", "out", "format", "xa", "xd"},
    "matrix": WORLD_KEYS | {"trials", "seed", "jobs", "out", "format"},
    "check": {"seed"},
    "stability": NOISE_KEYS | {"seed"},
    "margin-table": NOISE_KEYS | {"seed", "k"},
}
# One bad config value per key, of the wrong JSON type or out of range, and
# the message that refuses it.
BAD = {
    "defender": ("zigzag", "unknown defender 'zigzag' (valid: pp, dm, adm)"),
    "attacker": (7, "unknown attacker '7' (valid: linear, spiral, intelligent, static)"),
    "trials": (0, "trials must be >= 1, got 0"),
    "seed": (-1, "seed must be >= 0, got -1"),
    "jobs": (None, "jobs must be an integer, got None"),
    "out": (5, "out must be a path string, got 5"),
    "format": ("xml", "unknown format 'xml' (valid: csv, json, both)"),
    "xa": ([1.0], "xa must be a pair of numbers"),
    "xd": ("wide", "xd must be a pair of numbers"),
    "r_interest": ("wide", "r_interest must be a number, got 'wide'"),
    "r_safe": (99.0, "need 0 < r_safe < r_interest, got 99.0, 50.0"),
    "tau": (-1.0, "capture radius tau must be positive, got -1.0"),
    "beta": (True, "beta must be a number, got True"),
    "beta_b": (None, "beta_b must be a number, got None"),
    "beta_v": ([0.1], "beta_v must be a number, got [0.1]"),
    "nu": (2.0, "visibility nu must lie in [0, 1], got 2.0"),
    "k": ("nan", "reliability half-width k must be positive, got nan"),
    "max_steps": (0, "max_steps must be >= 1, got 0"),
    "failure_criterion": (
        "zigzag", "unknown failure_criterion 'zigzag' (valid: position_breach, margin_breach)"),
}
# Flags that keep each command to well under a second; none sets a key the
# command leaves unread.
QUICK = {"run": ["--xa", "10", "0", "--xd", "0", "0", "--attacker", "static", "--beta", "0"],
         "matrix": ["--trials", "2", "--max-steps", "50"],
         "check": [],
         "stability": [*REQUIRED["stability"], "--samples", "2000"],
         "margin-table": ["--samples", "2000"]}


class TestResolveConfig:
    """Settings resolve flag > file > environment (seed only) > default,
    pinned through the commands that read them."""

    def test_defaults(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        monkeypatch.chdir(tmp_path)
        defender, attacker, world, episode_seed = run_settings(monkeypatch)
        assert defender is DefenderStrategy.PURE_PURSUIT
        assert attacker.value == "linear"
        assert episode_seed == trial_seeds(0, 0)[1]
        assert world == WorldConfig()
        world, trials, seed, jobs = matrix_settings(monkeypatch)
        assert (trials, seed, jobs) == (1000, 0, 1)
        assert world.noise.beta_d == 0.05
        assert world.tau == 2.0
        assert world == WorldConfig()
        assert check_seed(monkeypatch) == 0

    def test_flat_dict_config_reproduces_world(self, tmp_path, monkeypatch):
        """A summary.json or report.json `config` block is a valid config
        file, and resolving it gives back the world it was written from."""
        monkeypatch.chdir(tmp_path)
        world = WorldConfig(
            r_interest=60.0, r_safe=12.5, tau=1.5,
            noise=NoiseParams(beta_b=0.01, beta_d=0.02, beta_v=0.03, nu=0.25),
            k=0.75, max_steps=321, failure_criterion=FailureCriterion.MARGIN_BREACH,
        )
        default = WorldConfig()
        for new, old in ((world, default), (world.noise, default.noise)):
            assert all(getattr(new, f.name) != getattr(old, f.name) for f in fields(new))
        config = ["--config", str(write_config(tmp_path, world.to_flat_dict()))]
        assert run_settings(monkeypatch, *config)[2] == world
        assert matrix_settings(monkeypatch, *config)[0] == world

    def test_every_flag_is_a_config_key(self):
        """Flags and config keys share one name set; `--config` and the
        report inputs of `stability` and `margin-table` are the exceptions."""
        not_keys = {"config", "e", "ua", "samples"}
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        assert set(subparsers.choices) == {"run", "matrix", "check", "stability", "margin-table"}
        for name, command in subparsers.choices.items():
            dests = {a.dest for a in command._actions if a.option_strings}
            assert dests - {"help"} - not_keys <= set(_DEFAULTS), name

    def test_flag_beats_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, {"defender": "dm", "seed": 5, "beta": 0.1})
        defender, _, world, episode_seed = run_settings(
            monkeypatch, "--config", str(path), "--defender", "pp")
        assert defender is DefenderStrategy.PURE_PURSUIT  # flag wins
        assert episode_seed == trial_seeds(5, 0)[1]  # file survives where no flag given
        assert world.noise.beta_d == 0.1

    def test_file_beats_env_for_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        path = write_config(tmp_path, {"seed": 5})
        assert check_seed(monkeypatch, "--config", str(path)) == 5

    def test_env_fallback_for_seed(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        assert check_seed(monkeypatch) == 99

    def test_flag_beats_env_for_seed(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        assert check_seed(monkeypatch, "--seed", "7") == 7

    def test_whole_number_counts_accepted(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        path = write_config(tmp_path, {"trials": 3.0, "jobs": "2", "seed": 7, "max_steps": 50.0})
        world, trials, seed, jobs = matrix_settings(monkeypatch, "--config", str(path))
        assert (trials, jobs, seed, world.max_steps) == (3, 2, 7, 50)

    @pytest.mark.parametrize(
        "key, name, member",
        [
            ("defender", "dm", DefenderStrategy.DEFENSE_MARGIN),
            ("attacker", "spiral", AttackerBehavior.SPIRAL),
            ("failure_criterion", "margin_breach", FailureCriterion.MARGIN_BREACH),
            ("format", "json", OutputFormat.JSON),
        ],
        ids=["defender", "attacker", "failure_criterion", "format"],
    )
    def test_enum_names_in_file(self, tmp_path, monkeypatch, key, name, member):
        monkeypatch.chdir(tmp_path)
        config = ["--config", str(write_config(tmp_path, {key: name}))]
        if key == "format":  # seen in the files a short run writes
            out = tmp_path / "out"
            assert main(["run", *config, *QUICK["run"], "--out", str(out)]) == 0
            assert [p.name for p in out.iterdir()] == ["summary.json"]
        else:
            defender, attacker, world, _ = run_settings(monkeypatch, *config)
            resolved = {"defender": defender, "attacker": attacker,
                        "failure_criterion": world.failure_criterion}
            assert resolved[key] is member


class TestEachCommandChecksWhatItReads:
    """The one rule for config files: every command refuses a bad value for
    a key it reads, with the key named (the `-bad-` rows of `REFUSALS`), and
    ignores the keys it never reads."""

    def test_every_key_has_a_bad_value_that_names_it(self):
        assert set(BAD) == set(_DEFAULTS) == set().union(*READS.values())
        for key, (_, message) in BAD.items():
            assert key in message

    @pytest.mark.parametrize("command", list(READS))
    def test_bad_values_for_keys_the_command_never_reads_change_nothing(
        self, tmp_path, capsys, monkeypatch, command
    ):
        """One file holding a bad value for every key the command never
        reads: the same exit code, stdout, stderr and files as without it."""
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        unread = set(_DEFAULTS) - READS[command]
        path = write_config(tmp_path, {key: BAD[key][0] for key in unread})
        runs = []
        for name, config in (("plain", []), ("with-config", ["--config", str(path)])):
            work = tmp_path / name
            work.mkdir()
            monkeypatch.chdir(work)
            code = main([command, *QUICK[command], *config])
            files = {p.name: p.read_bytes() for p in work.iterdir()}
            runs.append((code, capsys.readouterr(), files))
        assert runs[0] == runs[1]
        assert runs[0][1].out
        assert bool(runs[0][2]) == (command in ("run", "matrix"))


class TestRunCommand:
    def test_capture_countdown(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code = main(
            ["run", "--beta", "0", "--defender", "pp", "--attacker", "static",
             "--xa", "10", "0", "--xd", "0", "0", "--out", str(tmp_path)]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "outcome=Captured t=8"
        csv_lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert csv_lines[0] == TRAJECTORY_HEADER
        assert len(csv_lines) == 10  # 8 live steps + terminal row + header
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["outcome"] == "Captured"
        assert summary["end_time"] == 8

    def test_breach_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code = main(
            ["run", "--beta", "0", "--defender", "pp", "--attacker", "linear",
             "--xa", "10.5", "0", "--xd", "-40", "0", "--out", str(tmp_path)]
        )
        assert code == 1
        assert capsys.readouterr().out.strip() == "outcome=Breached t=1"

    def test_sampled_positions_when_flags_missing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code = main(["run", "--seed", "3", "--out", str(tmp_path)])
        assert code in (0, 1)
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "summary.json").exists()

    def test_format_selects_outputs(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        base = ["run", "--beta", "0", "--defender", "pp", "--attacker", "static",
                "--xa", "10", "0", "--xd", "0", "0"]
        out_csv = tmp_path / "csv"
        assert main(base + ["--out", str(out_csv), "--format", "csv"]) == 0
        assert (out_csv / "trajectory.csv").exists()
        assert not (out_csv / "summary.json").exists()
        out_json = tmp_path / "json"
        assert main(base + ["--out", str(out_json), "--format", "json"]) == 0
        assert not (out_json / "trajectory.csv").exists()
        assert (out_json / "summary.json").exists()

    def test_deterministic_output_bytes(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        args = ["run", "--defender", "adm", "--attacker", "intelligent", "--seed", "11"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) in (0, 1)
        assert main(args + ["--out", str(out_b)]) in (0, 1)
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [["--xa", "47", "0", "--r-safe", "45.5"], ["--xa", "30", "0", "--r-interest", "49.5"]],
        ids=["r_safe", "r_interest"],
    )
    def test_world_only_the_given_attacker_start_could_violate_runs(self, tmp_path, flags):
        """The range of a start that is given, not sampled, is not checked:
        the given start takes the place of the draw."""
        assert main(["run", *flags, "--seed", "0", "--out", str(tmp_path)]) in (0, 1)
        assert (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("seed", ["193", "215"])
    def test_one_given_start_is_never_refused_for_the_sampled_one(self, tmp_path, seed):
        """On these seeds the first sampled defender start lies within tau of
        the given attacker start; it is redrawn, so the episode plays."""
        code = main(["run", "--xa", "15", "0", "--seed", seed, "--out", str(tmp_path)])
        assert code in (0, 1)
        first = (tmp_path / "trajectory.csv").read_text().splitlines()[1].split(",")
        xa_x, xa_y, xd_x, xd_y = map(float, first[1:5])
        assert (xa_x, xa_y) == (15.0, 0.0)
        assert math.hypot(xd_x - xa_x, xd_y - xa_y) > WorldConfig().tau

    @pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
    def test_sampled_starts_at_the_largest_capture_radius_play(self, tmp_path, seed):
        """`run --tau 69` ran at seeds 0 and 1 and could not draw its starts
        at 2 and 3; at the bound, 64, every seed starts.  Given starts lift
        the bound."""
        assert main(["run", "--tau", "64", "--seed", seed, "--out", str(tmp_path / "a")]) in (0, 1)
        assert main(["run", "--tau", "69", "--xa", "50", "0", "--xd", "-20", "0", "--seed", seed,
                     "--out", str(tmp_path / "b")]) in (0, 1)

    def test_one_given_start_plays_or_is_refused_at_every_seed(self, tmp_path, capsys):
        """`run --xa 50 0 --tau 69.6` played at seeds 0, 2, 3 and 5 and
        could not draw a defender start at 1 and 4: a sampled one clears
        69.6 with chance 0.001 per attempt.  It is refused at every seed with
        one message; 66.4, just below the bound of 66.465, plays at every seed."""
        errors = set()
        for seed in range(6):
            assert main(["run", "--xa", "50", "0", "--tau", "69.6", "--seed", str(seed),
                         "--out", str(tmp_path / "refused")]) == 2
            errors.add(capsys.readouterr().err)
            assert main(["run", "--xa", "50", "0", "--tau", "66.4", "--seed", str(seed),
                         "--out", str(tmp_path / str(seed))]) in (0, 1)
        assert errors == {"error: tau=69.6 with the start given at radius 50: a sampled defender "
                          "start clears it with chance 0.00101, too rarely to start at every "
                          "seed\n"}
        assert not (tmp_path / "refused").exists()

    def test_largest_accepted_noise_runs_every_pair(self, tmp_path, capsys):
        """The largest beta the world accepts plays out: all nine matrix pairs
        over a few trials, and a static attacker that the defender has to
        chase for many steps."""
        lo, hi = 0.0, 1e308  # accepted, refused
        while True:
            mid = lo + (hi - lo) / 2
            if mid in (lo, hi):
                break
            try:
                WorldConfig(noise=NoiseParams(beta_d=mid))
                lo = mid
            except ValueError:
                hi = mid
        beta = repr(lo)
        assert main(["matrix", "--trials", "4", "--seed", "0", "--beta", beta,
                     "--out", str(tmp_path / "matrix")]) == 0
        assert len(json.loads((tmp_path / "matrix" / "report.json").read_text())["pairs"]) == 9
        for defender in ("pp", "dm", "adm"):
            code = main(["run", "--beta", beta, "--defender", defender, "--attacker", "static",
                         "--xa", "30", "0", "--xd", "0", "0", "--out", str(tmp_path / defender)])
            assert code == 0
        assert "error" not in capsys.readouterr().err


class TestRunStreaming:
    """`run` writes each trajectory row as the step makes it and keeps none,
    so its memory does not grow with the episode's length."""

    SURVIVOR = ["run", "--attacker", "static", "--defender", "adm", "--beta", "1", "--tau", "0.5",
                "--seed", "1"]

    def test_peak_memory_does_not_grow_with_the_step_cap(self, tmp_path):
        def peak(steps: int) -> int:
            tracemalloc.start()
            try:
                argv = [*self.SURVIVOR, "--max-steps", str(steps), "--out", str(tmp_path / "out")]
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)  # loads what every later run reuses
        assert peak(20_000) - peak(2_000) < 256 * 1024

    @pytest.mark.parametrize("fmt", [f.value for f in OutputFormat])
    @pytest.mark.parametrize("error", [ValueError, RuntimeError])
    def test_a_failed_step_leaves_no_file(self, tmp_path, capsys, monkeypatch, fmt, error):
        """A step that raises midway ends the run as it did when the rows were
        written after the episode: a ValueError exits 2, anything else
        propagates, and neither leaves a file, temp or final."""
        real_step, steps = engine.step, []

        def failing_step(*args, **kwargs):
            steps.append(None)
            if len(steps) == 5:
                raise error("simulated step failure")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(engine, "step", failing_step)
        argv = [*self.SURVIVOR, "--format", fmt, "--out", str(tmp_path)]
        if error is ValueError:
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: simulated step failure\n"
        else:
            with pytest.raises(error, match="simulated step failure"):
                main(argv)
        assert len(steps) == 5
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", [f.value for f in OutputFormat])
    def test_no_format_keeps_the_rows(self, tmp_path, monkeypatch, fmt):
        """Every format hands the episode a sink and gets back no rows; only
        the formats that write the CSV write it."""
        results = []

        def recording_run_episode(*args, **kwargs):
            assert kwargs["sink"] is not None
            results.append(engine.run_episode(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "run_episode", recording_run_episode)
        argv = [*self.SURVIVOR, "--max-steps", "300", "--format", fmt, "--out", str(tmp_path)]
        assert main(argv) == 0
        assert [(r.end_time, r.trajectory) for r in results] == [(300, [])]
        names = {"csv": ["trajectory.csv"], "json": ["summary.json"],
                 "both": ["summary.json", "trajectory.csv"]}[fmt]
        assert sorted(p.name for p in tmp_path.iterdir()) == names


class TestMatrixCommand:
    def test_writes_table_and_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code = main(
            ["matrix", "--trials", "3", "--seed", "4", "--max-steps", "300", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("defender,linear,spiral,intelligent")
        table = (tmp_path / "winrates.csv").read_text()
        assert table == out
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["pairs"]) == 9
        assert report["trials"] == 3

    def test_a_serial_run_loads_no_logger_and_no_pool(self, tmp_path):
        """A fresh interpreter that imports the command line and runs a
        serial matrix never loads `logging`, nor the modules a pool needs."""
        env = {**os.environ, "PYTHONPATH": str(Path(guardian_sim.__file__).parents[1])}
        argv = ["matrix", "--trials", "3", "--jobs", "1", "--out", str(tmp_path)]
        script = (f"import sys; import guardian_sim.cli; code = guardian_sim.cli.main({argv!r}); "
                  "print(code, [m for m in ('logging', 'concurrent.futures', 'multiprocessing') "
                  "if m in sys.modules])")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 []"


class TestCheckCommand:
    def test_default_suite_reports_known_dominance_failure(self, capsys, monkeypatch):
        """Exit 1 by design: the margin-step dominance sweep documents real
        counterexamples (see check_one_step_gains); everything else
        passes."""
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        assert main(["check"]) == 1
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert out.count("FAIL") == 1
        assert "FAIL margin_step_dominance:" in out
        assert "gain < 0.5" in out

    @pytest.mark.parametrize(
        "flags, lhs, holds",
        [(["--ua", "-1", "0", "--beta", "0"], "-1", "true"),
         (["--ua", "1", "0", "--beta", "0"], "1", "true"),
         (["--ua", "1", "0", "--samples", "100"], "1", "false")],
        ids=["head-on", "fleeing-noiseless", "fleeing-with-noise"],
    )
    def test_stability_diagnostic_line(self, capsys, monkeypatch, flags, lhs, holds):
        """Fleeing along e gives lhs = 1.  Without noise the expected cosine
        is 1 too, and the condition holds at equality; noise pulls it below
        1, so the condition fails."""
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code = main(["stability", "--e", "3", "0", *flags])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith(f"lhs={lhs} ")
        assert out.endswith(f"condition_holds={holds}")

    @pytest.mark.parametrize(
        "ua", [(0.0, 1.0), (0.6, 0.8), (-0.5821869711867674, 0.8130549370001872)],
        ids=["unit", "three-four-five", "norm-one-ulp-over"],
    )
    def test_stability_accepts_a_unit_control_up_to_rounding(self, capsys, ua):
        if ua[0] < 0.0:
            assert math.hypot(*ua) == 1.0 + 2.0**-52
        argv = ["stability", "--e", "3", "0", "--ua", *map(repr, ua), "--samples", "10"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("lhs=")

    def test_margin_table_prints_the_estimates(self, capsys):
        """One header and one row per strategy, each row the estimator's
        numbers on stream derive_seed(seed, 40 + i) at the world's noise
        and k."""
        argv = ["margin-table", "--samples", "3000", "--seed", "7", "--beta", "0.1"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["strategy", "mean", "stderr", "n=3000"]
        assert len(lines) == 1 + len(DefenderStrategy)
        for i, (strategy, line) in enumerate(zip(DefenderStrategy, lines[1:])):
            est = estimate_mean_margin_change(
                strategy, NoiseParams(beta_d=0.1), WorldConfig().k, 3000,
                Rng(derive_seed(7, 40 + i)),
            )
            assert line.split() == [strategy.value, f"{est.mean_change:.6f}", f"{est.stderr:.6f}"]


def counting_rng(draws: list):
    """A stand-in for `cli.Rng` whose generator adds the name of each method
    looked up on it, that is of each draw, to `draws`."""

    class CountingRng:
        def __init__(self, seed: int) -> None:
            self._gen = Rng(seed).generator

        @property
        def generator(self):
            return self

        def __getattr__(self, name):
            draws.append(name)
            return getattr(self._gen, name)

    return CountingRng


class Call(NamedTuple):
    """What one call of `main` did: its exit code, what it printed (with
    ``{tmp}`` for its working directory), the steps and blocks it took, the
    draws from the generators `cli.Rng` hands out, and the files it left."""

    code: int
    out: str
    err: str
    steps: int
    blocks: int
    draws: list[str]
    files: list[str]


def _call(argv: list[str], config: dict | str | None = None, env: str | None = None) -> Call:
    """Run `main(argv)` in process, in a new temporary working directory that
    ``{tmp}`` stands for in `argv`, with `$GUARDIAN_SIM_SEED` set to `env` or
    unset, and with `config`, if given, as its `--config` file (a dict as
    JSON, text as it is).  argparse's exit is caught and its code kept."""
    ran, draws, out, err, cwd = [], [], io.StringIO(), io.StringIO(), os.getcwd()

    def counted(fn):
        def call(*args, **kwargs):
            ran.append(fn)
            return fn(*args, **kwargs)
        return call

    step, block = engine.step, analysis.run_matrix_block
    with (tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ),
          mock.patch.object(engine, "step", counted(step)),
          mock.patch.object(analysis, "run_matrix_block", counted(block)),
          mock.patch.object(cli, "Rng", counting_rng(draws)),
          redirect_stdout(out), redirect_stderr(err)):
        os.environ.pop(SEED_ENV_VAR, None)
        if env is not None:
            os.environ[SEED_ENV_VAR] = env
        argv, path = [arg.replace("{tmp}", tmp) for arg in argv], Path(tmp) / "config.json"
        if config is not None:
            path.write_text(config if isinstance(config, str) else json.dumps(config))
            argv += ["--config", str(path)]
        os.chdir(tmp)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
        files = sorted(str(p.relative_to(tmp)) for p in Path(tmp).rglob("*") if p != path)
    return Call(code, *(s.getvalue().replace(tmp, "{tmp}") for s in (out, err)),
                ran.count(step), ran.count(block), draws, files)


class Refusal(NamedTuple):
    """A command line that exits 2: its arguments, split on spaces; its
    stderr, whole or (for argparse's refusals, which start with the program's
    name) its last line, after the usage, and a prefix where it ends in
    "..."; its config file, if any; and `$GUARDIAN_SIM_SEED`, if set."""

    id: str
    argv: str
    err: str
    config: dict | str | None = None
    env: str | None = None


# Flags each report command never reads, after the flags it requires.
NEVER_READ = {
    "check": ["--beta 5", "--k 3", "--tau 7", "--out x", "--samples 10", "--e 3 0"],
    "stability --e 3 0 --ua -1 0": ["--k 3", "--tau 7", "--max-steps 5", "--out x",
                                    "--format csv"],
    "margin-table": ["--tau 7", "--r-safe 5", "--max-steps 5",
                     "--failure-criterion margin_breach", "--out x", "--format csv", "--e 3 0"],
}


def _every_command_refuses() -> list[Refusal]:
    """A bad `$GUARDIAN_SIM_SEED`, an unknown config key, malformed JSON, a
    bad value (`BAD`) for each key it reads (`READS`), and each flag a report
    command never reads."""
    rows = []
    for command, keys in READS.items():
        argv = " ".join([command, *REQUIRED[command]])
        rows += [
            Refusal(f"{command}-env-seed", argv,
                    f"error: ${SEED_ENV_VAR} must be an integer, got 'not-a-number'",
                    env="not-a-number"),
            Refusal(f"{command}-unknown-key", argv, "error: unknown config key(s): defnder",
                    {"defnder": "dm"}),
            Refusal(f"{command}-malformed-json", argv,
                    "error: malformed JSON in config file {tmp}/config.json: ...", "{not json"),
            *(Refusal(f"{command}-bad-{key}", argv, f"error: {BAD[key][1]}", {key: BAD[key][0]})
              for key in sorted(keys))]
    return rows + [Refusal(f"{command.split()[0]}-unread-{flag.split()[0][2:]}",
                           f"{command} {flag}", f"guardian-sim: error: unrecognized arguments: {flag}")
                   for command, flags in NEVER_READ.items() for flag in flags]


# Worlds that a sampled start could violate: each one's name, argv and message.
_SAMPLED_STARTS = [
    ("matrix-r_safe", "matrix --trials 3 --r-safe 45.5 --out out",
     "r_safe=45.5 exceeds 45.0, the least sampled attacker radius"),
    ("matrix-r_interest", "matrix --trials 3 --r-interest 49.5 --out out",
     "r_interest=49.5 is below 50.0, the top of the sampled attacker radii"),
    ("run-r_safe", "run --r-safe 45.5", "r_safe=45.5 exceeds 45.0, the least sampled attacker radius"),
    ("run-r_interest", "run --xd 0 0 --r-interest 49.5",
     "r_interest=49.5 is below 50.0, the top of the sampled attacker radii"),
    ("run-given-defender", "run --xd 0 0 --r-interest 49 --r-safe 5",
     "r_interest=49.0 is below 50.0, the top of the sampled attacker radii"),
    ("run-given-attacker", "run --xa 15 0 --r-interest 19.5 --r-safe 5",
     "r_interest=19.5 is below 20.0, the top of the sampled defender radii"),
    *((f"{command}-tau", f"{command} --tau {tau}", f"tau={float(tau)} exceeds 64: sampled starts, "
       "at most 70 apart, clear a larger tau too rarely to start at every seed")
      for command, tau in (("matrix --trials 3", "64.5"), ("run", "69"))),
]
_HUGE_NOISE = "noise too large: beta=1.5e+304 gives sigma="
_OVERFLOW = "so an observed coordinate could overflow when squared"
_R_INTEREST = ("error: r_interest={} too large: a coordinate within r_interest + max_steps = {} "
               "could overflow when squared")
_REFUSED_STARTS = [
    ("inside-safe-zone", "--xa 5 0 --xd 20 0", "attacker may not start inside the safe zone"),
    ("within-capture-radius", "--xa 10 0 --xd 10.25 0 --tau 0.5",
     "initial separation must exceed the capture radius tau=0.5")]

REFUSALS = [
    *_every_command_refuses(),
    # A config file that cannot be read or holds no object, a seed variable
    # below zero, and a config-file value of the wrong type or out of range,
    # for `matrix`, or for `run` where only `run` reads the key.
    Refusal("run-missing-config", "run --config no.json",
            "error: cannot read config file no.json: [Errno 2] No such file or directory: 'no.json'"),
    Refusal("matrix-config-not-an-object", "matrix",
            "error: config file {tmp}/config.json must hold a JSON object", "[1, 2]"),
    Refusal("check-negative-env-seed", "check", f"error: ${SEED_ENV_VAR} must be >= 0, got -1", env="-1"),
    Refusal("file-jobs-0", "matrix", "error: jobs must be >= 1, got 0", {"jobs": 0}),
    Refusal("file-tau-negative", "matrix", "error: capture radius tau must be positive, got -2.0",
            {"tau": -2.0}),
    Refusal("file-trials-fraction", "matrix", "error: trials must be an integer, got 2.7",
            {"trials": 2.7}),
    Refusal("file-jobs-fraction", "matrix", "error: jobs must be an integer, got 1.5", {"jobs": 1.5}),
    Refusal("file-seed-fraction", "matrix", "error: seed must be an integer, got 0.5", {"seed": 0.5}),
    Refusal("file-max_steps-fraction", "matrix", "error: max_steps must be an integer, got 99.9",
            {"max_steps": 99.9}),
    Refusal("file-trials-string", "matrix", "error: trials must be an integer, got '2.7'",
            {"trials": "2.7"}),
    Refusal("file-trials-true", "matrix", "error: trials must be an integer, got True",
            {"trials": True}),
    Refusal("file-seed-list", "matrix", "error: seed must be an integer, got [1]", {"seed": [1]}),
    *(Refusal(f"file-{key}-{kind}", "matrix", f"error: {key} must be a number, got {value!r}",
              {key: value})
      for key, kind, value in (("tau", "null", None), ("beta", "list", [0.1]), ("nu", "object", {}),
                               ("tau", "true", True), ("beta", "false", False), ("k", "string", "wide"),
                               ("r_safe", "list", [10.0]), ("r_interest", "null", None),
                               ("beta_b", "object", {}), ("beta_v", "true", True))),
    Refusal("file-out-null", "matrix", "error: out must be a path string, got None", {"out": None}),
    Refusal("file-out-list", "matrix", "error: out must be a path string, got ['a']",
            {"out": ["a"]}),
    Refusal("file-xa-true", "run", "error: xa must be a number, got True", {"xa": [30, True]}),
    Refusal("file-xd-false", "run", "error: xd must be a number, got False", {"xd": [False, 0]}),
    Refusal("file-xa-null", "run", "error: xa must be a number, got None", {"xa": [None, 1.0]}),
    Refusal("file-xd-list", "run", "error: xd must be a number, got [0.0]", {"xd": [[0.0], 0.0]}),
    Refusal("file-xa-object", "run", "error: xa must be a number, got {}", {"xa": [30, {}]}),
    Refusal("file-defender", "run", "error: unknown defender 'ppx' (valid: pp, dm, adm)",
            {"defender": "ppx"}),
    Refusal("file-attacker", "run",
            "error: unknown attacker 'zigzag' (valid: linear, spiral, intelligent, static)",
            {"attacker": "zigzag"}),
    Refusal("file-format", "run", "error: unknown format 'zigzag' (valid: csv, json, both)",
            {"format": "zigzag"}),
    # A world or start that no episode could play, refused before the first
    # step or block, and before `matrix` draws a block's starts.
    Refusal("run-defender-flag", "run --defender ppx",
            "guardian-sim run: error: argument --defender: invalid choice: 'ppx'..."),
    Refusal("run-start-in-safe-zone", "run --xa 5 0 --xd 20 0",
            "error: attacker may not start inside the safe zone"),
    Refusal("run-spiral-r_safe", "run --attacker spiral --seed 3 --r-safe 0.5 --tau 0.1",
            "error: the spiral attacker needs r_safe > 1, got r_safe=0.5"),
    Refusal("matrix-spiral-r_safe", "matrix --trials 5 --r-safe 0.5 --tau 0.1 --out out",
            "error: the spiral attacker needs r_safe > 1, got r_safe=0.5"),
    # The attacker would reach radius 5e-13, where the linear control is
    # undefined, without entering r_safe.
    *(Refusal(f"run-{attacker}-{defender}-tiny-r_safe",
              f"run --xa 45.0000000000005 0 --xd 49 0 --r-safe 1e-14 --attacker {attacker} "
              f"--defender {defender} --beta 0",
              f"error: the {attacker} attacker needs r_safe >= 1e-12, got 1e-14")
      for attacker in ("linear", "intelligent") for defender in ("pp", "adm")),
    # A world that the sampled starts can violate is refused at every seed.
    *(Refusal(f"{name}-seed-{seed}", f"{argv} --seed {seed}", f"error: {message}")
      for name, argv, message in _SAMPLED_STARTS for seed in "01"),
    Refusal("run-tau-nan", "run --xa 30 0 --xd 0 0 --tau nan",
            "error: capture radius tau must be positive, got nan"),
    Refusal("run-k-nan", "run --xa 30 0 --xd 0 0 --k nan --defender adm",
            "error: reliability half-width k must be positive, got nan"),
    Refusal("run-beta-inf", "run --xa 30 0 --xd 0 0 --beta inf",
            "error: noise coefficients must be finite and non-negative, got beta=inf"),
    *(Refusal(f"{argv.split()[0]}-k-inf", f"{argv} --k inf",
              "error: reliability half-width k must be finite, got inf")
      for argv in ("run", "matrix --trials 3", "margin-table --samples 100")),
    *(Refusal(f"{command}-tau-inf", f"{command} --tau inf",
              "error: capture radius tau must be finite, got inf") for command in ("run", "matrix")),
    Refusal("run-r_interest-inf", "run --r-interest inf --beta 0", _R_INTEREST.format("inf", "inf")),
    Refusal("run-r_interest-1e200", "run --r-interest 1e200 --beta 0",
            _R_INTEREST.format("1e+200", "1e+200")),
    Refusal("matrix-r_interest-inf", "matrix --r-interest inf", _R_INTEREST.format("inf", "inf")),
    # Noise that passes each coefficient's check but could overflow an
    # observation when squared.
    Refusal("run-huge-noise", "run --beta 1.5e304 --seed 0 --defender dm --attacker linear",
            f"error: {_HUGE_NOISE}inf at separation 2 * (r_interest + max_steps) = 20100, "
            f"{_OVERFLOW}"),
    Refusal("margin-table-huge-noise", "margin-table --beta 1.5e304 --samples 100",
            f"error: {_HUGE_NOISE}6.74e+153 at separation 40 + 15 = 55, {_OVERFLOW}"),
    # An unwritable `--out` (under the config file) exits 2, not with the
    # traceback and exit 1 that `run` uses for a breach.
    *(Refusal(f"{argv.split()[0]}-unwritable-out", f"{argv} --seed 0 --out {{tmp}}/config.json/out",
              "error: [Errno 20] Not a directory: '{tmp}/config.json/out'", {})
      for argv in ("run --xa 30 0 --xd 0 0", "matrix --trials 2")),
    # A refused start leaves no `--out` directory, whichever files it would
    # write; a trial count above the bound is refused as it was given.
    *(Refusal(f"run-{name}-{fmt.value}", f"run {flags} --format {fmt.value} --out out",
              f"error: {message}")
      for name, flags, message in _REFUSED_STARTS for fmt in OutputFormat),
    Refusal("matrix-trials-flag", "matrix --trials 1000000000000 --out out",
            "error: trials must be <= 4194304, got 1000000000000"),
    Refusal("matrix-trials-file", "matrix --out out", "error: trials must be <= 4194304, got 1e+308",
            {"trials": 1e308}),
    # `stability` refuses an error vector, control or sample count it cannot estimate at.
    Refusal("stability-e-within-sqrt2", "stability --e 1 0 --ua 0 1",
            "error: estimator requires ||e|| > sqrt(2), got 1.0"),
    Refusal("stability-no-sample", "stability --e 3 0 --ua 0 1 --samples 0",
            "error: need at least one sample, got 0"),
    Refusal("stability-beta-1e10", "stability --e 3 0 --ua 0 0 --beta 1e10",
            "error: noise too large for the error vector: beta=10000000000.0 and e=(3.0, 0.0) "
            "give sigma=3e+05, so a noise draw is accepted with probability 5e-11 < 0.001"),
    Refusal("stability-sigma-overflows", "stability --e 1e200 0 --ua 0 0",
            "error: noise too large for the error vector: beta=0.05 and e=(1e+200, 0.0) "
            "give sigma=inf, so a noise draw is accepted with probability 0 < 0.001"),
    *(Refusal(f"stability-e-{e}", f"stability --e {e} 0 --ua 0 1 {flags}",
              f"error: error vector e=({float(e)!r}, 0.0) is too long: the estimator requires "
              f"||e|| < 6.7e+153, got {float(e)!r}")
      for e, flags in (("2e154", "--samples 5"), ("1e160", "--beta 0"))),
    Refusal("stability-ua-overflowing", "stability --e 3 0 --ua 1e308 1e308 --samples 3",
            "error: attacker control ua=(1e+308, 1e+308) is longer than one unit"),
    Refusal("stability-ua-five-units", "stability --e 3 0 --ua 5 0 --beta 0 --samples 100",
            "error: attacker control ua=(5.0, 0.0) is longer than one unit"),
    *(Refusal(f"stability-{flag}-nan", argv, f"error: {flag} must be a pair of finite numbers: "
              "non-finite component in Vec2(nan, 0.0)")
      for flag, argv in (("e", "stability --e nan 0 --ua 0 1"), ("ua", "stability --e 3 0 --ua nan 0"))),
    # argparse refuses a missing or unknown command, a value of the wrong
    # type, a flag that belongs to another command, and a missing one; the
    # estimator refuses one sample.
    Refusal("no-command", "", "guardian-sim: error: the following arguments are required: command"),
    Refusal("unknown-command", "frobnicate",
            "guardian-sim: error: argument command: invalid choice: 'frobnicate'..."),
    Refusal("matrix-trials-not-an-int", "matrix --trials 2.5",
            "guardian-sim matrix: error: argument --trials: invalid int value: '2.5'"),
    Refusal("check-unread-ua", "check --ua -1 0",
            "guardian-sim: error: unrecognized arguments: --ua -1 0"),
    Refusal("stability-without-vectors", "stability",
            "guardian-sim stability: error: the following arguments are required: --e, --ua"),
    Refusal("margin-table-one-sample", "margin-table --samples 1",
            "error: need at least two samples for a standard error, got 1"),
    Refusal("margin-table-unread-stability", "margin-table --stability --e 3 0 --ua -1 0",
            "guardian-sim: error: unrecognized arguments: --stability --e 3 0 --ua -1 0"),
    Refusal("margin-table-unread-ua", "margin-table --ua -1 0",
            "guardian-sim: error: unrecognized arguments: --ua -1 0"),
]


@pytest.mark.parametrize("row", REFUSALS, ids=[row.id for row in REFUSALS])
def test_each_refusal_is_made_before_any_work(row):
    """Exit 2 with nothing on stdout and the row's message on stderr; no step,
    no block, no draw from the estimator's generator, and no file or `--out`
    directory left behind."""
    call = _call(row.argv.split(), row.config, row.env)
    message = (call.err.splitlines()[-1] if row.err.startswith("guardian-sim")
               else call.err.removesuffix("\n"))
    if row.err.endswith("..."):  # compare the prefix
        message = message[:len(row.err) - 3]
    assert (call.code, call.out, message) == (2, "", row.err.removesuffix("..."))
    assert (call.steps, call.blocks, call.files) == (0, 0, [])
    if row.argv.startswith(("stability", "margin-table")):
        assert call.draws == []


# The world settings of `run` and `matrix` that take a float.
_WORLD_KEYS = ("beta", "k", "tau", "r_safe", "r_interest")
_EDGE_MAGNITUDES = (0.0, 5e-324, 1e-300, 1e300, sys.float_info.max)
_POINTS = st.none() | st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0))
# Config-file values that are not numbers, or not finite ones.
_NON_NUMBERS = (None, True, "abc", [0.05], {}, "nan", "-inf")
# `margin-table` accepts a `beta` up to about 7.6e301, and an observation
# overflows from about 1e304: these, log-uniform over 1e301 to 1e305 (on a
# grid of 4,001 exponents), reach both sides of both bounds, and shrink
# toward 1e305, where an estimate without the bound overflows even at two
# samples.
_HUGE_BETAS = st.integers(0, 4000).map(lambda i: 10.0 ** (305.0 - i / 1000.0))


def _values(scale: float) -> st.SearchStrategy[float]:
    """An edge magnitude of either sign, or log-uniform over 1e-3 to 1e3
    times `scale`."""
    return st.one_of(
        st.sampled_from(_EDGE_MAGNITUDES).flatmap(lambda m: st.sampled_from((m, -m))),
        st.floats(-3.0, 3.0).map(lambda e: scale * 10.0 ** e))


def _setting(draw, key: str, argv: list, config: dict, values) -> None:
    """Leave `key` absent, give it as a flag (its value written with `repr`,
    so a negative one may be in e-notation or not finite), or give it
    through the config file, where it may also be a non-number."""
    where = draw(st.sampled_from(["absent", "flag", "config"]))
    if where == "flag":
        argv += [f"--{key.replace('_', '-')}", repr(draw(values))]
    elif where == "config":
        config[key] = draw(values | st.sampled_from(_NON_NUMBERS))


@st.composite
def _argvs(draw) -> tuple[list[str], dict]:
    """`run` or `matrix --trials 2`, with each world setting drawn as
    `_setting` draws it (about its default), a step cap of 1 to 300, either failure criterion,
    and for `run` the laws and given or sampled starts; and the config file
    to give it."""
    command = draw(st.sampled_from([["run"], ["matrix", "--trials", "2"]]))
    argv = [*command, f"--max-steps={draw(st.integers(1, 300))}",
            f"--failure-criterion={draw(st.sampled_from([c.value for c in FailureCriterion]))}",
            f"--seed={draw(st.integers(0, 2**32))}"]
    config: dict = {}
    for key in _WORLD_KEYS:
        _setting(draw, key, argv, config, _values(_DEFAULTS[key]))
    if command == ["run"]:
        argv += [f"--defender={draw(st.sampled_from([s.value for s in DefenderStrategy]))}",
                 f"--attacker={draw(st.sampled_from([b.value for b in AttackerBehavior]))}"]
        for flag in ("--xa", "--xd"):
            point = draw(_POINTS)
            if point is not None:
                argv += [flag, *map(repr, point)]
    return argv, config


@given(_argvs())
@example((["matrix", "--trials", "2", "--r-safe=0.5", "--tau=0.1"], {}))
def test_an_accepted_world_runs_and_a_refused_one_draws_nothing(case):
    """Every world the command line accepts runs to its end (exit 0 or 1);
    every one it refuses exits 2 with an `error:` line before any
    `engine.step` or `analysis.run_matrix_block` call, and writes no file."""
    argv, config = case
    call = _call(argv, config or None)
    if call.code == 2:
        assert call.err.startswith("error: ")
        assert call.steps == call.blocks == 0 and call.files == []
    else:
        assert call.code in (0, 1) and call.err == ""


@st.composite
def _estimator_argvs(draw) -> tuple[list[str], dict]:
    """`margin-table` or `stability` with 2 to 200 samples, and the config
    file to give it.  Half the tables take only a `--beta` from
    `_HUGE_BETAS`; otherwise each number setting it reads (`beta`, and `k`
    for the table) is drawn as `_setting` draws it.  `stability`'s `--e`
    and `--ua` are written with `repr`, so a negative component may be in
    e-notation.  Half the time both components are plain, within 10 and 0.7
    (where the diagnostic runs); otherwise each may also be an edge
    magnitude, a value log-uniform about 3 and 0.5 of either sign, or not
    finite."""
    command = draw(st.sampled_from(["margin-table", "stability"]))
    argv, config = [command, "--samples", str(draw(st.integers(2, 200))),
                    "--seed", str(draw(st.integers(0, 2**32)))], {}
    if command == "margin-table" and draw(st.booleans()):
        return [*argv, "--beta", repr(draw(_HUGE_BETAS))], config
    for key in ("beta", "k") if command == "margin-table" else ("beta",):
        _setting(draw, key, argv, config, _values(_DEFAULTS[key]))
    if command == "stability":
        for flag, bound, scale in (("--e", 10.0, 3.0), ("--ua", 0.7, 0.5)):
            plain = st.floats(-bound, bound)
            edge = (plain | _values(scale) | _values(-scale)
                    | st.sampled_from((math.nan, math.inf, -math.inf)))
            argv += [flag, *map(repr, draw(st.tuples(plain, plain) | st.tuples(edge, edge)))]
    return argv, config


@given(_estimator_argvs())
@example((["margin-table", "--samples", "200", "--beta", "1.5e304"], {}))  # drew, then warned, before the bound
@example((["stability", "--samples", "2", "--e", "3", "-1e-1", "--ua", "0", "1"], {"beta": "abc"}))
def test_an_accepted_estimate_prints_and_a_refused_one_draws_nothing(case):
    """Every `margin-table` and `stability` input the command line accepts
    prints finite numbers and exits 0 with nothing on stderr; every one it
    refuses exits 2 with an `error:` line before the estimator's first draw.
    pytest turns any warning into an error, so neither may warn."""
    argv, config = case
    call = _call(argv, config or None)
    if call.code == 2:
        assert call.err.startswith("error: ")
        assert call.draws == []
    else:
        assert call.code == 0 and call.err == "" and call.draws
        assert "nan" not in call.out and "inf" not in call.out


@pytest.mark.parametrize(
    "argv, key, value, refusal",
    [(["run", "--xd", "0", "-3e-5"], "xd", [0.0, -3e-5], None),
     (["run", "--xa", "-1e1", "45"], "xa", [-10.0, 45.0], None),
     (["stability", "--e", "3", "-1e-1", "--ua", "0", "1"], "e", [3.0, -0.1], None),
     (["margin-table", "--beta", "-1e-300"], "beta", -1e-300, "got beta=-1e-300"),
     (["run", "--xd", "0", "-inf"], "xd", [0.0, -math.inf], "xd must be a pair of finite numbers"),
     (["stability", "--e", "-inf", "0", "--ua", "0", "1"], "e", [-math.inf, 0.0],
      "non-finite component in Vec2(-inf, 0.0)"),
     (["margin-table", "--beta", "-nan"], "beta", math.nan, "got beta=nan"),
     (["margin-table", "--k", "-Infinity"], "k", -math.inf, "must be positive, got -inf")],
    ids=["run-xd", "run-xa", "stability-e", "margin-table-beta", "run-xd-inf", "stability-e-inf",
         "margin-table-beta-nan", "margin-table-k-infinity"],
)
def test_a_negative_value_in_e_notation_reaches_its_command(
        tmp_path, capsys, argv, key, value, refusal):
    """argparse before Python 3.13 took each of these values for a flag and
    exited 2 with "expected 2 arguments" or "expected one argument"; so did
    the negative infinities and NaN, in any case, on every Python.  Each now
    reaches its command, which runs or refuses it by name."""
    assert repr(getattr(parse(argv), key)) == repr(value)
    code = main(argv + (["--out", str(tmp_path)] if argv[0] == "run" else ["--samples", "10"]))
    captured = capsys.readouterr()
    if refusal:
        assert code == 2 and captured.err.startswith("error: ") and refusal in captured.err
    else:
        assert code in (0, 1) and captured.err == ""
        assert captured.out.startswith("outcome=" if argv[0] == "run" else "lhs=")


def test_python_dash_m_runs_the_command_line():
    """`python -m guardian_sim` runs `main` from a checkout with only
    the source directory on the path, no installed script."""
    env = {**os.environ, "PYTHONPATH": str(Path(guardian_sim.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "guardian_sim", "margin-table", "--samples", "2"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].split() == ["strategy", "mean", "stderr", "n=2"]
