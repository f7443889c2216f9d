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
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import guardian_sim
from guardian_sim import analysis, cli, engine, lanes
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


def refused_by_argparse(argv, capsys) -> str:
    """Run `main(argv)`, check that argparse exits 2 before any output, and
    return what it printed to stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
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

    @pytest.mark.parametrize("command", list(READS))
    def test_bad_env_seed_rejected(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        monkeypatch.chdir(tmp_path)
        assert main([command, *REQUIRED[command]]) == 2
        assert capsys.readouterr() == (
            "", f"error: ${SEED_ENV_VAR} must be an integer, got 'not-a-number'\n")

    @pytest.mark.parametrize("command", list(READS))
    def test_unknown_config_key_rejected(self, tmp_path, capsys, command):
        path = write_config(tmp_path, {"defnder": "dm"})
        assert main([command, *REQUIRED[command], "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: unknown config key(s): defnder\n")

    @pytest.mark.parametrize("command", list(READS))
    def test_malformed_json_rejected(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main([command, *REQUIRED[command], "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: malformed JSON in config file {path}: ")

    def test_bad_strategy_name_in_file(self, tmp_path, capsys):
        path = write_config(tmp_path, {"defender": "ppx"})
        assert main(["run", "--config", str(path)]) == 2
        assert "pp, dm, adm" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [{"trials": 0}, {"jobs": 0}, {"seed": -1}, {"xa": [1.0]}, {"tau": -2.0},
         {"trials": 2.7}, {"jobs": 1.5}, {"seed": 0.5}, {"max_steps": 99.9}, {"trials": "2.7"},
         {"trials": True}, {"jobs": None}, {"seed": [1]}, {"tau": None}, {"beta": [0.1]},
         {"nu": {}}, {"out": 5}, {"tau": True}, {"beta": False}, {"k": "wide"},
         {"r_safe": [10.0]}, {"r_interest": None}, {"beta_b": {}}, {"beta_v": True},
         {"out": None}, {"out": ["a"]}, {"xa": [30, True]}, {"xd": [False, 0]},
         {"xa": [None, 1.0]}, {"xd": [[0.0], 0.0]}, {"xa": [30, {}]}],
    )
    def test_invalid_values_rejected(self, tmp_path, capsys, payload, monkeypatch):
        """Each bad value is refused with its key named in the message, by
        `matrix`, or by `run` for the start that only `run` reads."""
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        monkeypatch.chdir(tmp_path)
        (key,) = payload
        command = "matrix" if key in READS["matrix"] else "run"
        assert main([command, "--config", str(write_config(tmp_path, payload))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert key in captured.err

    def test_whole_number_counts_accepted(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        path = write_config(tmp_path, {"trials": 3.0, "jobs": "2", "seed": 7, "max_steps": 50.0})
        world, trials, seed, jobs = matrix_settings(monkeypatch, "--config", str(path))
        assert (trials, jobs, seed, world.max_steps) == (3, 2, 7, 50)

    @pytest.mark.parametrize(
        "key, name, member, valid",
        [
            ("defender", "dm", DefenderStrategy.DEFENSE_MARGIN, "pp, dm, adm"),
            ("attacker", "spiral", AttackerBehavior.SPIRAL, "linear, spiral, intelligent, static"),
            ("failure_criterion", "margin_breach", FailureCriterion.MARGIN_BREACH,
             "position_breach, margin_breach"),
            ("format", "json", OutputFormat.JSON, "csv, json, both"),
        ],
        ids=["defender", "attacker", "failure_criterion", "format"],
    )
    def test_enum_names_in_file(self, tmp_path, capsys, monkeypatch, key, name, member, valid):
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
        capsys.readouterr()
        path = write_config(tmp_path, {key: "zigzag"}, name="bad.json")
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: unknown {key} 'zigzag' (valid: {valid})\n")


class TestEachCommandChecksWhatItReads:
    """The one rule for config files: every command refuses a bad value for
    a key it reads, with the key named, and ignores the keys it never reads."""

    def test_every_key_has_a_bad_value_that_names_it(self):
        assert set(BAD) == set(_DEFAULTS) == set().union(*READS.values())
        for key, (_, message) in BAD.items():
            assert key in message

    @pytest.mark.parametrize(
        "command, key",
        [pytest.param(command, key, id=f"{command}-{key}")
         for command, keys in READS.items() for key in sorted(keys)],
    )
    def test_a_bad_value_for_a_key_the_command_reads_exits_two(
        self, tmp_path, capsys, monkeypatch, command, key
    ):
        """Refused before any work: nothing printed, no file written."""
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        monkeypatch.chdir(tmp_path)
        value, message = BAD[key]
        path = write_config(tmp_path, {key: value})
        assert main([command, *REQUIRED[command], "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == [path]

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

    def test_unknown_strategy_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--defender", "ppx"])
        assert exc.value.code == 2

    def test_config_error_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        path = write_config(tmp_path, {"defender": "ppx"})
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "pp, dm, adm" in err

    def test_invalid_initialization_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code = main(
            ["run", "--xa", "5", "0", "--xd", "20", "0", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [["run", "--attacker", "spiral", "--seed", "3"], ["matrix", "--trials", "5"]],
        ids=["run", "matrix"],
    )
    def test_spiral_with_unit_safe_radius_exits_two(self, tmp_path, capsys, monkeypatch,
                                                     command):
        """Refused before any step or block: `matrix` checks the spiral's
        bound before it draws a block's starts."""
        ran = []
        monkeypatch.setattr(engine, "step", lambda *args: ran.append("step"))
        monkeypatch.setattr(analysis, "run_matrix_block", lambda *args: ran.append("block"))
        code = main(command + ["--r-safe", "0.5", "--tau", "0.1", "--out", str(tmp_path)])
        assert code == 2
        assert "r_safe" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert ran == []

    @pytest.mark.parametrize("attacker", ["linear", "intelligent"])
    @pytest.mark.parametrize("defender", ["pp", "adm"])
    def test_safe_radius_below_the_linear_control_exits_two(self, tmp_path, capsys,
                                                            monkeypatch, attacker, defender):
        """The attacker would reach radius 5e-13, where the linear control is
        undefined, without entering r_safe: refused before the first step."""
        steps = []
        monkeypatch.setattr(engine, "step", lambda *args: steps.append(args))
        code = main(["run", "--xa", "45.0000000000005", "0", "--xd", "49", "0",
                     "--r-safe", "1e-14", "--attacker", attacker, "--defender", defender,
                     "--beta", "0", "--out", str(tmp_path)])
        assert code == 2
        assert f"error: the {attacker} attacker needs r_safe" in capsys.readouterr().err
        assert steps == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, message",
        [(["matrix", "--trials", "3", "--r-safe", "45.5"], "r_safe=45.5 exceeds 45.0"),
         (["matrix", "--trials", "3", "--r-interest", "49.5"], "r_interest=49.5 is below 50.0"),
         (["run", "--r-safe", "45.5"], "r_safe=45.5 exceeds 45.0"),
         (["run", "--xd", "0", "0", "--r-interest", "49.5"], "r_interest=49.5"),
         (["run", "--xd", "0", "0", "--r-interest", "49", "--r-safe", "5"],
          "r_interest=49.0 is below 50.0, the top of the sampled attacker radii"),
         (["run", "--xa", "15", "0", "--r-interest", "19.5", "--r-safe", "5"],
          "r_interest=19.5 is below 20.0, the top of the sampled defender radii"),
         (["matrix", "--trials", "3", "--tau", "64.5"], "tau=64.5 exceeds 64: sampled starts"),
         (["run", "--tau", "69"], "tau=69.0 exceeds 64: sampled starts")],
        ids=["matrix-r_safe", "matrix-r_interest", "run-r_safe", "run-r_interest",
             "run-given-defender", "run-given-attacker", "matrix-tau", "run-tau"],
    )
    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_world_the_sampled_starts_can_violate_exits_two(self, tmp_path, capsys, command,
                                                             message, seed):
        """Refused on every seed, before any trial, with the setting named."""
        code = main(command + ["--seed", seed, "--out", str(tmp_path)])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize(
        "flags, message",
        [(["--tau", "nan"], "tau must be positive"),
         (["--k", "nan", "--defender", "adm"], "k must be positive"),
         (["--beta", "inf"], "noise coefficients must be finite")],
        ids=["tau-nan", "k-nan", "beta-inf"],
    )
    def test_non_finite_world_setting_exits_two(self, tmp_path, capsys, flags, message):
        """Rejected before the episode starts, not mid-episode."""
        code = main(["run", "--xa", "30", "0", "--xd", "0", "0", "--out", str(tmp_path)] + flags)
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, flags, message",
        [(["run"], ["--k", "inf"], "reliability half-width k must be finite, got inf"),
         (["matrix", "--trials", "3"], ["--k", "inf"],
          "reliability half-width k must be finite, got inf"),
         (["margin-table", "--samples", "100"], ["--k", "inf"],
          "reliability half-width k must be finite, got inf"),
         (["run"], ["--tau", "inf"], "capture radius tau must be finite, got inf"),
         (["matrix"], ["--tau", "inf"], "capture radius tau must be finite, got inf"),
         (["run"], ["--r-interest", "inf", "--beta", "0"], "r_interest=inf too large: "),
         (["run"], ["--r-interest", "1e200", "--beta", "0"], "r_interest=1e+200 too large: "),
         (["matrix"], ["--r-interest", "inf"], "r_interest=inf too large: ")],
        ids=["run-k", "matrix-k", "margin-table-k", "run-tau", "matrix-tau",
             "run-r_interest-noiseless", "run-r_interest-1e200", "matrix-r_interest"],
    )
    def test_infinite_world_setting_exits_two_with_the_setting_named(
        self, tmp_path, capsys, monkeypatch, command, flags, message
    ):
        """These ran and wrote `Infinity` into their JSON (k), redrew the
        starts a thousand times (tau), or blamed the noise (r_interest)."""
        monkeypatch.chdir(tmp_path)
        assert main([*command, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize(
        "command",
        [["run", "--xa", "30", "0", "--xd", "0", "0"], ["matrix", "--trials", "2"]],
        ids=["run", "matrix"],
    )
    def test_unwritable_out_exits_two(self, tmp_path, capsys, command):
        """Exit 2 with the path named, not a traceback with exit 1 (which
        `run` uses for a breach)."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        assert main(command + ["--seed", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(out) in err

    def test_huge_noise_exits_two_before_the_episode(self, tmp_path, capsys):
        """Passes the per-coefficient checks, but its observations would
        overflow when squared: refused before any step or file write."""
        code = main(["run", "--beta", "1.5e304", "--seed", "0", "--defender", "dm",
                     "--attacker", "linear", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: noise too large: beta=")
        assert list(tmp_path.iterdir()) == []

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

    def test_margin_table_refuses_noise_that_could_overflow_before_drawing(
        self, monkeypatch, capsys
    ):
        """It printed numpy's overflow `RuntimeWarning` and exited 2 with
        "non-finite component in Vec2(inf, inf)"; now the estimator refuses
        the noise by `WorldConfig`'s bound over the table's radii, with beta
        named, before any sample is drawn.  Any warning would raise here."""
        monkeypatch.setattr(lanes, "from_polar", lambda *args: pytest.fail("drew a sample"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["margin-table", "--beta", "1.5e304", "--samples", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: noise too large: beta=1.5e+304 gives sigma=6.74e+153 at separation "
            "40 + 15 = 55, so an observed coordinate could overflow when squared\n")

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
    @pytest.mark.parametrize("flags", [["--xa", "5", "0", "--xd", "20", "0"],
                                       ["--xa", "10", "0", "--xd", "10.25", "0", "--tau", "0.5"]],
                             ids=["inside-safe-zone", "within-capture-radius"])
    def test_a_refused_start_leaves_no_output_directory(self, tmp_path, capsys, fmt, flags):
        """The starts are checked before the CSV is opened, so a refused one
        does not make a missing `--out` directory."""
        out = tmp_path / "out"
        assert main(["run", *flags, "--format", fmt, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

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

    def test_jobs_do_not_change_bytes(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        base = ["matrix", "--trials", "3", "--seed", "4", "--max-steps", "300"]
        out_a, out_b = tmp_path / "serial", tmp_path / "parallel"
        assert main(base + ["--out", str(out_a), "--jobs", "1"]) == 0
        assert main(base + ["--out", str(out_b), "--jobs", "2"]) == 0
        assert (out_a / "winrates.csv").read_bytes() == (out_b / "winrates.csv").read_bytes()
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_trials_above_the_bound_exit_two_before_any_block(
        self, tmp_path, capsys, monkeypatch, source
    ):
        """`--trials 10**12`, and a config file's `"trials": 1e308`, which
        `_integer` takes as a whole number, are refused with `trials` named,
        before any block runs or the output directory is made.  The message
        quotes the value as given, not as a 309-digit integer."""
        def no_block(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(analysis, "run_matrix_block", no_block)
        out = tmp_path / "out"
        given = (["--trials", "1000000000000"] if source == "flag"
                 else ["--config", str(write_config(tmp_path, {"trials": 1e308}))])
        assert main(["matrix", *given, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trials" in err
        assert err.rstrip().endswith("1000000000000" if source == "flag" else "1e+308")
        assert len(err) < 80
        assert not out.exists()

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


# Flags each report command never reads, after the flags it requires.
NEVER_READ = {
    "check": ["--beta 5", "--k 3", "--tau 7", "--out x", "--samples 10", "--e 3 0"],
    "stability --e 3 0 --ua -1 0": ["--k 3", "--tau 7", "--max-steps 5", "--out x",
                                    "--format csv"],
    "margin-table": ["--tau 7", "--r-safe 5", "--max-steps 5",
                     "--failure-criterion margin_breach", "--out x", "--format csv", "--e 3 0"],
}

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
        "flags, setting",
        [(["--e", "3", "0", "--ua", "0", "0", "--beta", "1e10"], "beta=10000000000.0"),
         (["--e", "1e200", "0", "--ua", "0", "0"], "e=(1e+200, 0.0)")],
        ids=["beta-1e10", "sigma-overflows"],
    )
    def test_stability_with_almost_no_accepted_draw_exits_two(self, capsys, flags, setting):
        assert main(["stability"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert setting in captured.err

    @pytest.mark.parametrize(
        "flags",
        [["--e", "2e154", "0", "--ua", "0", "1", "--samples", "5"],
         ["--e", "1e160", "0", "--ua", "0", "1", "--beta", "0"]],
        ids=["default-noise", "noiseless"],
    )
    def test_stability_refuses_an_error_vector_too_long_for_the_estimator(self, capsys, flags):
        """Both printed numpy overflow warnings and expected_cos=nan, and
        exited 0; now they exit 2 before drawing, with e named."""
        assert main(["stability"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error vector e=({float(flags[1])!r}, 0.0) is too long" in captured.err

    @pytest.mark.parametrize(
        "flags",
        [["--ua", "1e308", "1e308", "--samples", "3"],
         ["--ua", "5", "0", "--beta", "0", "--samples", "100"]],
        ids=["overflowing", "five-units"],
    )
    def test_stability_refuses_a_control_longer_than_one_unit(self, capsys, flags):
        """The condition is stated for ||ua|| <= 1; these printed lhs=inf
        with numpy warnings, and lhs=2, outside [-1, 1], and exited 0."""
        assert main(["stability", "--e", "3", "0"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "attacker control ua=" in captured.err

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

    @pytest.mark.parametrize(
        "flags", [["--samples", "10"], ["--e", "3", "0"], ["--ua", "-1", "0"]],
        ids=["samples", "e", "ua"],
    )
    def test_default_suite_refuses_flags_it_never_reads(self, capsys, flags):
        err = refused_by_argparse(["check"] + flags, capsys)
        assert f"unrecognized arguments: {flags[0]}" in err

    def test_stability_requires_vectors(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        err = refused_by_argparse(["stability"], capsys)
        assert "the following arguments are required: --e, --ua" in err

    @pytest.mark.parametrize(
        "command, flag",
        [pytest.param(command, flag, id=f"{command.split()[0]}-{flag.split()[0][2:]}")
         for command, flags in NEVER_READ.items() for flag in flags],
    )
    def test_flags_the_command_never_reads_exit_two(self, capsys, command, flag):
        """Each of these flags was once accepted by `check` and ignored by
        the report it printed; now the command that prints it refuses it."""
        err = refused_by_argparse(f"{command} {flag}".split(), capsys)
        assert f"unrecognized arguments: {flag}" in err

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

    @pytest.mark.parametrize(
        "flags",
        [["--samples", "1"], ["--stability", "--e", "3", "0", "--ua", "-1", "0"],
         ["--e", "3", "0"], ["--ua", "-1", "0"]],
        ids=["one-sample", "with-stability", "with-e", "with-ua"],
    )
    def test_margin_table_refusals_exit_two(self, capsys, flags):
        """The estimator refuses one sample; argparse refuses the flags that
        belong to `stability`."""
        if flags == ["--samples", "1"]:
            assert main(["margin-table"] + flags) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")
        else:
            err = refused_by_argparse(["margin-table"] + flags, capsys)
            assert f"unrecognized arguments: {flags[0]}" in err


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


def _with_config(argv: list[str], config: dict, tmp: str) -> list[str]:
    """`argv`, with the config file written under `tmp` if there is one."""
    if not config:
        return argv
    path = Path(tmp) / "config.json"
    path.write_text(json.dumps(config))
    return [*argv, "--config", str(path)]


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
    ran, step, block = [], engine.step, analysis.run_matrix_block

    def counted(name, fn):
        def call(*args):
            ran.append(name)
            return fn(*args)
        return call

    err = io.StringIO()
    with (tempfile.TemporaryDirectory() as out, tempfile.TemporaryDirectory() as tmp,
          mock.patch.object(engine, "step", counted("step", step)),
          mock.patch.object(analysis, "run_matrix_block", counted("block", block)),
          redirect_stdout(io.StringIO()), redirect_stderr(err)):
        code = main([*_with_config(argv, config, tmp), "--out", out])
        written = os.listdir(out)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert ran == [] and written == []
    else:
        assert code in (0, 1) and err.getvalue() == ""


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


@given(_estimator_argvs())
@example((["margin-table", "--samples", "200", "--beta", "1.5e304"], {}))  # drew, then warned, before the bound
@example((["stability", "--samples", "2", "--e", "3", "-1e-1", "--ua", "0", "1"], {"beta": "abc"}))
def test_an_accepted_estimate_prints_and_a_refused_one_draws_nothing(case):
    """Every `margin-table` and `stability` input the command line accepts
    prints finite numbers and exits 0 with nothing on stderr; every one it
    refuses exits 2 with an `error:` line before the estimator's first draw.
    pytest turns any warning into an error, so neither may warn."""
    argv, config = case
    draws, out, err = [], io.StringIO(), io.StringIO()
    with (tempfile.TemporaryDirectory() as tmp,
          mock.patch.object(cli, "Rng", counting_rng(draws)),
          redirect_stdout(out), redirect_stderr(err)):
        code = main(_with_config(argv, config, tmp))
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert draws == []
    else:
        assert code == 0 and err.getvalue() == "" and draws
        assert "nan" not in out.getvalue() and "inf" not in out.getvalue()


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
