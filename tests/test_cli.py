"""Command-line front end: precedence, exit codes, artifacts, determinism."""
from __future__ import annotations

import argparse
import json
from dataclasses import fields

import pytest

from guardian_sim.analysis import estimate_mean_margin_change
from guardian_sim.cli import (
    _DEFAULTS,
    SEED_ENV_VAR,
    ConfigError,
    OutputFormat,
    build_parser,
    main,
    resolve_config,
)
from guardian_sim.engine import TRAJECTORY_HEADER, FailureCriterion, WorldConfig
from guardian_sim.observation import NoiseParams
from guardian_sim.rng import Rng, derive_seed
from guardian_sim.strategies import AttackerBehavior, DefenderStrategy


def parse(argv):
    return build_parser().parse_args(argv)


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestResolveConfig:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        cfg = resolve_config(parse(["run"]))
        assert cfg.defender is DefenderStrategy.PURE_PURSUIT
        assert cfg.attacker.value == "linear"
        assert cfg.trials == 1000
        assert cfg.seed == 0
        assert cfg.world.noise.beta_d == 0.05
        assert cfg.world.tau == 2.0
        assert cfg.world == WorldConfig()

    def test_flat_dict_config_reproduces_world(self, tmp_path):
        """A summary.json or report.json `config` block is a valid config
        file, and resolving it gives back the world it was written from."""
        world = WorldConfig(
            r_interest=60.0, r_safe=12.5, tau=1.5,
            noise=NoiseParams(beta_b=0.01, beta_d=0.02, beta_v=0.03, nu=0.25),
            k=0.75, max_steps=321, failure_criterion=FailureCriterion.MARGIN_BREACH,
        )
        default = WorldConfig()
        for new, old in ((world, default), (world.noise, default.noise)):
            assert all(getattr(new, f.name) != getattr(old, f.name) for f in fields(new))
        path = write_config(tmp_path, world.to_flat_dict())
        assert resolve_config(parse(["run", "--config", str(path)])).world == world

    def test_every_flag_is_a_config_key(self):
        """Flags and config keys share one name set; the check-only options
        are the exceptions."""
        check_only = {"config", "stability", "margin_table", "e", "ua", "samples"}
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for name in ("run", "matrix", "check"):
            dests = {a.dest for a in subparsers.choices[name]._actions if a.option_strings}
            assert dests - {"help"} - check_only <= set(_DEFAULTS), name

    def test_flag_beats_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        path = write_config(tmp_path, {"defender": "dm", "seed": 5, "beta": 0.1})
        cfg = resolve_config(parse(["run", "--config", str(path), "--defender", "pp"]))
        assert cfg.defender is DefenderStrategy.PURE_PURSUIT  # flag wins
        assert cfg.seed == 5  # file survives where no flag given
        assert cfg.world.noise.beta_d == 0.1

    def test_file_beats_env_for_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        path = write_config(tmp_path, {"seed": 5})
        assert resolve_config(parse(["run", "--config", str(path)])).seed == 5

    def test_env_fallback_for_seed(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        assert resolve_config(parse(["run"])).seed == 99

    def test_flag_beats_env_for_seed(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        assert resolve_config(parse(["run", "--seed", "7"])).seed == 7

    def test_bad_env_seed_rejected(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        with pytest.raises(ConfigError):
            resolve_config(parse(["run"]))

    def test_unknown_config_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"defnder": "dm"})
        with pytest.raises(ConfigError, match="defnder"):
            resolve_config(parse(["run", "--config", str(path)]))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            resolve_config(parse(["run", "--config", str(path)]))

    def test_bad_strategy_name_in_file(self, tmp_path):
        path = write_config(tmp_path, {"defender": "ppx"})
        with pytest.raises(ConfigError, match="pp, dm, adm"):
            resolve_config(parse(["run", "--config", str(path)]))

    @pytest.mark.parametrize(
        "payload",
        [{"trials": 0}, {"jobs": 0}, {"seed": -1}, {"xa": [1.0]}, {"tau": -2.0},
         {"trials": 2.7}, {"jobs": 1.5}, {"seed": 0.5}, {"max_steps": 99.9}, {"trials": "2.7"},
         {"trials": True}, {"jobs": None}, {"seed": [1]}, {"tau": None}, {"beta": [0.1]},
         {"nu": {}}, {"out": 5}, {"tau": True}, {"beta": False}, {"k": "wide"},
         {"r_safe": [10.0]}, {"r_interest": None}, {"beta_b": {}}, {"beta_v": True},
         {"out": None}, {"out": ["a"]}],
    )
    def test_invalid_values_rejected(self, tmp_path, payload, monkeypatch):
        """Each bad value is refused with its key named in the message."""
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError) as exc:
            resolve_config(parse(["matrix", "--config", str(path)]))
        (key,) = payload
        assert key in str(exc.value)

    def test_whole_number_counts_accepted(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        path = write_config(tmp_path, {"trials": 3.0, "jobs": "2", "seed": 7, "max_steps": 50.0})
        cfg = resolve_config(parse(["matrix", "--config", str(path)]))
        assert (cfg.trials, cfg.jobs, cfg.seed, cfg.world.max_steps) == (3, 2, 7, 50)

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
    def test_enum_names_in_file(self, tmp_path, key, name, member, valid):
        cfg = resolve_config(parse(["run", "--config", str(write_config(tmp_path, {key: name}))]))
        resolved = {"defender": cfg.defender, "attacker": cfg.attacker,
                    "failure_criterion": cfg.world.failure_criterion,
                    "format": cfg.output_format}
        assert resolved[key] is member
        path = write_config(tmp_path, {key: "zigzag"}, name="bad.json")
        with pytest.raises(ConfigError, match=rf"unknown {key} 'zigzag' \(valid: {valid}\)"):
            resolve_config(parse(["run", "--config", str(path)]))


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
    def test_spiral_with_unit_safe_radius_exits_two(self, tmp_path, capsys, command):
        code = main(command + ["--r-safe", "0.5", "--tau", "0.1", "--out", str(tmp_path)])
        assert code == 2
        assert "r_safe" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command",
        [["matrix", "--trials", "3", "--r-safe", "45.5"],
         ["matrix", "--trials", "3", "--r-interest", "49.5"],
         ["run", "--r-safe", "45.5"],
         ["run", "--xa", "30", "0", "--r-interest", "49.5"]],
        ids=["matrix-r_safe", "matrix-r_interest", "run-r_safe", "run-r_interest"],
    )
    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_world_the_sampled_starts_can_violate_exits_two(self, tmp_path, capsys, command,
                                                             seed):
        """Refused on every seed, before any trial, with the setting named."""
        code = main(command + ["--seed", seed, "--out", str(tmp_path)])
        assert code == 2
        setting = command[-2].lstrip("-").replace("-", "_")
        assert f"error: {setting}=" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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


    def test_huge_noise_exits_two_before_the_episode(self, tmp_path, capsys):
        """Passes the per-coefficient checks, but its observations would
        overflow when squared: refused before any step or file write."""
        code = main(["run", "--beta", "1.5e304", "--seed", "0", "--defender", "dm",
                     "--attacker", "linear", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: noise too large: beta=")
        assert list(tmp_path.iterdir()) == []

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


class TestCheckCommand:
    def test_default_suite_reports_known_dominance_failure(self, capsys, monkeypatch):
        """Exit 1 by design: the margin-step dominance sweep documents real
        counterexamples (see check_margin_step_dominance); everything else
        passes."""
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        assert main(["check"]) == 1
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert out.count("FAIL") == 1
        assert "FAIL margin_step_dominance:" in out
        assert "gain < 0.5" in out

    def test_stability_diagnostic_line(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        code = main(["check", "--stability", "--e", "3", "0", "--ua", "-1", "0", "--beta", "0"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("lhs=-1 ")
        assert "condition_holds=true" in out

    @pytest.mark.parametrize(
        "flags, setting",
        [(["--e", "3", "0", "--ua", "0", "0", "--beta", "1e10"], "beta=10000000000.0"),
         (["--e", "1e200", "0", "--ua", "0", "0"], "e=(1e+200, 0.0)")],
        ids=["beta-1e10", "sigma-overflows"],
    )
    def test_stability_with_almost_no_accepted_draw_exits_two(self, capsys, flags, setting):
        assert main(["check", "--stability"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert setting in captured.err

    @pytest.mark.parametrize(
        "flags", [["--samples", "10"], ["--e", "3", "0"], ["--ua", "-1", "0"]],
        ids=["samples", "e", "ua"],
    )
    def test_default_suite_refuses_flags_it_never_reads(self, capsys, flags):
        assert main(["check"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_stability_requires_vectors(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        assert main(["check", "--stability"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_margin_table_prints_the_estimates(self, capsys):
        """One header and one row per strategy, each row the estimator's
        numbers on stream derive_seed(seed, 40 + i) at the world's noise
        and k."""
        argv = ["check", "--margin-table", "--samples", "3000", "--seed", "7", "--beta", "0.1"]
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
        assert main(["check", "--margin-table"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
