"""Episode loop: termination rules, determinism, trajectory exports."""
from __future__ import annotations

import json
import math
import os
import stat

import numpy as np
import pytest
from scipy import stats

from conftest import Record, as_pair, margin_of
from guardian_sim import engine, strategies
from guardian_sim.analysis import MATRIX_PAIRS, trial_seeds
from guardian_sim.engine import (
    ATTACKER_RADIUS_RANGE,
    DEFENDER_RADIUS_RANGE,
    TRAJECTORY_HEADER,
    EpisodeResult,
    FailureCriterion,
    InvalidInitializationError,
    Outcome,
    WorldConfig,
    episode_outcome,
    polar_point,
    run_episode,
    StepRecord,
    sample_initial_positions,
    step,
    summary_json_text,
    trajectory_csv_text,
)
from guardian_sim.fileio import fmt9, open_atomic, write_text_atomic
from guardian_sim.geometry import Vec2
from guardian_sim.observation import NoiseParams, reliability
from guardian_sim.rng import NORMAL_WINDOW, Rng, seed_words, word_generator
from guardian_sim.strategies import (
    MATRIX_ATTACKERS,
    AttackerBehavior,
    DefenderStrategy,
)
from oracles import (
    capture_countdown_steps, given_start_clearing_chance, sampled_start_clearing_chance,
    uniform_call_starts)

NOISELESS = NoiseParams(beta_b=0.0, beta_d=0.0, beta_v=0.0, nu=1.0)


def noiseless_config(**kwargs) -> WorldConfig:
    return WorldConfig(noise=NOISELESS, **kwargs)


def outcome_of(t: int, xa: Vec2, xd: Vec2, cfg: WorldConfig) -> Outcome | None:
    """`episode_outcome`, handed the points as pairs and the norms its caller holds."""
    return episode_outcome(t, as_pair(xa), as_pair(xd), cfg, xa.distance_to(xd), xa.norm())


def step_of(t: int, xa: Vec2, xd: Vec2, rng, defender, attacker,
            cfg: WorldConfig) -> tuple[StepRecord, Vec2, Vec2]:
    """`step` from `Vec2`s, handed the norms of the state as `run_episode`
    holds them; the next positions come back as `Vec2`s."""
    record, next_xa, next_xd = step(t, defender, attacker, cfg, as_pair(xa), as_pair(xd), rng,
                                    xa.distance_to(xd), xa.norm())
    return record, Vec2(*next_xa), Vec2(*next_xd)


class TestWorldConfig:
    def test_defaults(self):
        cfg = WorldConfig()
        assert cfg.tau == 2.0
        assert cfg.k == 0.5
        assert cfg.max_steps == 10_000
        assert cfg.failure_criterion is FailureCriterion.POSITION_BREACH

    def test_zone_radius_defaults(self):
        cfg = WorldConfig()
        assert (cfg.r_interest, cfg.r_safe) == (50.0, 10.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"tau": 0.0}, {"tau": -1.0}, {"k": 0.0}, {"max_steps": 0}, {"tau": math.nan},
         {"k": math.nan}, {"noise": NoiseParams(beta_d=1.5e304)},
         {"noise": NoiseParams(beta_d=1e300)}, {"noise": NoiseParams(beta_b=1e307)},
         {"noise": NoiseParams(beta_v=1e307, nu=0.0)}],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            WorldConfig(**kwargs)

    @pytest.mark.parametrize(
        "r_interest,r_safe",
        [(10.0, 10.0), (5.0, 10.0), (10.0, 0.0), (10.0, -1.0), (50.0, math.nan), (math.nan, 10.0)],
    )
    def test_rejects_bad_radii(self, r_interest, r_safe):
        with pytest.raises(ValueError, match="r_safe < r_interest"):
            WorldConfig(r_interest=r_interest, r_safe=r_safe)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"k": math.inf}, "reliability half-width k must be finite, got inf"),
         ({"tau": math.inf}, "capture radius tau must be finite, got inf"),
         ({"max_steps": math.nan}, "max_steps must be >= 1, got nan"),
         ({"r_interest": math.inf}, "r_interest=inf too large: "),
         ({"r_interest": math.inf, "noise": NOISELESS}, "r_interest=inf too large: "),
         ({"r_interest": 1e200, "noise": NOISELESS}, "r_interest=1e+200 too large: "),
         ({"r_interest": 1e153}, "noise too large: beta=0.05 gives sigma="),
         ({"noise": NoiseParams(beta_d=1e300)}, "noise too large: beta=1e+300 gives sigma=")],
        ids=["k-inf", "tau-inf", "max_steps-nan", "r_interest-inf", "r_interest-inf-noiseless",
             "r_interest-1e200-noiseless", "r_interest-1e153", "beta-1e300"],
    )
    def test_refuses_a_setting_by_name(self, kwargs, message):
        """A non-finite setting, or an r_interest that breaks the coordinate
        bound on its own, is named; the noise is named where it is the cause."""
        with pytest.raises(ValueError) as exc:
            WorldConfig(**kwargs)
        assert str(exc.value).startswith(message)

    def test_accepts_a_noiseless_reach_just_inside_the_bound(self):
        assert WorldConfig(r_interest=6e153, noise=NOISELESS).r_interest == 6e153

    def test_noise_bound_scales_with_the_step_cap(self):
        """The bound holds at the largest separation the step cap allows, so
        a shorter cap admits more noise; a cap beyond any run is accepted."""
        noise = NoiseParams(beta_d=1e300)
        assert WorldConfig(noise=noise, max_steps=100).noise is noise
        assert WorldConfig(max_steps=10**400).max_steps == 10**400

    def test_flat_dict_round_trips_through_json(self):
        flat = WorldConfig().to_flat_dict()
        assert flat["beta"] == 0.05
        assert flat["failure_criterion"] == "position_breach"
        assert json.loads(json.dumps(flat)) == flat


class TestStep:
    def test_exact_pursuit_step(self):
        cfg = noiseless_config()
        record, xa, xd = step_of(0, Vec2(10, 0), Vec2(0, 0), Rng(0), DefenderStrategy.PURE_PURSUIT,
                                 AttackerBehavior.STATIC, cfg)
        record = Record(*record)
        assert xd == Vec2(1, 0)
        assert xa == Vec2(10, 0)
        assert record.t == 0
        assert record.y == Vec2(10, 0)
        assert record.margin == pytest.approx(5.0, abs=1e-12)
        assert record.reliability == 1.0

    def test_separation_shrinks_by_one(self):
        cfg = noiseless_config()
        _, xa, xd = step_of(0, Vec2(10, 0), Vec2(0, 0), Rng(0), DefenderStrategy.PURE_PURSUIT,
                            AttackerBehavior.STATIC, cfg)
        assert xa.distance_to(xd) == pytest.approx(9.0, abs=1e-12)


class TestEpisodeOutcome:
    def test_live(self):
        assert outcome_of(0, Vec2(20, 0), Vec2(0, 0), WorldConfig()) is None

    def test_capture_beats_breach(self):
        """If capture and breach both hold, capture wins (tie to defender)."""
        cfg = WorldConfig()
        assert outcome_of(3, Vec2(9, 0), Vec2(8, 0), cfg) is Outcome.CAPTURED

    def test_position_breach(self):
        assert outcome_of(3, Vec2(9, 0), Vec2(30, 0), WorldConfig()) is Outcome.BREACHED

    def test_margin_breach(self):
        cfg = WorldConfig(failure_criterion=FailureCriterion.MARGIN_BREACH)
        # Attacker outside the safe zone but the margin has already collapsed.
        xa, xd = Vec2(12, 0), Vec2(0.5, 0)
        assert xa.norm() > cfg.r_safe
        assert margin_of(xa, xd) <= cfg.r_safe
        assert outcome_of(1, xa, xd, cfg) is Outcome.BREACHED
        assert outcome_of(1, xa, xd, WorldConfig()) is None  # position rule says live

    def test_survived_at_cap(self):
        cfg = WorldConfig(max_steps=5)
        assert outcome_of(5, Vec2(30, 0), Vec2(0, 0), cfg) is Outcome.SURVIVED


class TestRunEpisode:
    def test_capture_countdown(self):
        cfg = noiseless_config()
        result = run_episode(
            Vec2(10, 0), Vec2(0, 0), DefenderStrategy.PURE_PURSUIT, AttackerBehavior.STATIC, cfg, 0
        )
        assert result.outcome is Outcome.CAPTURED
        assert result.end_time == capture_countdown_steps(10.0, cfg.tau) == 8
        assert len(result.trajectory) == result.end_time + 1

    def test_pursuit_closes_exactly_one_per_step(self):
        cfg = noiseless_config()
        result = run_episode(
            Vec2(10, 0), Vec2(0, 0), DefenderStrategy.PURE_PURSUIT, AttackerBehavior.STATIC, cfg, 0
        )
        seps = [rec.xa.distance_to(rec.xd) for rec in map(Record._make, result.trajectory)]
        for before, after in zip(seps, seps[1:]):
            assert before - after == pytest.approx(1.0, abs=1e-12)

    def test_invalid_initializations(self):
        cfg = WorldConfig()
        pp, lin = DefenderStrategy.PURE_PURSUIT, AttackerBehavior.LINEAR
        with pytest.raises(InvalidInitializationError):
            run_episode(Vec2(5, 0), Vec2(20, 0), pp, lin, cfg, 0)  # attacker inside safe zone
        with pytest.raises(InvalidInitializationError):
            run_episode(Vec2(60, 0), Vec2(0, 0), pp, lin, cfg, 0)  # outside zone of interest
        with pytest.raises(InvalidInitializationError):
            run_episode(Vec2(20, 0), Vec2(19, 0), pp, lin, cfg, 0)  # within capture range
        spiral = AttackerBehavior.SPIRAL
        with pytest.raises(InvalidInitializationError, match="r_safe"):
            run_episode(Vec2(20, 0), Vec2(0, 0), pp, spiral, WorldConfig(r_safe=1.0), 0)

    @pytest.mark.parametrize("criterion", list(FailureCriterion))
    def test_spiral_stays_in_domain_just_above_unit_safe_radius(self, criterion):
        """With r_safe > 1 a live spiral attacker never reaches radius <= 1."""
        cfg = WorldConfig(r_safe=1.01, tau=0.1, failure_criterion=criterion)
        for seed in range(5):
            xa, xd = sample_initial_positions(Rng(seed), min_separation=cfg.tau)
            result = run_episode(
                xa, xd, DefenderStrategy.PURE_PURSUIT, AttackerBehavior.SPIRAL, cfg, seed
            )
            # every state but the terminal one was live and moved the attacker
            assert all(rec.xa.norm() > 1.0 for rec in map(Record._make, result.trajectory[:-1]))

    @pytest.mark.parametrize("attacker", [AttackerBehavior.LINEAR, AttackerBehavior.INTELLIGENT])
    def test_homing_attacker_needs_a_safe_radius_its_control_is_defined_on(self, attacker):
        """Straight at the origin, 4 ahead of its pursuer, the attacker is at
        radius about 5e-13 after 45 steps: below where the linear control is
        defined, but not inside r_safe = 1e-14.  That world is refused before
        the first step; r_safe = 1e-12 ends the episode in a breach there."""
        xa, xd, pp = Vec2(45.0000000000005, 0.0), Vec2(49.0, 0.0), DefenderStrategy.PURE_PURSUIT
        with pytest.raises(InvalidInitializationError, match="r_safe"):
            run_episode(xa, xd, pp, attacker, noiseless_config(r_safe=1e-14), 0)
        result = run_episode(xa, xd, pp, attacker, noiseless_config(r_safe=1e-12), 0)
        assert result.outcome is Outcome.BREACHED and result.end_time == 45

    def test_immediate_margin_breach(self):
        cfg = WorldConfig(failure_criterion=FailureCriterion.MARGIN_BREACH)
        result = run_episode(
            Vec2(12, 0), Vec2(0.5, 0), DefenderStrategy.PURE_PURSUIT, AttackerBehavior.LINEAR, cfg, 0
        )
        assert result.outcome is Outcome.BREACHED
        assert result.end_time == 0
        assert len(result.trajectory) == 1  # terminal record only

    def test_deterministic_per_seed(self):
        cfg = WorldConfig()
        args = (Vec2(47, 3), Vec2(5, -2), DefenderStrategy.ADJUSTED_DEFENSE_MARGIN, AttackerBehavior.LINEAR, cfg)
        a = run_episode(*args, 123)
        b = run_episode(*args, 123)
        assert trajectory_csv_text(a) == trajectory_csv_text(b)
        assert a.outcome is b.outcome and a.end_time == b.end_time
        c = run_episode(*args, 124)
        assert trajectory_csv_text(a) != trajectory_csv_text(c)

    @pytest.mark.parametrize("defender, attacker", MATRIX_PAIRS, ids=lambda e: e.value)
    def test_a_sink_gets_every_record_and_none_is_kept(self, defender, attacker):
        """Without a sink the result holds every record, the terminal one
        last; with one, the sink gets the same records in order and the
        result holds none."""
        cfg = WorldConfig()
        xa, xd = sample_initial_positions(Rng(5), min_separation=cfg.tau)
        kept = run_episode(xa, xd, defender, attacker, cfg, 5)
        assert [rec[0] for rec in kept.trajectory] == list(range(kept.end_time + 1))
        assert Record(*kept.trajectory[-1]).y is None
        streamed = []
        result = run_episode(xa, xd, defender, attacker, cfg, 5, sink=streamed.append)
        assert streamed == kept.trajectory
        assert (result.outcome, result.end_time) == (kept.outcome, kept.end_time)
        assert result.trajectory == []

    @pytest.mark.parametrize("window", [NORMAL_WINDOW, 7])
    @pytest.mark.parametrize("defender, attacker", MATRIX_PAIRS, ids=lambda e: e.value)
    def test_windowed_normals_are_the_per_call_stream(self, monkeypatch, defender, attacker,
                                                      window):
        """`run_episode` reads its normals a window at a time; a loop of
        `step` on a plain `Rng`, one numpy call per draw, gives the same
        records and outcome.  At the odd window every episode crosses
        several window edges, some of them inside a pair."""
        monkeypatch.setattr("guardian_sim.rng.NORMAL_WINDOW", window)
        cfg = WorldConfig()
        draws_per_step = 4 if attacker is AttackerBehavior.INTELLIGENT else 2
        longest = 0
        for seed in range(4):
            xa, xd = sample_initial_positions(Rng(seed), min_separation=cfg.tau)
            result = run_episode(xa, xd, defender, attacker, cfg, seed)
            rng, records, t = Rng(seed), [], 0
            outcome = outcome_of(0, xa, xd, cfg)
            while outcome is None:
                record, xa, xd = step_of(t, xa, xd, rng, defender, attacker, cfg)
                records.append(record)
                t += 1
                outcome = outcome_of(t, xa, xd, cfg)
            assert (result.outcome, result.end_time) == (outcome, t)
            assert result.trajectory[:-1] == records
            assert result.trajectory[-1][1:5] == (*as_pair(xa), *as_pair(xd))
            longest = max(longest, draws_per_step * t)
        assert longest > 7

    @pytest.mark.parametrize("defender", list(DefenderStrategy))
    @pytest.mark.parametrize("attacker", [AttackerBehavior.LINEAR, AttackerBehavior.SPIRAL, AttackerBehavior.INTELLIGENT])
    def test_episode_invariants(self, defender, attacker):
        cfg = WorldConfig(max_steps=400)
        for trial in range(4):
            xa, xd = sample_initial_positions(Rng(1000 + trial), min_separation=cfg.tau)
            result = run_episode(xa, xd, defender, attacker, cfg, 2000 + trial)
            traj = [Record(*rec) for rec in result.trajectory]
            assert len(traj) == result.end_time + 1
            assert [rec.t for rec in traj] == list(range(result.end_time + 1))
            final = traj[-1]
            # Exactly one outcome, consistent with the terminal state.
            if result.outcome is Outcome.CAPTURED:
                assert final.xa.distance_to(final.xd) <= cfg.tau
            elif result.outcome is Outcome.BREACHED:
                assert final.xa.norm() <= cfg.r_safe
            else:
                assert result.end_time == cfg.max_steps
            # No earlier termination: every non-terminal state is live.
            for rec in traj[:-1]:
                assert outcome_of(rec.t, rec.xa, rec.xd, cfg) is None
            # Unit speed limit for both agents.
            for before, after in zip(traj, traj[1:]):
                assert after.xa.distance_to(before.xa) <= 1.0 + 1e-12
                assert after.xd.distance_to(before.xd) <= 1.0 + 1e-12
            # Margin trace recomputes from recorded positions.
            for rec in traj:
                if rec.margin is not None:
                    assert rec.margin == pytest.approx(
                        margin_of(rec.xa, rec.xd), abs=1e-12)
            # Observation recorded for every live step, absent at the end.
            assert all(rec.y is not None and rec.reliability is not None for rec in traj[:-1])
            assert final.y is None and final.reliability is None


class TestRecords:
    """The trajectory `run` writes: one record per step, each holding the
    reliability the step computed."""

    def test_recorded_reliability_is_that_of_the_observation(self):
        cfg = WorldConfig()
        result = run_episode(
            Vec2(45, 10), Vec2(3, -4), DefenderStrategy.ADJUSTED_DEFENSE_MARGIN,
            AttackerBehavior.INTELLIGENT, cfg, 17,
        )
        assert result.end_time > 5
        for rec in map(Record._make, result.trajectory[:-1]):
            assert rec.reliability == reliability(cfg.noise, cfg.k, rec.y.distance_to(rec.xd))

    def test_one_reliability_per_adm_step(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return reliability(*args)

        monkeypatch.setattr(engine, "reliability", counted)
        monkeypatch.setattr(strategies, "reliability", counted)
        cfg = WorldConfig()
        for trial in range(3):
            xa, xd = sample_initial_positions(Rng(trial), min_separation=cfg.tau)
            for attacker in MATRIX_ATTACKERS:
                calls.clear()
                result = run_episode(
                    xa, xd, DefenderStrategy.ADJUSTED_DEFENSE_MARGIN, attacker, cfg, trial
                )
                assert result.end_time > 0
                assert len(calls) == result.end_time
                assert len(result.trajectory) == result.end_time + 1


class TestSampleInitialPositions:
    def test_deterministic(self):
        assert sample_initial_positions(Rng(9)) == sample_initial_positions(Rng(9))

    def test_polar_point_maps_draws_as_uniform_does(self):
        """Radius, then angle, from two `random()` draws, bit for bit as
        `Generator.uniform` maps the same draws."""
        for seed in range(200):
            rng = Rng(seed)
            radius, angle = rng.uniform(3.0, 7.0), rng.uniform(-math.pi, math.pi)
            assert polar_point(*Rng(seed).random(2).tolist(), 3.0, 7.0) == Vec2.from_polar(
                radius, angle), seed

    def test_ranges_and_angle_uniformity(self):
        rng = Rng(31)
        n = 20_000
        attacker_radii = np.empty(n)
        attacker_angles = np.empty(n)
        defender_radii = np.empty(n)
        for i in range(n):
            xa, xd = sample_initial_positions(rng)
            attacker_radii[i] = xa.norm()
            attacker_angles[i] = math.atan2(xa.y, xa.x)
            defender_radii[i] = xd.norm()
        lo_a, hi_a = ATTACKER_RADIUS_RANGE
        lo_d, hi_d = DEFENDER_RADIUS_RANGE
        assert attacker_radii.min() >= lo_a and attacker_radii.max() <= hi_a
        assert defender_radii.min() >= lo_d and defender_radii.max() <= hi_d
        counts, _ = np.histogram(attacker_angles, bins=20, range=(-math.pi, math.pi))
        chi2 = float(((counts - n / 20) ** 2 / (n / 20)).sum())
        assert chi2 < stats.chi2.ppf(0.999, df=19)

    def test_min_separation_honored(self):
        for seed in range(50):
            xa, xd = sample_initial_positions(Rng(seed), min_separation=30.0)
            assert xa.distance_to(xd) > 30.0

    @pytest.mark.parametrize("tau", [2.0, 30.0])
    @pytest.mark.parametrize(
        "given", [{}, {"xa": Vec2(15.0, 0.0)}, {"xd": Vec2(46.0, 0.0)}], ids=["none", "xa", "xd"]
    )
    def test_is_four_uniform_calls_per_attempt(self, given, tau):
        """One `random(4)` per attempt gives the starts of four `Rng.uniform`
        calls: both points drawn on every attempt, in the usual order, a
        given start taking the place of its draw and the pair that plays
        being the one whose separation is tested.  At tau 30, 4, 232 and 45
        of the 250 seeds redraw (no start, `xa`, `xd` given)."""
        for seed in range(250):
            want = uniform_call_starts(Rng(seed), tau, **given)
            assert sample_initial_positions(Rng(seed), tau, **given) == want, seed

    @pytest.mark.parametrize("tau", [2.0, 40.0])
    def test_a_trial_word_generator_gives_the_rng_starts(self, tau):
        """The matrix samples from the generator `word_generator` builds from
        a trial's init seed words; `run` from that seed's `Rng`.  At tau 40,
        38 of the 250 trials redraw."""
        for trial in range(250):
            init_seed = trial_seeds(0, trial)[0]
            gen = word_generator(seed_words(init_seed))
            assert sample_initial_positions(gen, tau) == sample_initial_positions(
                Rng(init_seed), tau), trial

    def test_capture_radius_bound_of_sampled_starts(self):
        """With both starts sampled, tau is refused above the largest whole
        radius at which all 1,000 attempts fail with chance below 1e-12,
        that chance computed by quadrature; a given start can lift the
        bound (an attacker at radius 50 to 66.46, a defender at 20 to 68.57)."""
        bound, attempts = engine._MAX_SAMPLED_TAU, engine._MAX_INIT_REDRAWS

        def all_fail(tau):
            return (1.0 - sampled_start_clearing_chance(tau)) ** attempts

        assert bound.is_integer() and all_fail(bound) < 1e-12 < all_fail(bound + 1.0)
        WorldConfig(tau=bound).check_sampled_starts()
        with pytest.raises(InvalidInitializationError, match="tau=64.00000000000001 exceeds 64"):
            WorldConfig(tau=math.nextafter(bound, math.inf)).check_sampled_starts()
        for given in ({"xa": Vec2(50.0, 0.0)}, {"xd": Vec2(-20.0, 0.0)}):
            WorldConfig(tau=66.0).check_sampled_starts(**given)

    @pytest.mark.parametrize(
        "given, radii",
        [(50.0, DEFENDER_RADIUS_RANGE), (30.0, DEFENDER_RADIUS_RANGE), (0.0, DEFENDER_RADIUS_RANGE),
         (20.0, ATTACKER_RADIUS_RANGE), (3.5, ATTACKER_RADIUS_RANGE), (0.0, ATTACKER_RADIUS_RANGE),
         (5e-324, ATTACKER_RADIUS_RANGE)],
        ids=["xa-50", "xa-30", "xa-origin", "xd-20", "xd-3.5", "xd-origin", "xd-subnormal"])
    def test_clearing_chance_of_a_given_start_is_the_quadrature(self, given, radii):
        """The midpoint rule against the quadrature, at capture radii on
        both sides of every kink, within 5e-5."""
        for tau in np.linspace(0.25, 72.0, 288).tolist():
            p = engine.clearing_chance(given, tau, *radii)
            assert abs(p - given_start_clearing_chance(given, tau, *radii)) <= 5e-5, tau

    def test_clearing_chance_of_extreme_given_starts(self):
        """Without an overflow warning: a start at a subnormal radius clears
        tau as one at the origin does, and one far outside the zone always,
        so that `run` refuses the far start for its place, not for tau."""
        radii = DEFENDER_RADIUS_RANGE
        assert engine.clearing_chance(5e-324, 2.0, *radii) == engine.clearing_chance(
            0.0, 2.0, *radii) == 0.9
        assert engine.clearing_chance(1e307, 2.0, *radii) == 1.0
        WorldConfig().check_sampled_starts(xa=Vec2(1e307, 0.0))

    @pytest.mark.parametrize("given", [{"xa": Vec2(0.0, 50.0)}, {"xd": Vec2(-20.0, 0.0)}])
    def test_capture_radius_bound_of_a_given_start(self, given):
        """With one start given, tau is refused where all 1,000 attempts
        fail with chance 1e-12 or more: a tau 1e-3 below the bound that the
        quadrature puts it at is accepted, and one 1e-3 above it refused."""
        (point,), attempts = given.values(), engine._MAX_INIT_REDRAWS
        radii = DEFENDER_RADIUS_RANGE if "xa" in given else ATTACKER_RADIUS_RANGE
        low, high = 50.0, 80.0  # all fail rarely at low, surely at high
        while high - low > 1e-4:
            tau = 0.5 * (low + high)
            p = given_start_clearing_chance(point.norm(), tau, *radii)
            low, high = (tau, high) if (1.0 - p) ** attempts < 1e-12 else (low, tau)
        WorldConfig(tau=low - 1e-3).check_sampled_starts(**given)
        with pytest.raises(InvalidInitializationError, match="too rarely to start at every seed"):
            WorldConfig(tau=high + 1e-3).check_sampled_starts(**given)

    @pytest.mark.parametrize("tau", [30.0, 60.0, 64.0])
    def test_clearing_chance_is_that_of_the_sampler(self, tau):
        """The quadrature against 400,000 attempts mapped as
        `sample_initial_positions` maps its `random(4)`, within 4.5
        standard errors."""
        n = 400_000
        dr, da, ar, aa = np.random.default_rng(int(tau)).random((4, n))
        (d_lo, d_hi), (a_lo, a_hi) = DEFENDER_RADIUS_RANGE, ATTACKER_RADIUS_RANGE
        d, a = d_lo + (d_hi - d_lo) * dr, a_lo + (a_hi - a_lo) * ar
        phi, psi = -math.pi + 2.0 * math.pi * da, -math.pi + 2.0 * math.pi * aa
        separation = np.hypot(a * np.cos(psi) - d * np.cos(phi), a * np.sin(psi) - d * np.sin(phi))
        p = sampled_start_clearing_chance(tau)
        assert abs(float((separation > tau).mean()) - p) <= 4.5 * math.sqrt(p * (1.0 - p) / n)

    def test_impossible_separation_raises(self):
        # Maximum possible separation is 50 + 20 = 70.
        with pytest.raises(InvalidInitializationError):
            sample_initial_positions(Rng(0), min_separation=71.0)


class TestExports:
    @pytest.fixture()
    def result(self):
        return run_episode(
            Vec2(11, 0), Vec2(0, 0), DefenderStrategy.PURE_PURSUIT, AttackerBehavior.STATIC,
            noiseless_config(), 5,
        )

    def test_csv_layout(self, result):
        text = trajectory_csv_text(result)
        lines = text.splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        assert len(lines) == len(result.trajectory) + 1
        first = lines[1].split(",")
        assert first == ["0", "11", "0", "0", "0", "11", "0", "5.5", "1"]
        last = lines[-1].split(",")
        assert last[5] == "" and last[6] == "" and last[8] == ""  # no terminal observation
        assert text.endswith("\n")

    def test_csv_nine_significant_digits(self):
        result = run_episode(
            Vec2(47, 3), Vec2(5, -2), DefenderStrategy.PURE_PURSUIT, AttackerBehavior.LINEAR,
            WorldConfig(), 7,
        )
        cell = trajectory_csv_text(result).splitlines()[2].split(",")[1]
        assert cell == f"{Record(*result.trajectory[1]).xa_x:.9g}"

    def test_rows_render_each_cell_as_fmt9(self):
        """A live row's one format gives the bytes of `fmt9` cell by cell:
        signed zeros, subnormals, 1e16, values that round up across a power
        of ten, and step numbers of a million and more."""
        values = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e16, -1e16,
                  9.99999999951, -99999999.97, 999999999.7, 0.999999999951, 1e-5, 1.5e300,
                  123456789.5, -0.1]
        rows = [(t, values[i:i + 8]) for t, i in zip((0, 9, 10**6, 2**40), (0, 3, 5, 7))]
        records = [(t, *v) for t, v in rows]
        end = (2**40 + 1, -0.0, 1e16, 5e-324, 9.99999999951, None, None, None, None)
        result = EpisodeResult(Outcome.CAPTURED, end[0], [*records, end])
        expected = [",".join([str(t), *map(fmt9, v)]) for t, v in rows]
        expected.append(f"{end[0]},-0,1e+16,4.94065646e-324,10,,,,")
        assert trajectory_csv_text(result).splitlines()[1:] == expected

    def test_summary_json(self, result):
        payload = json.loads(summary_json_text(result, noiseless_config(), seed=5))
        assert payload["outcome"] == "Captured"
        assert payload["end_time"] == result.end_time
        assert payload["seed"] == 5
        assert payload["config"]["tau"] == 2.0


class TestAtomicWrites:
    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        write_text_atomic(target, "new")
        assert target.read_text() == "new"

    def test_failure_leaves_no_partial_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"

        def explode(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError, match="simulated"):
            write_text_atomic(target, "data")
        monkeypatch.undo()
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # temp file cleaned up

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
    def test_mode_is_that_of_a_plain_open(self, tmp_path, umask):
        """0o666 less the umask, as `open(path, "w")` gives, not mkstemp's 0o600."""
        old = os.umask(umask)
        try:
            write_text_atomic(tmp_path / "atomic.txt", "x")
            with open(tmp_path / "plain.txt", "w"):
                pass
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "atomic.txt").stat().st_mode)
        assert mode == 0o666 & ~umask == stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)

    def test_open_atomic_publishes_only_when_the_block_ends(self, tmp_path):
        target = tmp_path / "out.txt"
        with open_atomic(target) as fh:
            fh.write("part")
            fh.flush()
            (tmp,) = tmp_path.iterdir()
            assert tmp.name.startswith("out.txt.") and tmp.suffix == ".tmp"
            assert tmp.read_text() == "part"
            fh.write(", whole")
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "part, whole"

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_open_atomic_removes_its_temp_file_when_the_block_raises(self, tmp_path, error):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with pytest.raises(error):
            with open_atomic(target) as fh:
                fh.write("new")
                raise error
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "old"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        write_text_atomic(target, "x")
        assert target.read_text() == "x"
