"""Stability diagnostics, margin-change estimators, experiment matrix, checks."""
from __future__ import annotations

import concurrent.futures
import json
import math
import re
import sys
import warnings
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import Normals, angles, as_pair, margin_of, worlds
import guardian_sim.analysis as analysis
from guardian_sim import lanes
from guardian_sim.analysis import (
    MATRIX_PAIRS,
    MAX_TRIALS,
    CheckResult,
    check_margin_grid_oracle,
    check_one_step_gains,
    check_reliability_monotonicity,
    closest_point_grid_search,
    estimate_expected_cos,
    estimate_mean_margin_change,
    one_step_margin_change,
    report_csv_text,
    report_json_text,
    run_default_checks,
    run_experiment_matrix,
    run_matrix_block,
    run_matrix_trial,
    stability_condition_lhs,
    trial_seeds,
)
from guardian_sim.engine import (
    FailureCriterion,
    InvalidInitializationError,
    Outcome,
    WorldConfig,
    episode_outcome,
    run_episode,
    sample_initial_positions,
)
from guardian_sim.geometry import Vec2, closest_safe_reachable_point
from guardian_sim.observation import NoiseParams
from guardian_sim.rng import Rng, derive_seed, seed_words
from guardian_sim.strategies import (
    AttackerBehavior, DefenderStrategy, attacker_control, defender_control)
from oracles import (
    OUTCOME_CODES,
    dm_margin_gain_closed_form,
    expected_cos_quadrature,
    margin_config_from_frame,
    matrix_block_reference,
    one_block_margin_change,
    scalar_noiseless_static_gains,
)

NOISELESS = NoiseParams(beta_b=0.0, beta_d=0.0, beta_v=0.0, nu=1.0)
STILL = Vec2(0.0, 0.0)
# Scalar laws, handed the norms a caller holds and the points as pairs; they
# read none of the arguments passed as None.


def dm_control(y: Vec2, xd: Vec2) -> Vec2:
    return Vec2(*defender_control(
        DefenderStrategy.DEFENSE_MARGIN, as_pair(y), as_pair(xd), None, None, y.distance_to(xd)))


def linear_attacker(xa: Vec2) -> Vec2:
    return Vec2(*attacker_control(
        AttackerBehavior.LINEAR, as_pair(xa), None, None, None, None, xa.norm()))


def margin_change(xa: Vec2, xd: Vec2, strategy, params, k, rng, motion: Vec2) -> float:
    """`one_step_margin_change`, handed the points and the motion as pairs."""
    return one_step_margin_change(
        as_pair(xa), as_pair(xd), strategy, params, k, rng, as_pair(motion))


class TestStabilityConditionLhs:
    def test_head_on_anchor(self):
        assert stability_condition_lhs(Vec2(3, 0), Vec2(-1, 0)) == -1.0

    def test_fleeing_anchor(self):
        assert stability_condition_lhs(Vec2(3, 0), Vec2(1, 0)) == 1.0

    def test_motionless_attacker(self):
        assert stability_condition_lhs(Vec2(3, 0), Vec2(0, 0)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            stability_condition_lhs(Vec2(1, 0), Vec2(-1, 0))


class TestEstimateExpectedCos:
    def test_zero_noise_collinear(self):
        val = estimate_expected_cos(Vec2(10, 0), Vec2(-1, 0), NOISELESS, 100, Rng(0))
        assert val == 1.0

    def test_zero_noise_exact_angle(self):
        e, ua = Vec2(10, 0), Vec2(0, 1)
        val = estimate_expected_cos(e, ua, NOISELESS, 50, Rng(0))
        assert val == pytest.approx(10.0 / math.sqrt(101.0), abs=1e-12)

    def test_requires_separation_above_sqrt2(self):
        with pytest.raises(ValueError):
            estimate_expected_cos(Vec2(1.0, 0), Vec2(0, 1), NOISELESS, 10, Rng(0))

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            estimate_expected_cos(Vec2(10, 0), Vec2(0, 1), NOISELESS, 0, Rng(0))

    def test_matches_quadrature_oracle(self):
        e, ua = Vec2(10, 0), Vec2(0, 1)
        params = NoiseParams()  # sigma^2 = 5 at this separation
        n = 200_000
        mc = estimate_expected_cos(e, ua, params, n, Rng(7))
        mean, std = expected_cos_quadrature((e.x, e.y), (ua.x, ua.y), math.sqrt(5.0))
        assert abs(mc - mean) <= 4.0 * std / math.sqrt(n)

    def test_heavy_rejection_regime_stays_bounded(self):
        e = Vec2(1.5, 0.0)  # just above the sqrt(2) threshold
        params = NoiseParams(beta_b=25.0, beta_d=0.0)  # most draws rejected
        val = estimate_expected_cos(e, Vec2(0, 1), params, 2000, Rng(3))
        assert -1.0 <= val <= 1.0

    def test_deterministic(self):
        args = (Vec2(10, 0), Vec2(0, 1), NoiseParams(), 5000)
        assert estimate_expected_cos(*args, Rng(5)) == estimate_expected_cos(*args, Rng(5))

    def test_draws_in_bounded_blocks(self, monkeypatch):
        """At most `_DRAW_BLOCK` noise pairs are drawn at once, and a sample
        count within one block gives the same estimate bit for bit."""

        class RecordingRng:
            """Stands in for an Rng and records each requested draw size."""

            def __init__(self, seed):
                self._gen = Rng(seed).generator
                self.generator = self
                self.sizes = []

            def standard_normal(self, shape):
                self.sizes.append(shape[0])
                return self._gen.standard_normal(shape)

        e, ua, n = Vec2(3, 0), Vec2(0, 1), 100
        params = NoiseParams(beta_b=4.0, beta_d=0.0)  # about a third of the draws rejected
        whole = estimate_expected_cos(e, ua, params, n, Rng(5))
        monkeypatch.setattr(analysis, "_DRAW_BLOCK", n)
        rec = RecordingRng(5)
        assert estimate_expected_cos(e, ua, params, n, rec) == whole
        assert rec.sizes[0] == n
        monkeypatch.setattr(analysis, "_DRAW_BLOCK", 8)
        rec = RecordingRng(5)
        assert -1.0 <= estimate_expected_cos(e, ua, params, n, rec) <= 1.0
        assert max(rec.sizes) == 8 and len(rec.sizes) >= n // 8
        rec = RecordingRng(5)
        blocked = estimate_expected_cos(e, ua, NOISELESS, n, rec)
        assert rec.sizes == [8] * 12 + [4]
        whole = estimate_expected_cos(e, ua, NOISELESS, n, Rng(5))
        assert blocked == pytest.approx(whole, abs=1e-12)


class TestStabilityDiagnostic:
    """The two sides of the condition that `stability` compares."""

    def test_head_on_condition_holds(self):
        lhs = stability_condition_lhs(Vec2(10, 0), Vec2(-1, 0))
        expected_cos = estimate_expected_cos(Vec2(10, 0), Vec2(-1, 0), NOISELESS, 100, Rng(0))
        assert lhs == -1.0
        assert expected_cos == 1.0

    def test_fleeing_boundary_case(self):
        lhs = stability_condition_lhs(Vec2(10, 0), Vec2(1, 0))
        expected_cos = estimate_expected_cos(Vec2(10, 0), Vec2(1, 0), NOISELESS, 100, Rng(0))
        assert lhs == expected_cos == 1.0  # the condition holds with equality

    def test_noisy_expected_cos_is_a_cosine(self):
        expected_cos = estimate_expected_cos(Vec2(10, 0), Vec2(0, 1), NoiseParams(), 500, Rng(1))
        assert -1.0 <= expected_cos <= 1.0

    @pytest.mark.parametrize(
        "e", [Vec2(math.sqrt(sys.float_info.max / 4.0), 0.0), Vec2(1e154, 0.0),
              Vec2(0.0, -1e160)],
        ids=["at-the-bound", "1e154", "1e160"])
    def test_an_error_vector_too_long_for_the_estimator_is_refused(self, e):
        """||e + w|| ||e + ua|| would overflow to inf (NaN at 1.34e154 and
        above); the bound is sqrt(float max / 4), as in `engine`."""
        with pytest.raises(ValueError, match=re.escape(f"error vector e=({e.x!r}, {e.y!r})")):
            estimate_expected_cos(e, Vec2(0.0, 1.0), NOISELESS, 5, Rng(0))

    def test_the_longest_error_vector_it_accepts_gives_a_finite_cosine(self):
        e = Vec2(math.nextafter(math.sqrt(sys.float_info.max / 4.0), 0.0), 0.0)
        for params in (NOISELESS, NoiseParams()):
            assert -1.0 <= estimate_expected_cos(e, Vec2(0.0, 1.0), params, 1000, Rng(2)) <= 1.0


class TestOneStepMarginChange:
    def test_pursuit_gains_exactly_half_noiseless_static(self):
        for xa, xd in [(Vec2(10, 0), Vec2(0, 0)), (Vec2(8, 5), Vec2(2, 1)), (Vec2(-7, 4), Vec2(1, -1))]:
            delta = margin_change(
                xa, xd, DefenderStrategy.PURE_PURSUIT, NOISELESS, 0.5, Rng(0), STILL
            )
            assert delta == pytest.approx(0.5, abs=1e-9)

    def test_margin_strategy_collinear_matches_pursuit(self):
        # Origin, defender, attacker collinear with the defender in between:
        # the two strategies coincide.
        delta = margin_change(
            Vec2(9, 0), Vec2(3, 0), DefenderStrategy.DEFENSE_MARGIN, NOISELESS, 0.5, Rng(0), STILL
        )
        assert delta == pytest.approx(0.5, abs=1e-9)

    def test_margin_strategy_beats_pursuit_off_axis(self):
        xa, xd = Vec2(5, 3), Vec2(1, 1)
        delta = margin_change(
            xa, xd, DefenderStrategy.DEFENSE_MARGIN, NOISELESS, 0.5, Rng(0), STILL
        )
        assert delta >= 0.5 - 1e-9
        # Direct geometric recomputation. With exact observation the defender
        # steps one unit toward the safe-reachable point of (xa, xd).
        target = Vec2(*closest_safe_reachable_point(as_pair(xa), as_pair(xd), xa.distance_to(xd)))
        ud = (target - xd) / (target - xd).norm()
        expected = margin_of(xa, xd + ud) - margin_of(xa, xd)
        assert delta == pytest.approx(expected, abs=1e-12)

    def test_moving_attacker_changes_margin(self):
        xa, xd = Vec2(30, 0), Vec2(5, 0)
        toward_origin = Vec2(-1, 0)
        delta = margin_change(
            xa, xd, DefenderStrategy.PURE_PURSUIT, NOISELESS, 0.5, Rng(0), toward_origin
        )
        # Head-on closing: both move along the axis, margin shifts by
        # ((||xa||-1)^2 - (||xd||+1)^2) / (2(sep-2)) - rho.
        expected = margin_of(Vec2(29.0, 0.0), Vec2(6.0, 0.0)) - margin_of(xa, xd)
        assert delta == pytest.approx(expected, abs=1e-12)

    @given(
        r=st.floats(min_value=1.42, max_value=30.0),
        rho0=st.floats(min_value=0.05, max_value=40.0),
        psi=st.floats(min_value=-1.55, max_value=1.55),
    )
    def test_margin_step_matches_closed_form(self, r, rho0, psi):
        """A unit step toward the safe-reachable point has a closed-form
        margin change in the defender's frame; the simulated step must agree
        for every admissible (separation, margin, foot angle)."""
        (ax, ay), (dx, dy) = margin_config_from_frame(r, rho0, psi)
        xa, xd = Vec2(ax, ay), Vec2(dx, dy)
        assert margin_of(xa, xd) == pytest.approx(rho0, abs=1e-7, rel=1e-9)
        delta = margin_change(
            xa, xd, DefenderStrategy.DEFENSE_MARGIN, NOISELESS, 0.5, Rng(0), STILL
        )
        assert delta == pytest.approx(dm_margin_gain_closed_form(r, rho0, psi), abs=1e-7)

    def test_margin_step_gain_is_not_bounded_below_by_half(self):
        """Counterexample record: with a large current margin and the foot of
        the perpendicular well off the line of sight, the margin-seeking step
        gains far less than pursuit's +1/2 — it can even lose margin.  Kept
        as a pinned regression so the behavior is documented, not hidden."""
        (ax, ay), (dx, dy) = margin_config_from_frame(1.4143, 12.0, math.radians(42.0))
        xa, xd = Vec2(ax, ay), Vec2(dx, dy)
        dm = margin_change(
            xa, xd, DefenderStrategy.DEFENSE_MARGIN, NOISELESS, 0.5, Rng(0), STILL
        )
        pp = margin_change(
            xa, xd, DefenderStrategy.PURE_PURSUIT, NOISELESS, 0.5, Rng(0), STILL
        )
        assert xa.distance_to(xd) > math.sqrt(2.0)
        assert xa.norm() > xd.norm()
        assert pp == pytest.approx(0.5, abs=1e-9)
        assert dm == pytest.approx(-3.02544, abs=1e-4)
        assert dm < pp


class TestEstimateMeanMarginChange:
    def test_deterministic(self):
        a = estimate_mean_margin_change(DefenderStrategy.PURE_PURSUIT, NoiseParams(), 0.5, 500, Rng(3))
        b = estimate_mean_margin_change(DefenderStrategy.PURE_PURSUIT, NoiseParams(), 0.5, 500, Rng(3))
        assert (a.mean_change, a.stderr) == (b.mean_change, b.stderr)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            estimate_mean_margin_change(DefenderStrategy.PURE_PURSUIT, NoiseParams(), 0.5, 1, Rng(0))

    @pytest.mark.parametrize("strategy", list(DefenderStrategy), ids=lambda s: s.value)
    @pytest.mark.parametrize("k", [math.inf, math.nan, 0.0], ids=["inf", "nan", "zero"])
    def test_refuses_a_bad_half_width_before_drawing(self, strategy, k):
        """Every strategy, `adm` or not, refuses k before its first draw; an
        infinite k printed a table."""
        rng = Rng(0)
        state = rng.generator.bit_generator.state
        with pytest.raises(ValueError, match=r"^reliability half-width k must be"):
            estimate_mean_margin_change(strategy, NoiseParams(), k, 100, rng)
        assert rng.generator.bit_generator.state == state

    def test_fields_and_positive_stderr(self):
        est = estimate_mean_margin_change(DefenderStrategy.DEFENSE_MARGIN, NoiseParams(), 0.5, 2000, Rng(4))
        assert est._fields == ("mean_change", "stderr")
        assert est.stderr > 0.0

    def test_welford_matches_direct_formula(self):
        """The block estimator's mean and stderr are the direct formulas over
        the scalar one-step changes on its draws.

        Replays the block draw order (attacker radii, attacker angles,
        defender radii, defender angles, then an (m, 2) normal block) and
        steps each sample with the scalar code, handing it its two
        normals through a stub stream.  n spans two full blocks and ends
        with a partial one, so this also checks the block merge and that the
        array kernels step like the scalar code."""
        from guardian_sim.analysis import (
            MARGIN_BLOCK,
            MARGIN_SAMPLE_ATTACKER_RADIUS,
            MARGIN_SAMPLE_DEFENDER_RADIUS,
        )

        n = 2_500
        assert n > 2 * MARGIN_BLOCK and n % MARGIN_BLOCK
        for strategy in DefenderStrategy:
            gen = Rng(11).generator
            deltas = []
            while len(deltas) < n:
                m = min(n - len(deltas), MARGIN_BLOCK)
                ra = gen.uniform(*MARGIN_SAMPLE_ATTACKER_RADIUS, m)
                aa = gen.uniform(-math.pi, math.pi, m)
                rd = gen.uniform(*MARGIN_SAMPLE_DEFENDER_RADIUS, m)
                ad = gen.uniform(-math.pi, math.pi, m)
                w = gen.standard_normal((m, 2))
                for i in range(m):
                    xa = Vec2.from_polar(float(ra[i]), float(aa[i]))
                    xd = Vec2.from_polar(float(rd[i]), float(ad[i]))
                    deltas.append(margin_change(
                        xa, xd, strategy, NoiseParams(), 0.5, Normals(*w[i]), linear_attacker(xa)
                    ))
            est = estimate_mean_margin_change(strategy, NoiseParams(), 0.5, n, Rng(11))
            mean = sum(deltas) / n
            var = sum((d - mean) ** 2 for d in deltas) / (n - 1)
            assert est.mean_change == pytest.approx(mean, abs=1e-12)
            assert est.stderr == pytest.approx(math.sqrt(var / n), abs=1e-12)


    @pytest.mark.parametrize(
        "params", [NoiseParams(), NoiseParams(beta_b=0.05, beta_d=0.02, beta_v=0.1, nu=0.5)],
        ids=["default", "every-term"])
    @pytest.mark.parametrize("strategy", list(DefenderStrategy), ids=lambda s: s.value)
    def test_block_step_matches_the_scalar_step_per_sample(self, strategy, params):
        """Each change of a full block, wide enough for `lanes.hypot` to
        certify `np.hypot`, is bit for bit the scalar step's change on the
        same draws: every sample, not only the mean and standard error."""
        from guardian_sim.analysis import (
            MARGIN_BLOCK,
            MARGIN_SAMPLE_ATTACKER_RADIUS,
            MARGIN_SAMPLE_DEFENDER_RADIUS,
        )

        m = MARGIN_BLOCK
        assert m >= lanes._CERTIFY_FROM
        gen = Rng(12).generator
        ra = gen.uniform(*MARGIN_SAMPLE_ATTACKER_RADIUS, m)
        aa = gen.uniform(-math.pi, math.pi, m)
        rd = gen.uniform(*MARGIN_SAMPLE_DEFENDER_RADIUS, m)
        ad = gen.uniform(-math.pi, math.pi, m)
        w = gen.standard_normal((m, 2))
        xa, xd = lanes.from_polar(ra, aa), lanes.from_polar(rd, ad)
        got = lanes.one_step_margin_change(xa, xd, strategy, params, 0.5, w.T,
                                           lanes.linear_attacker(xa, lanes.hypot(*xa)),
                                           lanes.hypot(*(xa - xd)))
        want = []
        for i in range(m):
            a = Vec2.from_polar(float(ra[i]), float(aa[i]))
            d = Vec2.from_polar(float(rd[i]), float(ad[i]))
            want.append(margin_change(
                a, d, strategy, params, 0.5, Normals(*w[i]), linear_attacker(a)))
        assert got.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


    def test_largest_accepted_noise_steps_without_a_warning(self):
        """The estimator's noise bound is `WorldConfig`'s over its radii:
        coordinates within 40, agents at most 55 apart.  At the largest
        beta it accepts, every strategy steps with no numpy warning to a
        finite estimate; the next float up is refused before any draw."""
        lo, hi = 0.0, 1e308  # accepted, refused
        while math.nextafter(lo, math.inf) < hi:
            mid = max(lo + (hi - lo) / 2, math.nextafter(lo, math.inf))
            try:
                analysis.check_noise_bound(NoiseParams(beta_d=mid), 40.0, 55.0, "")
                lo = mid
            except ValueError:
                hi = mid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for strategy in DefenderStrategy:
                est = estimate_mean_margin_change(strategy, NoiseParams(beta_d=lo), 0.5, 300, Rng(5))
                assert math.isfinite(est.mean_change) and math.isfinite(est.stderr)
                with pytest.raises(ValueError, match="at separation 40 \\+ 15 = 55"):
                    estimate_mean_margin_change(strategy, NoiseParams(beta_d=hi), 0.5, 300, Rng(5))

    @pytest.mark.parametrize("n", [2, 1023, 1024, 1025, 2048, 2049, 4097])
    @pytest.mark.parametrize("strategy", list(DefenderStrategy), ids=lambda s: s.value)
    def test_two_block_steps_are_the_one_block_loop(self, strategy, n):
        """Stepping two blocks at once gives, bit for bit, the mean and
        standard error of stepping and merging one block at a time."""
        params = NoiseParams(beta_b=0.05, beta_d=0.02, beta_v=0.1, nu=0.5)
        est = estimate_mean_margin_change(strategy, params, 0.5, n, Rng(n))
        want = one_block_margin_change(strategy, params, 0.5, n, Rng(n))
        assert (est.mean_change, est.stderr) == want

    @pytest.mark.parametrize("strategy, calls", [
        (DefenderStrategy.PURE_PURSUIT, 4), (DefenderStrategy.DEFENSE_MARGIN, 5),
        (DefenderStrategy.ADJUSTED_DEFENSE_MARGIN, 6)], ids=["pp", "dm", "adm"])
    def test_a_two_block_step_takes_each_norm_in_one_uncut_call(
        self, monkeypatch, strategy, calls
    ):
        """Each norm of a step is one `lanes.hypot` call over both blocks,
        narrow enough that it is not cut into slices (a slice would show as
        a call of its own)."""
        widths, whole = [], lanes.hypot

        def hypot(x, y):
            widths.append(len(x))
            return whole(x, y)

        monkeypatch.setattr(lanes, "hypot", hypot)
        m = analysis.MARGIN_BLOCK
        assert 2 * m <= lanes._CERTIFY_SLICE
        estimate_mean_margin_change(strategy, NoiseParams(), 0.5, 2 * m, Rng(0))
        assert widths == [2 * m] * calls


class TestClosestPointGridSearch:
    def test_matches_closed_form(self):
        rng = Rng(2)
        for _ in range(25):
            xa = Vec2.from_polar(rng.uniform(3.0, 40.0), rng.uniform(-math.pi, math.pi))
            xd = Vec2.from_polar(rng.uniform(0.0, xa.norm() * 0.9), rng.uniform(-math.pi, math.pi))
            grid = closest_point_grid_search(xa, xd, resolution=1e-3)
            point = Vec2(*closest_safe_reachable_point(
                as_pair(xa), as_pair(xd), xa.distance_to(xd)))
            assert point.distance_to(grid) <= 2e-3

    def test_origin_cases(self):
        assert closest_point_grid_search(Vec2(1, 0), Vec2(5, 0)) == Vec2(0, 0)
        assert closest_point_grid_search(Vec2(3, 0), Vec2(-3, 0)) == Vec2(0, 0)

    def test_coincident_raises(self):
        with pytest.raises(ValueError):
            closest_point_grid_search(Vec2(1, 1), Vec2(1, 1))

    @staticmethod
    def whole_lattice_search(xa: Vec2, xd: Vec2, resolution: float) -> tuple[int, int, Vec2]:
        """The search in one stage over the oracle's lattice: the lattice's
        length, the index of its first point of least norm, and that point."""
        mid, normal = (xa + xd) * 0.5, (xa - xd) / xa.distance_to(xd)
        tangent = Vec2(-normal.y, normal.x)
        half_span = mid.norm() + 1.0
        steps = np.arange(-half_span, half_span + resolution, resolution)
        px, py = mid.x + steps * tangent.x, mid.y + steps * tangent.y
        best = int(np.argmin(np.hypot(px, py)))
        return len(steps), best, Vec2(float(px[best]), float(py[best]))

    @given(st.floats(0.5, 60.0), st.floats(0.0, 1.0), angles, angles,
           st.one_of(st.just(1e-3), st.floats(1e-3, 5.0)))
    def test_two_stages_pick_the_whole_lattice_point(self, ra, fraction, aa, ad, resolution):
        """Attacker radii 0.5-60, the defender nearer the origin, and
        lattices from the default spacing to a few points, whose least
        point may lie at either end."""
        xa, xd = Vec2.from_polar(ra, aa), Vec2.from_polar(fraction * ra, ad)
        assume(xa.norm() > xd.norm())  # otherwise the origin, with no lattice searched
        got = closest_point_grid_search(xa, xd, resolution)
        want = self.whole_lattice_search(xa, xd, resolution)[2]
        assert (got.x.hex(), got.y.hex()) == (want.x.hex(), want.y.hex())

    @pytest.mark.parametrize("ax, resolution, end", [(300.0, 2.23, -1), (-300.0, 2.01, 0)],
                             ids=["last", "first"])
    def test_a_least_point_at_either_end_of_a_long_lattice(self, ax, resolution, end):
        xa, xd = Vec2(ax, 1.0), Vec2(ax, -0.999)
        length, best, want = self.whole_lattice_search(xa, xd, resolution)
        assert length > 4 * 64 and best == range(length)[end]
        got = closest_point_grid_search(xa, xd, resolution)
        assert (got.x.hex(), got.y.hex()) == (want.x.hex(), want.y.hex())


class TestExperimentMatrix:
    def test_trial_seeds_shared_across_pairs(self):
        """All nine pairs replay identical initial conditions per trial."""
        init_seed, episode_seed = trial_seeds(77, 3)
        assert trial_seeds(77, 3) == (init_seed, episode_seed)
        assert trial_seeds(77, 4) != (init_seed, episode_seed)
        xa1, xd1 = sample_initial_positions(Rng(init_seed), min_separation=2.0)
        xa2, xd2 = sample_initial_positions(Rng(init_seed), min_separation=2.0)
        assert (xa1, xd1) == (xa2, xd2)

    def test_run_matrix_trial_deterministic(self):
        cfg = WorldConfig(max_steps=300)
        outcomes = run_matrix_trial(5, 0, cfg)
        assert outcomes == run_matrix_trial(5, 0, cfg)
        assert len(outcomes) == len(MATRIX_PAIRS) == 9
        init_seed, episode_seed = trial_seeds(5, 0)
        xa, xd = sample_initial_positions(Rng(init_seed), min_separation=cfg.tau)
        for (defender, attacker), outcome in zip(MATRIX_PAIRS, outcomes):
            assert run_episode(xa, xd, defender, attacker, cfg, episode_seed).outcome is outcome

    def test_report_structure_and_conservation(self):
        cfg = WorldConfig(max_steps=300)
        report = run_experiment_matrix(cfg, trials=6, base_seed=1)
        assert len(report.pairs) == 9
        assert report.trials == 6
        seeds = json.loads(report_json_text(report))["seeds"]
        assert seeds == [trial_seeds(1, i)[1] for i in range(6)]
        for pair in report.pairs:
            assert pair.wins + pair.losses == pair.trials == 6
            assert pair.survived <= pair.wins
            assert pair.win_rate == pair.wins / 6

    def test_jobs_clamped_to_cpus_and_trials(self, monkeypatch):
        """The pool gets min(jobs, CPUs, blocks) workers, counting the CPUs
        of the process's affinity set where the platform has one, and one
        worker means no pool; a fake executor records the request and maps
        in-process, so no process is started.  A report run and rendered in
        blocks of one trial has the bytes of one run in a single block."""
        requested = []

        class FakeExecutor:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(analysis.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        cfg = WorldConfig(max_steps=200)
        serial = report_json_text(run_experiment_matrix(cfg, trials=6, base_seed=4))
        run_experiment_matrix(cfg, trials=6, base_seed=4, jobs=10_000)
        assert requested == []  # one block of 6 trials
        monkeypatch.setattr(analysis, "MATRIX_BLOCK", 1)
        pooled = run_experiment_matrix(cfg, trials=6, base_seed=4, jobs=10_000)
        assert report_json_text(pooled) == serial
        run_experiment_matrix(cfg, trials=3, base_seed=4, jobs=10_000)
        monkeypatch.setattr(analysis, "MATRIX_BLOCK", 2)
        run_experiment_matrix(cfg, trials=6, base_seed=4, jobs=2)
        assert requested == [4, 3, 2]
        monkeypatch.setattr(analysis.os, "sched_getaffinity", lambda pid: {0})
        run_experiment_matrix(cfg, trials=6, base_seed=4, jobs=8)
        assert requested == [4, 3, 2]  # pinned to one of 8 CPUs: serial
        monkeypatch.delattr(analysis.os, "sched_getaffinity")
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 3)
        run_experiment_matrix(cfg, trials=6, base_seed=4, jobs=10_000)
        assert requested == [4, 3, 2, 3]  # no affinity call: the CPU count
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: None)
        run_experiment_matrix(cfg, trials=6, base_seed=4, jobs=10_000)
        assert requested == [4, 3, 2, 3]  # unknown CPU count: serial

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            run_experiment_matrix(WorldConfig(), trials=0, base_seed=0)
        with pytest.raises(ValueError):
            run_experiment_matrix(WorldConfig(), trials=1, base_seed=0, jobs=0)

    def test_trials_above_max_trials_are_refused_before_any_block(self, monkeypatch):
        class Ran(Exception):
            pass

        def first_block(*args):
            raise Ran

        monkeypatch.setattr(analysis, "run_matrix_block", first_block)
        with pytest.raises(ValueError, match="trials"):
            run_experiment_matrix(WorldConfig(), MAX_TRIALS + 1, 0)
        with pytest.raises(Ran):  # the bound itself is accepted
            run_experiment_matrix(WorldConfig(), MAX_TRIALS, 0)

    def test_csv_table_layout(self):
        report = run_experiment_matrix(WorldConfig(max_steps=200), trials=2, base_seed=3)
        lines = report_csv_text(report).splitlines()
        assert lines[0] == "defender,linear,spiral,intelligent"
        assert [row.split(",")[0] for row in lines[1:]] == ["pp", "dm", "adm"]
        for row in lines[1:]:
            assert len(row.split(",")) == 4

    def test_json_report_round_trip(self):
        report = run_experiment_matrix(WorldConfig(max_steps=200), trials=2, base_seed=3)
        payload = json.loads(report_json_text(report))
        assert {p["defender"] for p in payload["pairs"]} == {"pp", "dm", "adm"}
        assert payload["trials"] == 2
        assert payload["base_seed"] == 3
        assert payload["config"]["max_steps"] == 200
        assert list(payload["pairs"][0]) == [
            "defender", "attacker", "wins", "losses", "survived", "trials", "win_rate"
        ]


def outcomes_of(codes) -> set[Outcome]:
    return {OUTCOME_CODES[c] for c in np.unique(codes).tolist()}


def counted_starts(run):
    """`run()`, and how many `random(4)` draws each start that
    `analysis.sample_initial_positions` sampled during it took, in order."""
    attempts, sample = [], analysis.sample_initial_positions

    def counted(gen, *args, **kwargs):
        calls = []

        class Counted:
            def random(self, n):
                calls.append(n)
                return gen.random(n)

        start = sample(Counted(), *args, **kwargs)
        attempts.append(len(calls))
        return start

    with mock.patch.object(analysis, "sample_initial_positions", counted):
        return run(), attempts


def spy(stack: ExitStack, owner, name: str) -> list:
    """Patch `owner.name`, for as long as `stack` lasts, with a wrapper that
    keeps the arguments and result of each call; returns that list."""
    calls, fn = [], getattr(owner, name)

    def call(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]

    stack.enter_context(mock.patch.object(owner, name, call))
    return calls


# Base seeds of one to five 32-bit words, the edges of one and two among them.
base_seeds = st.one_of(st.sampled_from([2**32 - 1, 2**32, 2**128]), st.integers(0, 2**128))


@st.composite
def trial_ranges(draw) -> tuple[int, int]:
    """(first, count): 1-12 trials, from trial 0 up to the last ones below
    `MAX_TRIALS`."""
    count = draw(st.integers(1, 12))
    last = MAX_TRIALS - count
    return draw(st.one_of(st.integers(0, 1000), st.integers(0, last), st.just(last))), count


# (MATRIX_WINDOW, small): with `small`, `lanes.hypot` certifies from 4 lanes
# a trial on, in slices of at most 8 a trial, so a block's first step takes
# per-lane (adm's blend, 3 lanes a trial), certified and sliced calls.
layouts = st.tuples(st.integers(1, 40), st.booleans())

_EVERY_TERM = NoiseParams(beta_b=0.3, beta_d=0.2, beta_v=1.0, nu=0.5)
# The largest beta `WorldConfig` accepts with its other settings at their defaults.
_LARGEST_BETA = 5.675542529453185e+296
_MARGIN_RULE = FailureCriterion.MARGIN_BREACH
# The hand-picked edges of the kernel property, by name, as (world, base
# seed, (first, count), layout): k / (sigma sqrt 2) overflowing to inf
# (erf(inf) = 1, with no warning); every noise term on; a variance that
# overflows to inf; the largest beta and the smallest spiral r_safe that the
# checks accept, under either loss rule; tau 40, which redraws trials 6 and
# 8; tau 50 on the last three trials below `MAX_TRIALS`, two of which it
# redraws; base seeds on both sides of one and two 32-bit words, and the last
# trials, on the default world; the default world under either rule, with
# and without a step cap; the low `hypot` thresholds under either rule; and
# a block of one trial.
EDGES = {
    "k-1e308": (WorldConfig(k=1e308, max_steps=30), 2**32 - 1, (0, 6), (32, False)),
    "every-term": (WorldConfig(r_safe=4.0, tau=1.5, noise=_EVERY_TERM, k=0.2, max_steps=30,
                               failure_criterion=_MARGIN_RULE), 7, (0, 6), (1, True)),
    "variance-overflows": (WorldConfig(r_safe=4.0, tau=1.5, noise=NoiseParams(beta_d=1e150),
                                       k=0.2, failure_criterion=_MARGIN_RULE), 7, (0, 6), (32, False)),
    **{f"largest-beta-{rule.value}": (
        WorldConfig(noise=NoiseParams(beta_d=_LARGEST_BETA), failure_criterion=rule), 0, (0, 4),
        (32, True)) for rule in FailureCriterion},
    **{f"smallest-spiral-r_safe-{rule.value}": (
        WorldConfig(r_safe=math.nextafter(1.0, 2.0), failure_criterion=rule), 2**32, (0, 4),
        (3, False)) for rule in FailureCriterion},
    "tau-40-redraws": (WorldConfig(tau=40.0, max_steps=30), 0, (0, 9), (7, False)),
    "tau-50-last-trials": (WorldConfig(tau=50.0, max_steps=30), 2**128, (MAX_TRIALS - 3, 3),
                           (40, True)),
    **{f"base-{name}": (WorldConfig(max_steps=30), base_seed, (0, 6), (32, False))
       for name, base_seed in [("2^32-1", 2**32 - 1), ("2^32", 2**32), ("2^128", 2**128),
                               ("11", 11)]},
    "last-trials": (WorldConfig(max_steps=30), 0, (MAX_TRIALS - 4, 4), (32, False)),
    **{f"{rule.value}-{cap}": (WorldConfig(failure_criterion=rule, max_steps=steps), 3, (5, 12),
                               (32, False))
       for rule in FailureCriterion for cap, steps in [("capped", 30), ("uncapped", 10_000)]},
    **{f"certified-sliced-per-lane-{rule.value}": (WorldConfig(failure_criterion=rule), 3, (0, 12),
                                                   (32, True)) for rule in FailureCriterion},
    "one-trial": (WorldConfig(), 0, (0, 1), (1, True)),
}


def assert_block_is_its_reference(cfg, base_seed, trials, layout):
    """On `cfg`, `base_seed` and `trials` = (first, count), and with the
    kernel's window and `hypot` thresholds patched to `layout`, the block's
    codes are `matrix_block_reference`'s, and it seeds and starts its trials
    as the scalar path does: the words seeding its episode generators are the
    `seed_words` of `trial_seeds`, no block returning its seeds, and a trial
    redraws its start exactly when the scalar sampler does.  The `lanes`
    twins get only inputs within their bounds, as the checked starts and
    `WorldConfig`'s bounds promise: every linear radius is at least 1e-12,
    every spiral radius above 1 and every observation finite."""
    (first, count), (window, small) = trials, layout
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(analysis, "MATRIX_WINDOW", window))
        if small:
            stack.enter_context(mock.patch.object(lanes, "_CERTIFY_FROM", 4 * count))
            stack.enter_context(mock.patch.object(lanes, "_CERTIFY_SLICE", 8 * count))
        hypots, linear, spiral, observed, seeded = (spy(stack, *target) for target in (
            (lanes, "hypot"), (lanes, "linear_attacker"), (lanes, "spiral_heading"),
            (lanes, "observe"), (analysis, "_block_starts")))
        codes, attempts = counted_starts(lambda: run_matrix_block(base_seed, first, count, cfg))
    reference, scalar_attempts = counted_starts(
        lambda: matrix_block_reference(base_seed, first, count, cfg))
    np.testing.assert_array_equal(codes, reference, strict=True)
    assert attempts == scalar_attempts
    [(_, (_, words))] = seeded
    episode_seeds = [trial_seeds(base_seed, trial)[1] for trial in range(first, first + count)]
    np.testing.assert_array_equal(words, seed_words(episode_seeds), strict=True)
    assert all((n >= 1e-12).all() for (_, n), _ in linear)
    assert all((n > 1.0).all() for (_, n), _ in spiral)
    assert all(np.isfinite(y).all() for _, y in observed)
    if small and linear:  # the block took a step
        widths = [len(x) for (x, _), _ in hypots]
        assert min(widths) < 4 * count and max(widths) > 8 * count
        assert any(4 * count <= w <= 8 * count for w in widths)


class TestMatrixKernel:
    """`run_matrix_block` gives, trial by trial, the scalar reference
    `run_matrix_trial`: the same outcome for every pair.  One property and
    its table of edges pin that; the other tests pin how the kernel gets
    there."""

    @given(worlds(), base_seeds, trial_ranges(), layouts)
    def test_a_block_is_its_scalar_reference(self, cfg, base_seed, trials, layout):
        """`assert_block_is_its_reference` on any world, base seed, trial
        range and kernel layout."""
        assert_block_is_its_reference(cfg, base_seed, trials, layout)

    @pytest.mark.parametrize("cfg, base_seed, trials, layout", EDGES.values(), ids=EDGES)
    def test_an_edge_block_is_its_scalar_reference(self, cfg, base_seed, trials, layout):
        """`assert_block_is_its_reference` at each of the `EDGES`."""
        assert_block_is_its_reference(cfg, base_seed, trials, layout)

    def test_the_edges_reach_every_outcome_under_both_rules(self):
        """The `EDGES` rows, on the kernel, end in every outcome under each
        loss rule, and only the tau 40 and 50 rows redraw a start; the
        largest beta is still the largest `WorldConfig` accepts."""
        seen, redrawn = {rule: set() for rule in FailureCriterion}, []
        for cfg, base_seed, (first, count), _ in EDGES.values():
            codes, attempts = counted_starts(lambda: run_matrix_block(base_seed, first, count, cfg))
            seen[cfg.failure_criterion] |= outcomes_of(codes)
            redrawn += [cfg.tau] if max(attempts) > 1 else []
        assert seen == {rule: set(Outcome) for rule in FailureCriterion}
        assert redrawn == [40.0, 50.0]
        with pytest.raises(ValueError, match="noise too large"):
            WorldConfig(noise=NoiseParams(beta_d=math.nextafter(_LARGEST_BETA, math.inf)))

    def test_a_step_takes_its_norms_in_four_rounds(self, monkeypatch):
        """The default 100-trial matrix makes at most four `hypot` calls per
        step (and one before the first), and at most a quarter of their lanes
        go to `math.hypot` one by one: calls for each defender and attacker
        apart sent 66 % of them, being too narrow to certify."""
        counts = {"calls": 0, "lanes": 0, "per_lane": 0, "end_tests": 0}
        whole, per_lane, end_codes = lanes.hypot, lanes._per_lane, analysis._end_codes
        depth = [0]

        def hypot(x, y):  # counts a call cut into slices once
            counts["calls"] += depth[0] == 0
            counts["lanes"] += len(x) if depth[0] == 0 else 0
            depth[0] += 1
            try:
                return whole(x, y)
            finally:
                depth[0] -= 1

        def one_by_one(fn, *args):
            counts["per_lane"] += len(args[0]) if fn is math.hypot else 0
            return per_lane(fn, *args)

        def end_tests(*args):
            counts["end_tests"] += 1
            return end_codes(*args)

        monkeypatch.setattr(lanes, "hypot", hypot)
        monkeypatch.setattr(lanes, "_per_lane", one_by_one)
        monkeypatch.setattr(analysis, "_end_codes", end_tests)
        run_experiment_matrix(WorldConfig(), 100, 0, 1)  # one block: end tests at t = 0, ..., T
        steps = counts["end_tests"] - 1
        assert steps > 50
        assert counts["calls"] <= 4 * steps + 1
        assert counts["per_lane"] <= 0.25 * counts["lanes"]

    @pytest.mark.parametrize("criterion", list(FailureCriterion))
    def test_the_spiral_steps_once_per_trial(self, criterion):
        """At each step `lanes.spiral_heading` takes one lane for each trial
        with a live spiral lane, however many of its three pairs live: the
        spiral moves alike against every defender.  A trial's spiral lane
        lives on the steps before its scalar episode's end time."""
        cfg, count = WorldConfig(failure_criterion=criterion), 40
        with ExitStack() as stack:
            headings = spy(stack, lanes, "spiral_heading")
            run_matrix_block(5, 0, count, cfg)
        widths = [xa.shape[1] for (xa, _), _ in headings]
        ends = []
        for trial in range(count):
            init_seed, episode_seed = trial_seeds(5, trial)
            xa, xd = sample_initial_positions(Rng(init_seed), min_separation=cfg.tau)
            ends.append(max(run_episode(xa, xd, d, a, cfg, episode_seed).end_time
                            for d, a in MATRIX_PAIRS if a is AttackerBehavior.SPIRAL))
        assert widths == [sum(end > t for end in ends) for t in range(max(ends))]
        assert widths[0] == count

    @pytest.mark.parametrize("criterion", list(FailureCriterion))
    def test_end_tests_are_episode_outcome_on_the_boundaries(self, criterion):
        """Capture exactly at tau, an attacker on the safe circle, a margin
        of exactly r_safe, coincident agents, and the step cap."""
        cfg = WorldConfig(failure_criterion=criterion, max_steps=7)
        rows = [(Vec2(12.0, 0.0), Vec2(10.0, 0.0)), (Vec2(10.0, 0.0), Vec2(-30.0, 0.0)),
                (Vec2(0.0, 30.0), Vec2(0.0, -10.0)), (Vec2(20.0, 5.0), Vec2(20.0, 5.0)),
                (Vec2(9.999999999999998, 0.0), Vec2(40.0, 0.0)), (Vec2(40.0, 0.0), Vec2(0.0, 0.0))]
        xa = np.array([[a.x for a, _ in rows], [a.y for a, _ in rows]])
        xd = np.array([[d.x for _, d in rows], [d.y for _, d in rows]])
        separation = lanes.hypot(xa[0] - xd[0], xa[1] - xd[1])
        for t in (6, 7):
            codes = analysis._end_codes(t, xa, xd, separation, lanes.hypot(*xa), cfg)
            assert [OUTCOME_CODES[c] for c in codes] == [
                episode_outcome(t, as_pair(a), as_pair(d), cfg, a.distance_to(d), a.norm())
                for a, d in rows]

    def test_default_block_builds_no_seed_sequence_or_rng(self, monkeypatch):
        """A silent fall back to the scalar path would build both."""
        calls = []

        def counted(cls):
            def build(*args, **kwargs):
                calls.append(cls.__name__)
                return cls(*args, **kwargs)
            return build

        monkeypatch.setattr(np.random, "SeedSequence", counted(np.random.SeedSequence))
        monkeypatch.setattr(analysis, "Rng", counted(analysis.Rng))
        assert run_matrix_block(0, 0, 100, WorldConfig()).shape == (9, 100)
        assert calls == []

    def test_unreachable_separation_refusal_is_that_of_the_scalar_engine(self):
        """No sampled pair is more than 70 apart, so every first pair is
        rejected and the scalar path gives up as `run_matrix_trial` does."""
        cfg = WorldConfig(tau=75.0)
        with pytest.raises(InvalidInitializationError, match="could not draw") as scalar:
            run_matrix_trial(0, 0, cfg)
        with pytest.raises(InvalidInitializationError) as kernel:
            run_matrix_block(0, 0, 3, cfg)
        assert str(kernel.value) == str(scalar.value)

    def test_spiral_refusal_is_that_of_the_scalar_engine(self):
        cfg = WorldConfig(r_safe=1.0)
        with pytest.raises(InvalidInitializationError, match="r_safe > 1") as scalar:
            run_matrix_trial(0, 0, cfg)
        with pytest.raises(InvalidInitializationError) as kernel:
            run_matrix_block(0, 0, 3, cfg)
        assert str(kernel.value) == str(scalar.value)

class TestChecks:
    def test_pursuit_margin_gain_passes(self):
        res = check_one_step_gains(n=2000, seed=0)[0]
        assert res.name == "pursuit_margin_gain"
        assert res.passed, res.detail

    def test_margin_step_dominance_reports_violations(self):
        """The dominance sweep fails by design: the bound it checks is false.

        Beyond asserting the failure, re-derive the reported worst
        counterexample's gain from raw geometry so the FAIL line is known to
        describe a real state, not an artifact of the sweep itself.
        """
        res = check_one_step_gains(n=2000, seed=0)[1]
        assert res.name == "margin_step_dominance"
        assert not res.passed
        assert "gain < 0.5" in res.detail
        # detail reads "V/N configs gain < 0.5, min dm_gain = G at xa=(..) xd=(..)"
        nums = re.findall(r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?", res.detail)
        violations, total = int(nums[0]), int(nums[1])
        assert 0 < violations < total
        min_gain, ax, ay, dx, dy = (float(v) for v in nums[3:8])
        assert min_gain < 0.5 - 1e-9
        xa, xd = Vec2(ax, ay), Vec2(dx, dy)
        before = margin_of(xa, xd)
        after = margin_of(xa, xd + dm_control(xa, xd))
        assert after - before == pytest.approx(min_gain, abs=1e-5)

    @pytest.mark.parametrize("seed, results", [
        (0, (CheckResult("pursuit_margin_gain", True,
                         "max |pp_gain - 0.5| = 5.91e-14 over 2000 configs"),
             CheckResult("margin_step_dominance", False,
                         "23/2000 configs gain < 0.5, min dm_gain = 0.0395678 at "
                         "xa=(-1.21854, 3.6915) xd=(-1.12636, 2.03515)"))),
        (3, (CheckResult("pursuit_margin_gain", True,
                         "max |pp_gain - 0.5| = 3.2e-14 over 2000 configs"),
             CheckResult("margin_step_dominance", False,
                         "27/2000 configs gain < 0.5, min dm_gain = 0.0218844 at "
                         "xa=(1.01858, 4.69022) xd=(0.890603, 2.8614)"))),
    ], ids=["seed-0", "seed-3"])
    def test_one_step_gains_results(self, seed, results):
        """The results at n = 2000, as literals: the one shared draw gives
        what a separate draw per sweep gave."""
        assert check_one_step_gains(2000, seed) == results

    @pytest.mark.parametrize("seed", [0, 3])
    def test_sweep_states_and_gains_are_the_scalar_loop_bits(self, monkeypatch, seed):
        """The lanes sweep draws the scalar loop's states from the stream in
        its order and steps them to its gains, bit for bit, for both
        strategies."""
        stepped, step = {}, lanes.one_step_margin_change

        def spy(xa, xd, strategy, *rest):
            stepped[strategy] = (*xa, *xd, step(xa, xd, strategy, *rest))
            return stepped[strategy][-1]

        monkeypatch.setattr(lanes, "one_step_margin_change", spy)
        check_one_step_gains(2000, seed)
        assert list(stepped) == [DefenderStrategy.PURE_PURSUIT, DefenderStrategy.DEFENSE_MARGIN]
        for strategy, lanes_of_state in stepped.items():
            want = scalar_noiseless_static_gains(strategy, 2000, seed)
            got = np.array(lanes_of_state).T
            expect = np.array([(a.x, a.y, d.x, d.y, gain) for a, d, gain in want])
            assert got.view(np.int64).tolist() == expect.view(np.int64).tolist()

    def test_one_step_gains_draw_each_state_once(self, monkeypatch):
        calls, draw = [], analysis._random_separated_pair
        monkeypatch.setattr(analysis, "_random_separated_pair",
                            lambda *args: calls.append(args) or draw(*args))
        check_one_step_gains(300, 0)
        assert len(calls) == 300

    def test_margin_grid_oracle_passes(self):
        res = check_margin_grid_oracle(n=40, seed=1)
        assert res.passed, res.detail

    def test_reliability_monotonicity_passes(self):
        res = check_reliability_monotonicity()
        assert res.passed, res.detail

    def test_perturbed_margin_fails_grid_check(self, monkeypatch):
        """Negative control: a deliberately wrong margin must be caught."""
        true_margin = analysis.defense_margin
        monkeypatch.setattr(analysis, "defense_margin",
                            lambda xa, xd, distance=None: true_margin(xa, xd, distance) + 0.01)
        res = check_margin_grid_oracle(n=10, seed=1)
        assert not res.passed

    def test_default_suite_composition_and_outcomes(self):
        """Everything passes except the dominance sweep, whose failure is the
        documented counterexample record."""
        results = run_default_checks(seed=0)
        assert [r.name for r in results] == [
            "pursuit_margin_gain",
            "margin_step_dominance",
            "margin_grid_oracle",
            "reliability_monotonicity",
        ]
        assert all(isinstance(r, CheckResult) for r in results)
        by_name = {r.name: r.passed for r in results}
        assert by_name == {
            "pursuit_margin_gain": True,
            "margin_step_dominance": False,
            "margin_grid_oracle": True,
            "reliability_monotonicity": True,
        }


class TestSafetyOrdering:
    def test_margin_strategy_safer_than_pursuit_at_moderate_n(self):
        """Smaller-n version of the acceptance ordering: mean margin change
        under noise is higher (safer) for dm than for pp."""
        params = NoiseParams()
        pp = estimate_mean_margin_change(DefenderStrategy.PURE_PURSUIT, params, 0.5, 20_000, Rng(derive_seed(0, 20)))
        dm = estimate_mean_margin_change(DefenderStrategy.DEFENSE_MARGIN, params, 0.5, 20_000, Rng(derive_seed(0, 21)))
        gap_se = math.sqrt(pp.stderr**2 + dm.stderr**2)
        assert dm.mean_change > pp.mean_change
        assert (dm.mean_change - pp.mean_change) / gap_se >= 5.0
