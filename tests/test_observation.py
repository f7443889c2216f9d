"""Distance-scaled Gaussian noise model and the reliability score."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import as_pair
from guardian_sim.analysis import estimate_mean_margin_change
from guardian_sim.engine import WorldConfig
from guardian_sim.geometry import Vec2
from guardian_sim.observation import NoiseParams, noise_variance, observe, reliability
from guardian_sim.rng import Rng
from guardian_sim.strategies import DefenderStrategy
from oracles import gaussian_square_mass_quadrature

NOISELESS = NoiseParams(beta_b=0.0, beta_d=0.0, beta_v=0.0, nu=1.0)


class TestNoiseParams:
    def test_defaults(self):
        p = NoiseParams()
        assert (p.beta_b, p.beta_d, p.beta_v, p.nu) == (0.0, 0.05, 0.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta_b": -0.1},
            {"beta_d": -1e-9},
            {"beta_v": -2.0},
            {"nu": -0.01},
            {"nu": 1.01},
            {"beta_b": math.nan},
            {"beta_d": math.nan},
            {"beta_d": math.inf},
            {"beta_v": math.inf},
            {"nu": math.nan},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            NoiseParams(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, -1.0, math.nan], ids=["inf", "negative", "nan"])
    @pytest.mark.parametrize("field, key", [("beta_b", "beta_b"), ("beta_d", "beta"),
                                            ("beta_v", "beta_v")])
    def test_a_bad_term_is_named_as_the_config_key_reads(self, field, key, value):
        with pytest.raises(ValueError) as info:
            NoiseParams(**{field: value})
        assert str(info.value) == (
            f"noise coefficients must be finite and non-negative, got {key}={value!r}")


class TestNoiseVariance:
    def test_distance_term_only(self):
        assert noise_variance(10.0, NoiseParams()) == pytest.approx(5.0, abs=1e-12)

    def test_zero_distance(self):
        assert noise_variance(0.0, NoiseParams()) == 0.0

    def test_all_terms(self):
        p = NoiseParams(beta_b=1.0, beta_d=0.5, beta_v=2.0, nu=0.5)
        assert noise_variance(2.0, p) == pytest.approx(4.0, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=100.0), st.floats(min_value=0.0, max_value=100.0))
    def test_monotone_in_distance(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert noise_variance(lo, NoiseParams()) <= noise_variance(hi, NoiseParams())


class TestObserve:
    def test_noiseless_is_exact(self):
        xa, xd = Vec2(10.0, -3.0), Vec2(1.0, 1.0)
        assert Vec2(*observe(as_pair(xa), NOISELESS, Rng(0), xa.distance_to(xd))) == xa

    def test_deterministic_for_fixed_seed(self):
        xa = (10.0, 0.0)
        y1 = observe(xa, NoiseParams(), Rng(42), 10.0)
        y2 = observe(xa, NoiseParams(), Rng(42), 10.0)
        assert y1 == y2

    def test_symmetric_in_separation(self):
        """Each agent, seen from the other, is perturbed with the same scale."""
        params = NoiseParams()
        yx, yy = observe((0.0, 0.0), params, Rng(5), 10.0)
        wx, wy = observe((10.0, 0.0), params, Rng(5), 10.0)
        assert yx == pytest.approx(wx - 10.0, abs=1e-12)
        assert yy == wy

    def test_sample_moments(self):
        """Mean and per-axis variance over many draws match the model."""
        xa = (10.0, 0.0)
        params = NoiseParams()  # sigma^2 = 0.05 * 100 = 5
        rng = Rng(2024)
        n = 100_000
        xs = np.empty(n)
        ys = np.empty(n)
        for i in range(n):
            xs[i], ys[i] = observe(xa, params, rng, 10.0)
        assert abs(xs.mean() - 10.0) < 0.05
        assert abs(ys.mean() - 0.0) < 0.05
        assert abs(xs.var() - 5.0) < 0.15
        assert abs(ys.var() - 5.0) < 0.15
        # Standardized residuals: mean ~ 0, variance ~ 1.
        sigma = math.sqrt(5.0)
        z = np.concatenate(((xs - 10.0) / sigma, ys / sigma))
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.02


class TestReliability:
    def test_zero_noise_is_exactly_one(self):
        assert reliability(NOISELESS, 0.5, 1.0) == 1.0

    def test_closed_form_value(self):
        # sigma_hat = 0.5 at unit separation with beta_b = 0.25.
        p = reliability(NoiseParams(beta_b=0.25, beta_d=0.0), 0.5, 1.0)
        assert p == pytest.approx(math.erf(1.0 / math.sqrt(2.0)) ** 2, abs=1e-12)
        assert p == pytest.approx(0.4660649, abs=1e-4)

    def test_matches_quadrature(self):
        for k, sigma in [(0.5, 0.5), (1.0, 2.0), (2.0, 0.3), (0.1, 4.0)]:
            closed = reliability(NoiseParams(beta_b=sigma * sigma, beta_d=0.0), k, 1.0)
            assert closed == pytest.approx(gaussian_square_mass_quadrature(k, sigma), abs=1e-10)

    def test_vanishing_mass_limit(self):
        p = reliability(NoiseParams(beta_b=1e12, beta_d=0.0), 0.5, 1.0)
        assert p < 1e-10

    def test_rejects_non_positive_k(self):
        """`reliability` trusts its k: a non-positive one is refused up front,
        by `WorldConfig` and by the margin estimator, before any score."""
        for k in (0.0, -1.0):
            with pytest.raises(ValueError, match="half-width"):
                WorldConfig(k=k)
            with pytest.raises(ValueError, match="half-width"):
                estimate_mean_margin_change(
                    DefenderStrategy.ADJUSTED_DEFENSE_MARGIN, NoiseParams(), k, 10, Rng(0))

    def test_uses_estimated_distance(self):
        """The score depends on the distance ||y - xd|| it is handed,
        nothing else positional."""
        params = NoiseParams()
        a, b, c = (reliability(params, 0.5, y.distance_to(xd)) for y, xd in (
            (Vec2(5, 0), Vec2(0, 0)), (Vec2(0, 5), Vec2(0, 0)), (Vec2(8, 4), Vec2(3, 4))))
        assert a == b == c
        sigma = math.sqrt(noise_variance(5.0, params))
        assert a == pytest.approx(math.erf(0.5 / (sigma * math.sqrt(2.0))) ** 2, abs=1e-15)
        assert reliability(params, 0.5, 10.0) < a

    @given(
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.01, max_value=50.0),
    )
    def test_bounds(self, k, sigma, separation):
        p = reliability(NoiseParams(beta_b=sigma * sigma, beta_d=0.0), k, separation)
        assert 0.0 <= p <= 1.0

    def test_strictly_monotone(self):
        sigmas = [0.1 * i for i in range(1, 51)]
        for k in (0.1, 0.5, 1.5):
            vals = [reliability(NoiseParams(beta_b=s * s, beta_d=0.0), k, 1.0) for s in sigmas]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        ks = [0.1 * i for i in range(1, 21)]
        for s in (0.5, 2.0):
            vals = [reliability(NoiseParams(beta_b=s * s, beta_d=0.0), k, 1.0) for k in ks]
            assert all(a < b for a, b in zip(vals, vals[1:]))
