"""Distance-scaled Gaussian observation model.

The defender never sees the attacker exactly: it receives y = xa + w with
w ~ N(0, sigma^2 I2), where sigma^2 grows with the squared separation of the
agents.  `reliability` scores how trustworthy an observation is, from the
estimated (not true) separation.  As in `lanes`, a function takes only what
it reads and is handed the separation its caller holds, as ``distance``;
`reliability` assumes k > 0, which `WorldConfig` and the estimator check first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Pair
from .rng import NormalStream

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, slots=True)
class NoiseParams:
    """sigma^2 = beta_b + beta_d * distance^2 + beta_v * (1 - nu).

    beta_b is a base floor, beta_d scales with squared separation, and
    beta_v * (1 - nu) penalises degraded visibility nu in [0, 1].
    Defaults keep only the distance term.
    """

    beta_b: float = 0.0
    beta_d: float = 0.05
    beta_v: float = 0.0
    nu: float = 1.0

    def __post_init__(self) -> None:
        for key, value in (("beta_b", self.beta_b), ("beta", self.beta_d), ("beta_v", self.beta_v)):
            if not 0.0 <= value < math.inf:  # NaN too
                raise ValueError(
                    f"noise coefficients must be finite and non-negative, got {key}={value!r}")
        if not 0.0 <= self.nu <= 1.0:
            raise ValueError(f"visibility nu must lie in [0, 1], got {self.nu}")


def check_positive_finite(value: float, name: str) -> None:
    """Refuse a setting that is not positive (NaN included) or not finite."""
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    if value == math.inf:
        raise ValueError(f"{name} must be finite, got {value}")


def noise_variance(distance: float, params: NoiseParams) -> float:
    """Observation variance per axis at the given agent separation."""
    return params.beta_b + params.beta_d * distance * distance + params.beta_v * (1.0 - params.nu)


def observe(xa: Pair, params: NoiseParams, rng: NormalStream, distance: float) -> Pair:
    """Noisy position of xa, seen from `distance` away (the observer enters
    only through it).  `rng` is anything with `normal_pair`, such as an
    `Rng` or a `NormalWindow`; one pair is drawn."""
    sigma = math.sqrt(noise_variance(distance, params))
    wx, wy = rng.normal_pair(sigma)
    x, y = xa
    return x + wx, y + wy


def reliability(params: NoiseParams, k: float, distance: float) -> float:
    """Probability-squared that a fresh observation error stays within a box
    of half-width k per axis, with the error scale estimated at `distance`, ||y - xd||.

    Equals erf(k / (sigma_hat * sqrt(2)))^2; defined as 1 when sigma_hat = 0.
    Monotone: increasing in k, strictly decreasing in sigma_hat.
    """
    variance = noise_variance(distance, params)
    if variance == 0.0:
        return 1.0
    one_axis = math.erf(k / (math.sqrt(variance) * _SQRT2))
    return one_axis * one_axis
