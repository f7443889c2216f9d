#!/usr/bin/env python3
"""Mean one-step defense-margin change per defender strategy.

Monte Carlo estimate over random engagements against a straight-to-origin
attacker with distance-scaled observation noise: the margin-seeking step
should lose less margin per step than pure pursuit.
"""
from __future__ import annotations

import argparse

from guardian_sim.analysis import estimate_mean_margin_change
from guardian_sim.engine import WorldConfig
from guardian_sim.observation import NoiseParams
from guardian_sim.rng import Rng, derive_seed
from guardian_sim.strategies import DefenderStrategy


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--beta", type=float, default=NoiseParams().beta_d)
    ap.add_argument("--k", type=float, default=WorldConfig().k)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    params = NoiseParams(beta_d=args.beta)
    print(f"{'strategy':>8}  {'mean':>10}  {'stderr':>9}  n={args.n}")
    for i, strategy in enumerate(DefenderStrategy):
        est = estimate_mean_margin_change(
            strategy, params, args.k, args.n, Rng(derive_seed(args.seed, 40 + i))
        )
        print(f"{strategy.value:>8}  {est.mean_change:>10.6f}  {est.stderr:>9.6f}")


if __name__ == "__main__":
    main()
