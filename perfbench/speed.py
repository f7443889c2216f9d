"""The machine's current speed, from a fixed reference computation.

On a host whose CPUs are shared (a 2-vCPU Xeon VM), the same pass ran up to
1.5 times slower for minutes at a time.  The reference computation below is timed right after each
measured interval, in the same process, and slows with it; dividing by it
removes that drift.  A time is reported at nominal speed, the speed at which
the reference takes `NOMINAL_S` seconds.  The reference uses none of the
program's code, so a change to the program moves the reported time as much as
it moves the raw one.
"""
from __future__ import annotations

import math
import time

import numpy as np

ITERATIONS = 10_000
# About the median reference time on the host where the benchmark was defined
# (2 vCPU Xeon, Python 3.11, numpy 2.4); it only scales the reported times.
NOMINAL_S = 0.025


def reference_seconds() -> float:
    """Time of the reference computation: interpreted float arithmetic and
    scalar numpy draws, as in the simulator's step loop."""
    gen = np.random.default_rng(12345)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(ITERATIONS):
        acc += math.hypot(i * 0.5, 3.0) + float(gen.uniform())
    return time.perf_counter() - t0


def at_nominal_speed(seconds: float, reference_s: float) -> float:
    return seconds * NOMINAL_S / reference_s
