"""Set-up probe for ``setup_s``: in a fresh interpreter, import the program
and build one workload's inputs, then print the seconds that took.

    python3 perfbench/probe_setup.py <workload> <seed>

numpy, the program's one dependency, is imported before the timer starts.
Its import is most of a fresh interpreter's set-up (about 0.1 s of 0.14 s),
no change to this program moves it, and on a host with shared memory the
whole figure read 0.13 or 0.21 s for minutes at a time on the same code.
"""
import sys
import time

import numpy  # noqa: F401

t0 = time.perf_counter()

import layout  # noqa: E402

layout.add_program_to_path()

import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2]), workloads.Tally(), workloads.Pins(), layout.OUT)
print(time.perf_counter() - t0)
