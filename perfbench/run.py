#!/usr/bin/env python3
"""guardian-sim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload matrix-serial --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  A run makes the workload's inputs from ``--seed``, runs one
untimed warm-up pass, then repeats fixed-size passes for ``--seconds``
seconds, each followed by the reference computation of ``speed.py``, and
checks every pass's outputs.  It prints each metric by name and
unit, and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics instead: it repeats the untimed measurement (for the
tracing overhead, the pool figures and episode latency), then runs one pass
with the tracer installed.  Pool workers are not traced, so the traced pass
of ``matrix-parallel`` runs at ``jobs=1`` on the same inputs.

Environment, inputs, metrics and the span table also go to
``.perfbench_out/results/<workload>-seed<seed>-trace<0|1>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layout
import speed

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def measure(run_pass, seconds: float, tally, between=None) -> tuple[list, float]:
    """Repeat passes until `seconds` have elapsed; a pass that raises ends
    the window and counts as a failed operation.  The reference computation
    and `between(elapsed)` run after each pass, outside the pass's timing."""
    passes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        try:
            passes.append(run_pass())
        except Exception as exc:  # reported as a failed operation, not hidden
            tally.op_failed(exc)
            break
        passes[-1].reference_s = speed.reference_seconds()
        if between is not None:
            between(time.perf_counter() - start)
    return passes, time.perf_counter() - start


def median_wall(passes: list) -> float:
    return statistics.median(p.wall for p in passes)


def setup_seconds(workload: str, seed: int) -> float:
    """Import plus input generation, in a fresh interpreter (numpy already
    imported; see probe_setup.py)."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe_setup.py")), workload, str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True, cwd=layout.ROOT,
    )
    return float(out.stdout.split()[-1])


def environment() -> dict:
    import numpy

    try:
        import tomllib

        with open(layout.ROOT / "pyproject.toml", "rb") as fh:
            version = tomllib.load(fh)["project"]["version"]
    except (ImportError, OSError, KeyError, ValueError):
        version = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "package": "guardian-sim", "version": version,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu,
    }


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, work, tally) -> tuple[dict, dict]:
    # The warm-up pass has reaped any pool workers; no set-up probe has run yet.
    pool_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setups: list[float] = []

    def probe_on_schedule(elapsed: float) -> None:
        # Spread the probes over the window, so set-up is timed under the
        # same machine load as the passes.
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * args.seconds / SETUP_REPEATS:
            setups.append(setup_seconds(args.workload, args.seed))

    passes, elapsed = measure(work.run_pass, args.seconds, tally, probe_on_schedule)
    if not passes:
        return {}, {}
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds(args.workload, args.seed))
    pass_s = statistics.median(speed.at_nominal_speed(p.wall, p.reference_s) for p in passes)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (pass_s, "s"),
        "peak_rss_mb": (
            (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + pool_rss_kb) / 1024.0, "MB"),
    }
    # Passes have a fixed size, so throughput is pass_s restated; it is
    # printed for reading, not reported as a metric of its own.
    samples = {"timed_passes": len(passes), f"{work.item}s": sum(p.items for p in passes),
               f"{work.item}s_per_s": passes[0].items / pass_s,
               "wall_s": median_wall(passes),
               "reference_s": statistics.median(p.reference_s for p in passes),
               "setup_repeats": len(setups), "window_s": elapsed}
    return metrics, samples


def per_layer(args, work, tally) -> tuple[dict, dict]:
    import tracer

    jobs = work.jobs
    passes, _ = measure(work.run_pass, args.seconds / (2 if jobs > 1 else 1), tally)
    serial = passes
    if jobs > 1:
        serial, _ = measure(lambda: work.run_pass(jobs=1), args.seconds / 2, tally)
    if not passes or not serial:
        return {}, {}
    with tracer.Tracer(counting=False) as timed:
        traced = work.run_pass(jobs=1)
    with tracer.Tracer(counting=True) as counted:
        work.run_pass(jobs=1)
    missing = sorted(set(timed.missing + counted.missing))
    tally.expect("every traced function exists", not missing, "missing: " + ", ".join(missing))
    metrics = tracer.layer_metrics(timed, counted)
    efficiency = overhead = 0.0
    if jobs > 1:
        efficiency = median_wall(serial) / (jobs * median_wall(passes))
        overhead = median_wall(passes) - median_wall(serial) / jobs
    p50 = p99 = 0.0
    latencies = [s for p in passes for s in p.op_seconds]
    if work.name == "trajectories":   # the one workload that issues single episodes
        p50, p99 = percentile(latencies, 50) * 1e3, percentile(latencies, 99) * 1e3
    metrics.update({
        "analysis.pool.efficiency": (efficiency, "ratio"),
        "analysis.pool.overhead_s": (overhead, "s"),
        "trace.overhead": (traced.wall / median_wall(serial), "ratio"),
        "episode_ms_p50": (p50, "ms"),
        "episode_ms_p99": (p99, "ms"),
    })
    samples = {"untraced_passes": len(passes), "serial_passes": len(serial) if jobs > 1 else 0,
               "latency_samples": len(latencies), "traced_passes": 2,
               "tracer_cost_ns_per_span": timed.leak_ns, "missing_hooks": missing,
               "spans": timed.span_table()}
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    layout.add_program_to_path()
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(valid: {', '.join(workloads.NAMES)})", file=sys.stderr)
        return 2
    tally = workloads.Tally()
    pins = workloads.Pins()
    layout.OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=layout.OUT))
    try:
        work = workloads.make(args.workload, args.seed, tally, pins, work_dir)
        work.warm_up()
        measured = per_layer if args.trace else end_to_end
        metrics, samples = measured(args, work, tally)
        if metrics:
            work.finish()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not metrics:
        print("perfbench: no pass completed: " + "; ".join(tally.failures), file=sys.stderr)
        return 1

    env = environment()
    inputs = {"workload": args.workload, "seed": args.seed, "default_seed": workloads.DEFAULT_SEED,
              "held_out_seed": workloads.HELD_OUT_SEED, "seconds": args.seconds,
              "trace": args.trace, "pinned_digest": work.pin_status(), **work.inputs()}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("  environment: " + json.dumps(env))
    print("  inputs: " + json.dumps(inputs))
    print("  samples: " + json.dumps({k: v for k, v in samples.items() if k != "spans"}))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    error_rate = tally.failed / tally.attempted
    print(f"  {'error_rate':<44} {error_rate:>14.6g} ratio "
          f"({tally.failed} failed of {tally.attempted} operations and output checks)")
    if work.pin_status().startswith("not checked"):
        print(f"  note: pinned digest {work.pin_status()}")
    for line in tally.failures:
        print(f"  FAILED {line}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results_dir = layout.OUT / "results"
    results_dir.mkdir(exist_ok=True)
    record = {"environment": env, "inputs": inputs, "samples": samples,
              "error_rate": error_rate, "failures": tally.failures, **result}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
