"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps the library's functions where the calling module looks them
up (``engine.observe``, ``strategies.observe``, ``analysis.observe``,
``engine.fmt9``, ...), so the program itself is not changed.  Each wrapper
records a span: its duration is added to the parent span's child time, and
spans are aggregated in memory per (parent, name) with call count, inclusive
time and self time (inclusive minus the time of child spans).  Counters are
kept for Vec2 constructions and random draws, and the calls made inside one
defender step (an ``engine.step`` or an ``analysis.one_step_margin_change``)
are attributed to that step.

Names a later version of the program no longer has are skipped and listed in
`Tracer.missing`.  The metrics that depend on them would read 0, so a traced
run with any name missing fails its output checks.
"""
from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

from guardian_sim import analysis, engine, fileio, geometry, rng, strategies
from guardian_sim.strategies import MATRIX_ATTACKERS, MATRIX_DEFENDERS

import workloads

_ROOT = "<root>"
# Counters attributed to the defender step they happen in.
_SCOPED = ("vec2", "draws", "geometry.defense_margin", "observation.reliability")


def _by_first_arg(base: str):
    """Span name suffixed with the strategy or behaviour passed first."""
    return lambda args, kwargs: f"{base}.{args[0].value}"


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Install with ``with Tracer(counting):``.  With `counting` off it records
    spans only; with it on it also scopes counters to defender steps and
    counts Vec2 constructions and random draws."""

    def __init__(self, counting: bool = False) -> None:
        self.counting = counting
        self.leak_ns = 0.0
        self.stack: list[list] = [[_ROOT, 0]]
        self.spans: dict[tuple[str, str], list[int]] = {}
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.step_counts: Counter[str] = Counter()
        self.pair_steps: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> Tracer:
        self.leak_ns = self._calibrate()
        by_defender = _by_first_arg("strategies.defender_control")
        by_attacker = _by_first_arg("strategies.attacker_control")
        plan = [
            (engine, "step", "engine.step", None),
            (engine, "episode_outcome", "engine.episode_outcome", None),
            (engine, "run_episode", "engine.run_episode", self._episode_done),
            (analysis, "run_episode", "engine.run_episode", self._episode_done),
            (engine, "observe", "observation.observe", None),
            (strategies, "observe", "observation.observe", None),
            (analysis, "observe", "observation.observe", None),
            (engine, "reliability", "observation.reliability", None),
            (strategies, "reliability", "observation.reliability", None),
            (engine, "defender_control", by_defender, None),
            (analysis, "defender_control", by_defender, None),
            (engine, "attacker_control", by_attacker, None),
            (engine, "defense_margin", "geometry.defense_margin", None),
            (analysis, "defense_margin", "geometry.defense_margin", None),
            (engine, "Rng", "rng.Rng_init", None),
            (analysis, "Rng", "rng.Rng_init", None),
            (rng, "Rng", "rng.Rng_init", None),
            (analysis, "derive_seed", "rng.derive_seed", None),
            (rng, "derive_seed", "rng.derive_seed", None),
            (analysis, "run_matrix_trial", "analysis.run_matrix_trial", None),
            (workloads, "run_trial", "run.trial", None),
            (analysis, "one_step_margin_change", "analysis.one_step_margin_change", None),
            (engine, "trajectory_csv_text", "engine.trajectory_csv_text", self._rows),
            (engine, "summary_json_text", "engine.summary_json_text", None),
            (engine, "fmt9", "fileio.fmt9", None),
            (analysis, "fmt9", "fileio.fmt9", None),
            (fileio, "fmt9", "fileio.fmt9", None),
            (fileio, "write_text_atomic", "fileio.write_text_atomic", self._bytes),
        ]
        # Defender steps, with the position and name of their strategy argument.
        steps = {"engine.step": (1, "defender"), "analysis.one_step_margin_change": (2, "strategy")}
        rng_class = rng.Rng
        for module, attr, name, hook in plan:
            if not hasattr(module, attr):
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            wrapper = self._span(name, getattr(module, attr), hook)
            if self.counting and name in steps:
                # Outside the span, so the bookkeeping is not the step's self time.
                wrapper = self._step_scope(wrapper, *steps[name])
            self._patch(module, attr, wrapper)
        if self.counting:
            self._count_calls(geometry.Vec2, "__init__", "vec2", 1)
            self._count_calls(rng_class, "normal_pair", "draws", 2)
            self._count_calls(rng_class, "standard_normal", "draws", 1)
            self._count_calls(rng_class, "uniform", "draws", 1)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _count_calls(self, cls, attr: str, counter: str, per_call: int) -> None:
        if not hasattr(cls, attr):
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        original = getattr(cls, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += per_call
            return original(*args, **kwargs)

        self._patch(cls, attr, counted)

    def _span(self, name, fn, hook):
        stack, spans, calls, clock = self.stack, self.spans, self.calls, time.perf_counter_ns
        base = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            span = base or name(args, kwargs)
            parent = stack[-1]
            frame = [span, 0]
            stack.append(frame)
            calls[span] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = spans.get((parent[0], span))
                if rec is None:
                    rec = spans[(parent[0], span)] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # -- hooks --------------------------------------------------------------

    def _step_scope(self, fn, pos: int, kwarg: str):
        """Wrap a defender step so the counters it moves are attributed to it."""
        calls, counts, step_counts = self.calls, self.counts, self.step_counts

        def scoped(*args, **kwargs):
            before = [calls[k] + counts[k] for k in _SCOPED]
            result = fn(*args, **kwargs)
            delta = dict(zip(_SCOPED, (calls[k] + counts[k] - b for k, b in zip(_SCOPED, before))))
            step_counts["steps"] += 1
            step_counts.update(delta)
            if _arg(args, kwargs, pos, kwarg).value == "adm":
                step_counts["adm_steps"] += 1
                step_counts["adm_reliability"] += delta["observation.reliability"]
            return result

        return scoped

    def _episode_done(self, args, kwargs, result) -> None:
        pair = f"{_arg(args, kwargs, 2, 'defender').value}-{_arg(args, kwargs, 3, 'attacker').value}"
        rec = self.pair_steps[pair]
        rec[0] += 1
        rec[1] += result.end_time
        self.counts["engine.steps"] += result.end_time

    def _rows(self, args, kwargs, result) -> None:
        self.counts["csv_rows"] += result.count("\n") - 1

    def _bytes(self, args, kwargs, result) -> None:
        self.counts["bytes_written"] += len(_arg(args, kwargs, 1, "text").encode())

    # -- metrics ------------------------------------------------------------

    def _calibrate(self) -> float:
        """Tracer time per child span that lands in its parent's self time:
        a traced loop over a wrapped no-op minus the same loop unwrapped, in ns
        per call (the least of five tries)."""
        probe = Tracer()
        noop = lambda: None  # noqa: E731
        child = probe._span("child", noop, None)
        n = 5000

        def traced_loop():
            for _ in range(n):
                child()

        best = math.inf
        for _ in range(5):
            probe.spans.clear()
            probe._span("parent", traced_loop, None)()
            t0 = time.perf_counter_ns()
            for _ in range(n):
                noop()
            plain = time.perf_counter_ns() - t0
            best = min(best, (probe.spans[(_ROOT, "parent")][2] - plain) / n)
        return max(best, 0.0)

    def _total(self, name: str, parent: str | None = None) -> tuple[int, int, int]:
        calls = incl = own = 0
        for (p, n), (c, i, s) in self.spans.items():
            if n == name and (parent is None or p == parent):
                calls, incl, own = calls + c, incl + i, own + s
        return calls, incl, own

    def _descendants(self, name: str, memo: dict | None = None) -> float:
        """Spans opened below all spans called `name`."""
        memo = {} if memo is None else memo
        if name not in memo:
            memo[name] = 0.0    # guards against a cycle of names
            total = 0.0
            for (p, n), (c, _, _) in self.spans.items():
                if p == name and n != name:
                    below = self._descendants(n, memo)
                    total += c + c * below / max(self._total(n)[0], 1)
            memo[name] = total
        return memo[name]

    def incl_us(self, name: str) -> float:
        """Mean inclusive time per call, less the tracer's cost of the spans below."""
        calls, incl, _ = self._total(name)
        if not calls:
            return 0.0
        return (incl - self.leak_ns * self._descendants(name)) / calls / 1e3

    def self_us(self, name: str) -> float:
        """Mean self time per call, less the tracer's cost of its child spans."""
        calls, _, own = self._total(name)
        if not calls:
            return 0.0
        children = sum(c for (p, n), (c, _, _) in self.spans.items() if p == name and n != name)
        return (own - self.leak_ns * children) / calls / 1e3

    def span_table(self) -> list[dict]:
        """Aggregated spans, heaviest first, for the run's result file."""
        rows = [
            {"parent": p, "name": n, "calls": c, "incl_ms": i / 1e6, "self_ms": s / 1e6}
            for (p, n), (c, i, s) in self.spans.items()
        ]
        return sorted(rows, key=lambda r: -r["incl_ms"])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(timed: Tracer, counted: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as name -> (value, unit): times from a pass traced
    with spans only, counts from a second pass that also counts Vec2
    constructions and random draws (their counters would slow the spans)."""
    steps = counted.counts["engine.steps"]
    scoped = counted.step_counts
    setup_calls = setup_us = 0.0
    for trial_span in ("analysis.run_matrix_trial", "run.trial"):
        calls = timed._total(trial_span)[0]
        episode_calls = timed._total("engine.run_episode", parent=trial_span)[0]
        setup_calls += calls
        setup_us += calls * timed.incl_us(trial_span) - episode_calls * timed.incl_us(
            "engine.run_episode")
    writes = counted._total("fileio.write_text_atomic")[0]
    csv_calls = timed._total("engine.trajectory_csv_text")[0]

    m: dict[str, tuple[float, str]] = {
        "engine.steps": (steps, "count"),
        "engine.step.self_us": (timed.self_us("engine.step"), "us"),
        "engine.episode_outcome.calls_per_step": (
            _ratio(counted._total("engine.episode_outcome")[0], steps), "calls/step"),
    }
    for d in MATRIX_DEFENDERS:
        for a in MATRIX_ATTACKERS:
            episodes, pair_steps = counted.pair_steps.get(f"{d.value}-{a.value}", (0, 0))
            m[f"engine.steps_per_episode.{d.value}-{a.value}"] = (
                _ratio(pair_steps, episodes), "steps/episode")
    m.update({
        "engine.trajectory_csv_text.us_per_row": (_ratio(
            csv_calls * timed.incl_us("engine.trajectory_csv_text"), timed.counts["csv_rows"]),
            "us/row"),
        "rng.derive_seed.us": (timed.incl_us("rng.derive_seed"), "us"),
        "rng.Rng_init.us": (timed.incl_us("rng.Rng_init"), "us"),
        "rng.draws_per_step": (_ratio(scoped["draws"], scoped["steps"]), "draws/step"),
        "analysis.trial_setup.us": (_ratio(setup_us, setup_calls), "us"),
        "analysis.one_step_margin_change.us": (
            timed.incl_us("analysis.one_step_margin_change"), "us"),
        "observation.observe.us": (timed.incl_us("observation.observe"), "us"),
        "observation.reliability.calls_per_adm_step": (
            _ratio(scoped["adm_reliability"], scoped["adm_steps"]), "calls/step"),
    })
    for d in MATRIX_DEFENDERS:
        m[f"strategies.defender_control.us.{d.value}"] = (
            timed.incl_us(f"strategies.defender_control.{d.value}"), "us")
    for a in MATRIX_ATTACKERS:
        m[f"strategies.attacker_control.us.{a.value}"] = (
            timed.incl_us(f"strategies.attacker_control.{a.value}"), "us")
    m.update({
        "geometry.Vec2.per_step": (_ratio(scoped["vec2"], scoped["steps"]), "Vec2/step"),
        "geometry.defense_margin.calls_per_step": (
            _ratio(scoped["geometry.defense_margin"], scoped["steps"]), "calls/step"),
        "fileio.write_text_atomic.calls": (writes, "count"),
        "fileio.write_text_atomic.us": (timed.incl_us("fileio.write_text_atomic"), "us"),
        "fileio.write_text_atomic.bytes": (counted.counts["bytes_written"], "bytes"),
        "fileio.fmt9.us": (timed.incl_us("fileio.fmt9"), "us"),
    })
    return m
