"""Spans around the public calls of each teleqos layer, and the per-layer
numbers derived from them.

A traced run replaces module attributes with wrappers that record one span
(name, start, end, parent) per call, in memory; nothing inside the package
changes. A name imported by value must be wrapped where its caller looks it
up: `validation` calls the closed forms through its own namespace, so the
model spans are installed on `teleqos.validation`, not on `teleqos.model`.
"""

from __future__ import annotations

import builtins
import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

# every span name a traced run can record; the coverage table in
# workloads.py says, per workload, which must be active and which idle
SPAN_NAMES = (
    "scenario.parse",
    "sampling.synth",
    "sampling.deadband",
    "sampling.mux",
    "sampling.rate",
    "simulator.build",
    "simulator.run",
    "simulator.extract",
    "simulator.to_csv",
    "model.delay_bounds",
    "model.haptic_jitter_max",
    "model.validity_check",
    "model.qos_check",
    "validation.sweep",
    "validation.point",
    "validation.compliance",
    "validation.emit",
    "cli.main",
    "cli.write",
)

# model calls whose per-call cost is timed on the arguments the workload passed
MODEL_TIMED = ("model.delay_bounds", "model.haptic_jitter_max", "model.qos_check")


@dataclass
class Span:
    name: str
    start: int   # perf_counter_ns
    end: int
    parent: int  # index of the enclosing span, -1 at the top


class Tracer:
    """In-memory span and counter store for one traced iteration."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.first_args: dict[str, tuple] = {}
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = {}

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, 0, 0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            rec = self.spans[idx]
            rec.start, rec.end = start, end

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in MODEL_TIMED and name not in self.first_args:
                self.first_args[name] = (args, kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                for key, value in count(result).items():
                    self.add(key, value)
            return result

        return wrapper


def _run_counts(trace) -> dict[str, int]:
    return {
        "simulator.pkts": sum(m.created_total for m in trace.metrics.values()),
        "simulator.dropped": sum(m.dropped_total for m in trace.metrics.values()),
        "simulator.cycles": len(trace.cycles),
    }


def _targets():
    from teleqos import cli, sampling, scenario, simulator, validation

    return [
        (scenario, "parse_scenario", "scenario.parse", None),
        (sampling, "synth_haptic_trace", "sampling.synth", lambda r: {"sampling.samples": len(r)}),
        (sampling, "deadband_filter", "sampling.deadband",
         lambda r: {"sampling.flags": len(r), "sampling.significant": int(r.sum())}),
        (sampling, "vh_mux", "sampling.mux", lambda r: {"sampling.packets": len(r)}),
        (sampling, "instantaneous_rate", "sampling.rate", None),
        (simulator, "build_simulator", "simulator.build", None),
        (simulator, "run", "simulator.run", _run_counts),
        (simulator, "extract_cycles", "simulator.extract", None),
        (simulator.Trace, "to_csv", "simulator.to_csv", lambda r: {"simulator.trace_bytes": len(r)}),
        (validation, "delay_bounds", "model.delay_bounds", None),
        (validation, "haptic_jitter_max", "model.haptic_jitter_max", None),
        (validation, "validity_check", "model.validity_check", None),
        (validation, "qos_check", "model.qos_check", None),
        (validation, "run_validation", "validation.sweep", None),
        (validation, "_one_point", "validation.point", None),
        (validation, "compliance_from_simulation", "validation.compliance", None),
        (validation, "emit_validation", "validation.emit", None),
        (validation, "emit_compliance", "validation.emit", None),
        (cli, "main", "cli.main", None),
    ]


class _SpannedFile:
    """A file opened by the cli module; its writes and close are cli.write spans."""

    def __init__(self, fh, tracer: Tracer) -> None:
        self._fh = fh
        self._tracer = tracer

    def write(self, text):
        with self._tracer.span("cli.write"):
            return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        with self._tracer.span("cli.write"):
            self._fh.close()


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer boundary for the duration of the block."""
    from teleqos import cli

    saved = []
    for owner, attr, name, count in _targets():
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, count))

    def spanned_open(*args, **kwargs):
        return _SpannedFile(builtins.open(*args, **kwargs), tracer)

    cli.open = spanned_open  # shadows the builtin for the cli module only
    try:
        yield tracer
    finally:
        del cli.open
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# arithmetic


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, int]:
    """Nanoseconds per span name: each span's duration minus the part of it
    its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, int] = {}
    for i, s in enumerate(spans):
        own = (s.end - s.start) - _covered(children.get(i, []), s.start, s.end)
        out[s.name] = out.get(s.name, 0) + own
    return out


def call_counts(spans: list[Span]) -> dict[str, int]:
    out = {name: 0 for name in SPAN_NAMES}
    for s in spans:
        out[s.name] = out.get(s.name, 0) + 1
    return out


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer numbers of one traced iteration."""
    own = self_times(spans)
    calls = call_counts(spans)

    def sec(name: str) -> float:
        return own.get(name, 0) / 1e9

    flags = counts.get("sampling.flags", 0)
    pkts = counts.get("simulator.pkts", 0)
    points = [s.end - s.start for s in spans if s.name == "validation.point"]
    return {
        "scenario.parse_s": sec("scenario.parse"),
        "cli.write_s": sec("cli.write"),
        "sampling.synth_s": sec("sampling.synth"),
        "sampling.deadband_s": sec("sampling.deadband"),
        "sampling.mux_s": sec("sampling.mux"),
        "sampling.rate_s": sec("sampling.rate"),
        "sampling.samples": counts.get("sampling.samples", 0),
        "sampling.packets": counts.get("sampling.packets", 0),
        "sampling.significant_ratio": counts.get("sampling.significant", 0) / flags if flags else 0.0,
        "simulator.build_s": sec("simulator.build"),
        "simulator.run_s": sec("simulator.run"),
        "simulator.extract_s": sec("simulator.extract"),
        "simulator.to_csv_s": sec("simulator.to_csv"),
        "simulator.pkts": pkts,
        # engine self time over packets created, warm-up included
        "simulator.ns_per_pkt": own.get("simulator.run", 0) / pkts if pkts else 0.0,
        "simulator.drop_ratio": counts.get("simulator.dropped", 0) / pkts if pkts else 0.0,
        "simulator.cycles": counts.get("simulator.cycles", 0),
        "simulator.trace_bytes": counts.get("simulator.trace_bytes", 0),
        # a grid point's whole duration, its simulation included
        "validation.point_s": statistics.median(points) / 1e9 if points else 0.0,
        "validation.compliance_s": sec("validation.compliance"),
        "validation.emit_s": sec("validation.emit"),
        "model.calls": sum(n for name, n in calls.items() if name.startswith("model.")),
    }


def coverage_problems(calls: dict[str, int], expected: dict[str, bool]) -> list[str]:
    """Layers that should have run but recorded no call, and layers that
    should have stayed idle but recorded some."""
    problems = []
    for name in SPAN_NAMES:
        n = calls.get(name, 0)
        if expected[name] and n == 0:
            problems.append(f"{name}: expected calls, recorded none")
        elif not expected[name] and n:
            problems.append(f"{name}: expected idle, recorded {n} calls")
    return problems


def per_call_us(fn, args: tuple, kwargs: dict, batch: int = 200, repeats: int = 7) -> float:
    """Median microseconds per call over several timed batches."""
    per_batch = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(batch):
            fn(*args, **kwargs)
        per_batch.append((time.perf_counter_ns() - start) / batch)
    return statistics.median(per_batch) / 1e3
