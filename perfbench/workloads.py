"""The four benchmark workloads, their inputs and their pinned outputs.

Every workload is a closed loop: one process, and the next iteration
starts when the previous one has finished. An iteration returns its
outputs as named byte strings (or a path to a file), which run.py hashes
and compares with the pinned digests below; it deletes a file once hashed.

Why these four:
- sim-baseline: the shipped scenario in-process with recording off;
  nearly all of it is the simulator's event loop and none is sampling.
- trace-cli: the same events through `teleqos simulate --trace` in a
  subprocess, so the record path, `to_csv`, the file write and
  interpreter start-up are timed; an engine change that only helps the
  record-off path should not show here.
- adaptive-rates: the `teleqos rates` path for each of the three signal
  kinds; nearly all of it is sampling and the engine does none.
- validate-sweep: the paper's delay-table grid with simulation on and a
  process pool, so `model`, the pool and many short engine runs at loads on
  both sides of the single-loss limit are timed.

BENCHMARK.json lists only trace-cli and adaptive-rates, which between them
reach every layer. On a host whose speed swings by up to 2x for tens of
seconds, a run must last about a minute for its mean to hold still, and
four workloads of that length do not fit the time the runs are given.
sim-baseline and validate-sweep run the same way when named with
--workload, as baseline.py --workloads does.
"""

from __future__ import annotations

import io
import os
import pickle
import re
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from spans import SPAN_NAMES, Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent

CHILD_TIMEOUT_S = 150
SWEEP_GRID_MBPS = ("1.096", "2", "3", "4", "5", "5.5")
SWEEP_NACKS = (1, 2)
SWEEP_DURATION_S = 20.0
SWEEP_WARMUP_S = 5.0
SWEEP_JOBS = 2  # nproc of the machine the baseline was recorded on
SIGNAL_KINDS = ("contact-burst", "filtered-noise", "sum-of-sinusoids")
SIGNAL_DURATION_S = 120.0
BASELINE_DURATION_S = 60.0

ADAPTIVE_TEMPLATE = """\
# One deadband-sampled haptic stream multiplexed with video; the signal
# seed falls back to the scenario seed, which the CLI's --seed overrides.
[network]
mu = 6 Mbps
tau = 8 ms
buf = 14 kB
s_tcp = 578 B

[flow.haptic]
kind = adaptive
deadband = 0.1
video_rate = 400 kbps
signal = {kind}

[run]
duration = {duration:g} s
"""

# sha256 of each output. Key None: the output does not depend on the seed,
# so every run is checked against the pin. Other seeds of a seed-dependent
# workload are checked by requiring every iteration of the run to agree.
PINNED = {
    "sim-baseline": {None: {
        "verdicts": "e6e0016a65fcde8067f503bb66c145813280dcc28b3440f2c7551ccb8da2c189",
    }},
    "trace-cli": {None: {
        "trace.csv": "869110a527cbcf7035557f77f028cd95eb4b9a9bedb4e193bafe04516594f8d3",
        "stdout": "014f70961c1557e82728056f4add67295b1b2aa08084167491b65189b5526d70",
    }},
    "adaptive-rates": {1: {
        "stdout": "56b774a620c1d0a9948bb9398ebd020e42bbe90c42af39a3cb4228c66a2d23ff",
    }},
    "validate-sweep": {None: {
        "table.csv": "421b0290a403612c2310dec9f2638fc7097740b4fab5126b093c7a298b7ead94",
    }},
}


class OperationFailed(RuntimeError):
    """An iteration ended with an unexpected exit code."""


class Inputs:
    """Scenario files generated from the workload seed, in a private directory."""

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        shipped = (SRC / "teleqos" / "configs" / "baseline.scn").read_text(encoding="utf-8")
        baseline, n = re.subn(r"(?m)^seed = \d+$", f"seed = {seed}", shipped)
        if n != 1:
            raise ValueError("baseline.scn: expected exactly one 'seed = N' line")
        self.texts = {"baseline": baseline}
        for kind in SIGNAL_KINDS:
            self.texts[kind] = ADAPTIVE_TEMPLATE.format(kind=kind, duration=SIGNAL_DURATION_S)
        for name, text in self.texts.items():
            self.path(name).write_text(text, encoding="utf-8")

    def path(self, name: str) -> Path:
        return self.tmp / f"{name}.scn"

    def child_env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        return env


# --------------------------------------------------------------------------
# iterations


def _verdicts(trace, cycles, report) -> str:
    lines = []
    for name, m in trace.metrics.items():
        lines.append(
            f"{name} created={m.created} delivered={m.delivered} dropped={m.dropped} "
            f"min={m.min_delay!r} max={m.max_delay!r} jitter={m.max_positive_jitter!r} "
            f"loss={sorted(m.media_loss.items())!r} "
            f"totals={m.created_total},{m.delivered_total},{m.dropped_total}"
        )
    lines.append(
        f"cycles={len(cycles.cycles)} q_min={cycles.q_min_mean!r} q_max={cycles.q_max_mean!r} "
        f"period={cycles.period_mean!r} stationary={cycles.stationary}"
    )
    for c in report.conditions:
        lines.append(f"{c.name} passed={c.passed} value={c.value!r} limit={c.limit!r}")
    lines.append(f"overall={report.overall}")
    return "\n".join(lines) + "\n"


def sim_baseline(inputs: Inputs, jobs: int) -> dict:
    from teleqos import scenario, simulator, validation

    cfg = scenario.parse_scenario(inputs.texts["baseline"])
    trace = simulator.run(simulator.build_simulator(cfg), record=False)
    cycles = simulator.extract_cycles(trace)
    report = validation.compliance_from_simulation(cfg, trace)
    return {"verdicts": _verdicts(trace, cycles, report).encode()}


def validate_sweep(inputs: Inputs, jobs: int) -> dict:
    from teleqos import scenario, units, validation

    cfg = scenario.parse_scenario(inputs.texts["baseline"])
    grid = [units.parse_rate(f"{v} Mbps") for v in SWEEP_GRID_MBPS]
    rows = validation.run_validation(
        cfg, "R", grid,
        nack_grid=SWEEP_NACKS,
        duration=SWEEP_DURATION_S,
        warmup=SWEEP_WARMUP_S,
        simulate=True,
        jobs=jobs,
    )
    return {"table.csv": validation.emit_validation(rows, "csv").encode()}


def adaptive_rates(inputs: Inputs, jobs: int) -> dict:
    from teleqos import cli

    out = io.StringIO()
    for kind in SIGNAL_KINDS:
        argv = ["--seed", str(inputs.seed), "rates", "--config", str(inputs.path(kind))]
        with redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise OperationFailed(f"rates {kind}: exit code {code}")
    return {"stdout": out.getvalue().encode()}


def simulate_argv(inputs: Inputs) -> list[str]:
    return [
        "simulate", "--config", str(inputs.path("baseline")),
        "--duration", f"{BASELINE_DURATION_S:g}",
        "--trace", str(inputs.tmp / "trace.csv"),
    ]


def run_child(argv: list[str], inputs: Inputs) -> bytes:
    """Run one subprocess to completion; its stdout, or OperationFailed on a
    non-zero exit code or a timeout."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=inputs.child_env(), cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise OperationFailed(f"{argv[1:4]}: timed out after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        raise OperationFailed(f"exit code {proc.returncode}: {tail[0]}")
    return out


def trace_cli(inputs: Inputs, jobs: int) -> dict:
    out = run_child([sys.executable, "-m", "teleqos.cli", *simulate_argv(inputs)], inputs)
    return {"trace.csv": inputs.tmp / "trace.csv", "stdout": out}


def _traced_child(inputs: Inputs, mode: str) -> tuple[dict, dict]:
    doc_path = inputs.tmp / "child.pkl"
    argv = [sys.executable, str(BENCH_DIR / "child.py"), mode, str(doc_path), "--", *simulate_argv(inputs)]
    out = run_child(argv, inputs)
    with open(doc_path, "rb") as fh:
        doc = pickle.load(fh)  # written by child.py of this benchmark
    return {"trace.csv": inputs.tmp / "trace.csv", "stdout": out}, doc


# --------------------------------------------------------------------------
# the workload table


@dataclass(frozen=True)
class Workload:
    name: str
    iterate: object          # (inputs, jobs) -> outputs, run in this process
    jobs: int                # process-pool size of the timed iteration
    modelled_s: float        # simulated (or signal) seconds per iteration
    setup_scenario: str      # the scenario the set-up probe parses and builds
    in_child: bool           # the work runs in a child process, which reports spans and peaks
    active: frozenset        # spans a traced iteration must record; the rest must stay idle
    work_unit: tuple | None = None  # (throughput name, units of work per iteration)

    @property
    def expected(self) -> dict[str, bool]:
        return {name: name in self.active for name in SPAN_NAMES}

    def run(self, inputs: Inputs) -> dict:
        return self.iterate(inputs, self.jobs)

    def run_serial(self, inputs: Inputs) -> dict:
        """The untraced counterpart of a traced iteration: no process pool,
        because spans recorded inside pool workers never reach this process."""
        return self.iterate(inputs, 1)

    def run_traced(self, inputs: Inputs, tracer: Tracer) -> dict:
        if self.in_child:
            outputs, doc = _traced_child(inputs, "spans")
            tracer.spans, tracer.counts = doc["spans"], doc["counts"]
            for name, call in doc["first_args"].items():
                tracer.first_args.setdefault(name, call)
            return outputs
        with installed(tracer):
            return self.iterate(inputs, 1)

    def run_tracemalloc(self, inputs: Inputs) -> tuple[dict, int]:
        """One serial iteration with tracemalloc on; outputs and peak bytes."""
        if self.in_child:
            outputs, doc = _traced_child(inputs, "tracemalloc")
            return outputs, doc["py_peak"]
        import tracemalloc

        tracemalloc.start()
        try:
            outputs = self.iterate(inputs, 1)
            return outputs, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-baseline", sim_baseline, 1, BASELINE_DURATION_S, "baseline", False,
            frozenset({
                "scenario.parse", "simulator.build", "simulator.run", "simulator.extract",
                "validation.compliance", "model.qos_check",
            }),
        ),
        Workload(
            "trace-cli", trace_cli, 1, BASELINE_DURATION_S, "baseline", True,
            frozenset({
                "cli.main", "cli.write", "scenario.parse", "simulator.build", "simulator.run",
                "simulator.to_csv", "validation.compliance", "validation.emit", "model.qos_check",
            }),
        ),
        Workload(
            "adaptive-rates", adaptive_rates, 1, SIGNAL_DURATION_S * len(SIGNAL_KINDS),
            SIGNAL_KINDS[0], False,
            frozenset({
                "cli.main", "scenario.parse", "simulator.build",
                "sampling.synth", "sampling.deadband", "sampling.mux", "sampling.rate",
            }),
            ("samples_per_s", round(SIGNAL_DURATION_S * 1000) * len(SIGNAL_KINDS)),
        ),
        Workload(
            "validate-sweep", validate_sweep, SWEEP_JOBS,
            SWEEP_DURATION_S * len(SWEEP_GRID_MBPS) * len(SWEEP_NACKS), "baseline", False,
            frozenset({
                "scenario.parse", "validation.sweep", "validation.point", "simulator.build",
                "simulator.run", "simulator.extract", "model.delay_bounds",
                "model.haptic_jitter_max", "model.validity_check", "validation.emit",
            }),
            ("points_per_s", len(SWEEP_GRID_MBPS) * len(SWEEP_NACKS)),
        ),
    )
}


def pinned(workload: str, seed: int) -> dict | None:
    table = PINNED[workload]
    return table.get(None, table.get(seed))
