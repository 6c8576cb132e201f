"""teleqos benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/. Workloads are defined in workloads.py.

--trace 0 times closed-loop iterations for S seconds and reports the
end-to-end metrics: setup_s (fresh interpreter to a built simulator,
median of several), wall_s (seconds per iteration at the reference host
speed, see below), sim_s_per_s (simulated or signal seconds per such
second) and peak_rss_mb (of the processes doing the work).

The host's speed drifts by 10-25 % over minutes, which no statistic over
one run's iterations can remove. So every iteration is followed by one run
of reference.py, a fixed task with no teleqos code, and wall_s is the
mean iteration time scaled by REFERENCE_S over the mean reference time of
the same run: the seconds an iteration takes on a host on which the
reference task takes REFERENCE_S. The raw mean and the reference time are
printed on the summary line before the result.

--trace 1 alternates untraced and traced iterations for S seconds and
reports the per-layer metrics from the traced ones (medians over traced
iterations), the tracing overhead (median traced-minus-untraced
difference), a tracemalloc peak from one further iteration, and the
per-call cost of the closed forms on the arguments the workload passed.
It fails the run if a layer the workload should use recorded no call, or
a layer it should not use recorded one.

Every iteration's outputs are hashed and compared with the pinned digests
(or, for a seed without a pin, with the run's first iteration); a
mismatch, an exception or an unexpected exit code counts as a failed
operation. The last stdout line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import MODEL_TIMED, Tracer, call_counts, coverage_problems, layer_metrics, per_call_us
from workloads import BENCH_DIR, ROOT, SRC, WORKLOADS, Inputs, pinned

TMP_PARENT = ROOT / ".perfbench-tmp"
SETUP_RUNS = 5
MIN_ITERATIONS = 3
# median time of reference.py on the machine the baseline was recorded on
# (2 vCPUs of an Intel Xeon at 2.1 GHz); a constant, so that wall_s stays
# comparable between commits
REFERENCE_S = 3.0


def digest(value) -> str:
    if isinstance(value, Path):
        with open(value, "rb") as fh:
            return hashlib.file_digest(fh, "sha256").hexdigest()
    return hashlib.sha256(value).hexdigest()


class OutputCheck:
    """Compares each iteration's output digests with the pinned ones, or
    with the first iteration's when the seed has no pin."""

    def __init__(self, expected: dict | None) -> None:
        self.expected = expected

    def mismatches(self, outputs: dict) -> list[str]:
        """Names of the outputs whose digest differs from the expected one."""
        got = {name: digest(value) for name, value in outputs.items()}
        if self.expected is None:
            self.expected = got
        return [
            f"{name} {got.get(name)} (expected {self.expected.get(name)})"
            for name in sorted(set(got) | set(self.expected))
            if got.get(name) != self.expected.get(name)
        ]


class Ledger:
    """Attempted and failed operations of one run."""

    def __init__(self, check: OutputCheck) -> None:
        self.check = check
        self.attempted = 0
        self.failed = 0

    def time(self, fn, *args):
        """Run one operation and check its outputs; its wall seconds, or None
        when it raised. A digest mismatch is a failure that still has a time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            outputs = fn(*args)
        except Exception:  # any failure of the program counts against it, and the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        wall = time.perf_counter() - start
        wrong = self.check.mismatches(outputs)
        # a file output is deleted once hashed, while its pages are still
        # dirty: they are dropped unwritten, and the next iteration creates a
        # new file instead of truncating one the kernel may be writing back,
        # so no iteration waits on the disk for the one before it
        for value in outputs.values():
            if isinstance(value, Path):
                value.unlink()
        for line in wrong:
            print(f"perfbench: output digest mismatch: {line}", file=sys.stderr)
        self.failed += bool(wrong)
        return wall


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values: list[float]) -> float:
    if not values:
        raise SystemExit("perfbench: no operation completed")
    return statistics.median(values)


def setup_probes(workload, inputs: Inputs) -> tuple[list[float], list[dict]]:
    """Fresh interpreters that import teleqos.cli, parse and build the
    workload's scenario. This process has imported teleqos.cli already, so
    the bytecode cache is written and no probe pays for compiling it."""
    walls, steps = [], []
    argv = [sys.executable, str(BENCH_DIR / "child.py"), "setup", str(inputs.path(workload.setup_scenario))]
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, env=inputs.child_env(), cwd=ROOT) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or not line:
            raise RuntimeError(f"set-up probe exited with code {code}")
        walls.append(wall)
        steps.append(json.loads(line))
    return walls, steps


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def reference_run(inputs: Inputs) -> float:
    """Wall seconds of one run of reference.py in a fresh interpreter."""
    out = inputs.tmp / "reference.csv"
    start = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH_DIR / "reference.py"), str(out)], check=True, timeout=60)
    wall = time.perf_counter() - start
    out.unlink()
    return wall


def untraced(workload, inputs: Inputs, seconds: float, ledger: Ledger) -> tuple[dict, str]:
    walls, references = [], []
    child_rss = None
    deadline = time.perf_counter() + seconds
    # no iteration is started that would end, with its reference run and at
    # the mean pace so far, past the deadline
    while (ledger.attempted < MIN_ITERATIONS
           or time.perf_counter() + _mean(walls) + _mean(references) <= deadline):
        wall = ledger.time(workload.run, inputs)
        if wall is not None:
            walls.append(wall)
        if child_rss is None:
            # the children's peak so far is that of the first iteration's
            # child, as every iteration's child does the same work; after
            # this, reference runs and set-up probes count among the children
            child_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        references.append(reference_run(inputs))
    rss = child_rss if workload.in_child else peak_rss_mb(resource.RUSAGE_SELF)
    setup, _ = setup_probes(workload, inputs)
    # means, not medians: the host slows down for seconds at a time, which
    # splits the times into two modes, and the iterations and the reference
    # runs share the slow stretches only over the whole run
    raw = _mean(walls)
    wall_s = raw * REFERENCE_S / _mean(references)
    note = (f"{len(walls)} iterations, median {_median(walls):.4f} s, mean {raw:.4f} s; "
            f"reference {_mean(references):.4f} s; wall_s {wall_s:.4f} s")
    if workload.work_unit:
        name, per_iteration = workload.work_unit
        note += f", {name} {per_iteration / wall_s:.6g}"
    metrics = {
        "setup_s": _median(setup),
        "wall_s": wall_s,
        "sim_s_per_s": workload.modelled_s / wall_s,
        "peak_rss_mb": rss,
    }
    return metrics, note


def traced(workload, inputs: Inputs, seconds: float, ledger: Ledger) -> tuple[dict, list[str]]:
    tracer = Tracer()
    passes, overheads, efficiencies, per_iteration = [], [], [], []
    calls: dict[str, int] = {}
    deadline = time.perf_counter() + seconds
    # an untraced, a traced and, for a pooled workload, a pooled iteration
    # take turns, so that each group sees the same host speed: traced minus
    # untraced is the tracing overhead, untraced over jobs x pooled the
    # pool's efficiency
    while not passes or time.perf_counter() + _mean(passes) <= deadline:
        begin = time.perf_counter()
        wall = ledger.time(workload.run_serial, inputs)
        tracer.reset()
        traced_wall = ledger.time(workload.run_traced, inputs, tracer)
        per_iteration.append(layer_metrics(tracer.spans, tracer.counts))
        for name, n in call_counts(tracer.spans).items():
            calls[name] = calls.get(name, 0) + n
        if wall is not None and traced_wall is not None:
            overheads.append(traced_wall - wall)
        if workload.jobs > 1:
            pooled = ledger.time(workload.run, inputs)
            if wall is not None and pooled is not None:
                efficiencies.append(wall / (workload.jobs * pooled))
        passes.append(time.perf_counter() - begin)

    metrics = {key: _median([m[key] for m in per_iteration]) for key in per_iteration[0]}
    metrics["trace.overhead_s"] = _median(overheads)
    metrics["validation.pool_efficiency"] = statistics.median(efficiencies) if efficiencies else 0.0

    peaks = []

    def tracemalloc_pass(inputs):
        outputs, peak = workload.run_tracemalloc(inputs)
        peaks.append(peak)
        return outputs

    ledger.time(tracemalloc_pass, inputs)
    metrics["simulator.py_peak_mb"] = peaks[0] / 2**20 if peaks else 0.0

    from teleqos import model

    for name in MODEL_TIMED:
        cost = 0.0
        if name in tracer.first_args:
            args, kwargs = tracer.first_args[name]
            cost = per_call_us(getattr(model, name.split(".", 1)[1]), args, kwargs)
        metrics[f"{name}_us"] = cost

    _, steps = setup_probes(workload, inputs)
    metrics["cli.import_s"] = _median([s["import_s"] for s in steps])
    return metrics, coverage_problems(calls, workload.expected)


def units_of(trace: bool) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "teleqos" / "__init__.py").is_file():
        print(f"perfbench: no teleqos sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import teleqos.cli  # noqa: F401  (writes the bytecode cache before anything is timed)

    workload = WORKLOADS[args.workload]
    TMP_PARENT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_PARENT) as tmp:
        inputs = Inputs(args.seed, Path(tmp))
        ledger = Ledger(OutputCheck(pinned(workload.name, args.seed)))
        problems: list[str] = []
        if args.trace:
            measured, problems = traced(workload, inputs, args.seconds, ledger)
            note = f"overhead {measured['trace.overhead_s']:.4f} s per iteration"
        else:
            measured, note = untraced(workload, inputs, args.seconds, ledger)
    try:
        TMP_PARENT.rmdir()
    except OSError:  # another run is still using it
        pass

    for problem in problems:
        print(f"perfbench: layer coverage: {problem}", file=sys.stderr)
    units = units_of(bool(args.trace))
    missing = sorted(set(units) ^ set(measured))
    if missing:
        raise SystemExit(f"perfbench: metrics and BENCHMARK.json disagree on {missing}")
    print(
        f"# {workload.name} seed={args.seed} trace={args.trace}: {note}; "
        f"failed_ops {ledger.failed}/{ledger.attempted}; layer coverage problems {len(problems)}"
    )
    result = {
        "correct": ledger.failed == 0 and not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in measured.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
