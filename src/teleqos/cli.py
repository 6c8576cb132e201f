"""Command-line interface.

Subcommands: analyze (closed-form compliance report), simulate (packet-level
run with measured metrics and loss verdicts), validate (analytic-vs-simulated
sweep table), rates (adaptive-sampling rate series). Exit codes: 0 on
success/QoS pass, 1 on QoS fail, 2 on input errors, paths that cannot be
opened included, 3 when the simulator breaks one of its post-conditions.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from itertools import count
from typing import TextIO

from . import simulator, units, validation
from .scenario import ScenarioConfig, ScenarioSemanticError, load_scenario
from .units import UnitError

EXIT_OK = 0
EXIT_QOS_FAIL = 1
EXIT_INPUT = 2
EXIT_ENGINE = 3


def _output(path: str | None) -> Callable[[str], object]:
    """A function that writes a command's report to the file at path, or to
    stdout without a path. The file opens here, without truncation, so a
    path that cannot be written fails before the command's work, and the
    file keeps its contents until the report replaces them. A report is a
    few kB; the raw trace never comes this way (see _trace_file)."""
    if not path:
        return lambda text: sys.stdout.write(text)  # looked up when written
    with open(path, "a", encoding="utf-8"):
        pass

    def write(text: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    return write


@contextmanager
def _trace_file(path: str) -> Iterator[TextIO]:
    """The text file simulate's trace streams into while the engine runs.

    A target that exists and is not a regular file (a FIFO, a device) takes
    the stream directly. Otherwise the target must open for appending, as
    _output checks, and the stream goes to a new file created beside the
    file the path names, symlinks resolved; that file replaces the target
    only when the block ends without an error, and is removed when it ends
    with one, so a failed run leaves the target as it was."""
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True  # a missing file, or a symlink to one, is created
    if not regular:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    with open(path, "a", encoding="utf-8"):
        pass
    target = os.path.realpath(path)
    for n in count():
        tmp = os.path.join(os.path.dirname(target), f".teleqos-{os.getpid()}-{n}.tmp")
        try:
            fh = open(tmp, "x", encoding="utf-8")  # never an existing file
            break
        except FileExistsError:
            pass
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _load(args) -> ScenarioConfig:
    """The scenario file with --seed, --duration and --warmup applied."""
    config = load_scenario(args.config)
    overrides = ((key, getattr(args, key, None)) for key in ("seed", "duration", "warmup"))
    return replace(config, **{key: value for key, value in overrides if value is not None})


def _cmd_analyze(config: ScenarioConfig, args) -> int:
    h = validation.haptic_spec_of(config)
    report = validation.qos_check(config.net, h, config.qos, config.mux)
    _output(args.out)(validation.emit_compliance(report, args.format))
    return EXIT_OK if report.overall else EXIT_QOS_FAIL


def _cmd_simulate(config: ScenarioConfig, args) -> int:
    spec = None
    if any(f.kind == "telehaptic" for f in config.flows):
        spec = validation.haptic_spec_of(config)  # its input errors come before the run
    sim = simulator.build_simulator(config)
    # both outputs open before the run, so a bad path costs no simulation;
    # the trace replaces its file only if the compliance check passes too
    with _trace_file(args.trace) if args.trace else nullcontext() as sink:
        write_out = _output(args.out)
        trace = simulator.run(sim, record=sink)
        report = None if spec is None else validation.compliance_from_simulation(config, trace)

    lines = []
    for name, m in trace.metrics.items():
        delay = (
            f"delay {m.min_delay * 1e3:.3f}..{m.max_delay * 1e3:.3f} ms"
            if m.min_delay is not None
            else "no deliveries"
        )
        losses = " ".join(
            f"{tag}:{frac * 100:.3f}%" for tag, frac in sorted(m.media_loss.items())
        )
        lines.append(
            f"{name}: delivered {m.delivered} dropped {m.dropped} "
            f"({m.loss_fraction * 100:.4f}%) {delay} "
            f"max+jitter {m.max_positive_jitter * 1e3:.3f} ms  loss[{losses}]"
        )
    text = "\n".join(lines) + "\n"
    code = EXIT_OK
    if report is not None:
        text += validation.emit_compliance(report, args.format)
        code = EXIT_OK if report.overall else EXIT_QOS_FAIL
    write_out(text)
    return code


def _parse_sweep(spec: str) -> tuple[str, list[float]]:
    if "=" not in spec:
        raise UnitError("sweep must look like VAR=a,b,c with unit-suffixed values")
    var, _, values = spec.partition("=")
    grid = [units.RATE.parse(v.strip()) for v in values.split(",") if v.strip()]
    if not grid:
        raise UnitError("sweep grid is empty")
    return var.strip(), grid


def _cmd_validate(config: ScenarioConfig, args) -> int:
    var, grid = _parse_sweep(args.sweep)
    try:
        nacks = tuple(int(n) for n in args.nack.split(","))
    except ValueError:
        raise ValueError(f"--nack must be a comma list of integers, got {args.nack!r}") from None
    write_out = _output(args.out)
    rows = validation.run_validation(
        config, var, grid,
        nack_grid=nacks,
        jobs=args.jobs,
    )
    write_out(validation.emit_validation(rows, args.format))
    return EXIT_OK


def _cmd_rates(config: ScenarioConfig, args) -> int:
    if not 0 < args.window < math.inf:  # before the stream is synthesized
        raise ValueError(f"--window must be finite and positive, got {args.window}")
    # numpy loads only for the commands that need it
    import numpy as np

    from . import sampling

    adaptive = [f for f in config.flows if f.kind == "adaptive"]
    if not adaptive:
        raise ScenarioSemanticError("rates: the scenario has no adaptive flow")
    flow = adaptive[0]
    write_out = _output(args.out)
    sim = simulator.build_simulator(config)
    src = sim.sources[config.flows.index(flow)]
    t_ns, sizes = src.schedule[:2]
    pairs = np.column_stack((t_ns / 1e9, sizes))
    series = sampling.instantaneous_rate(pairs, window=args.window)
    if args.format == "csv":
        times, rates = series.times.tolist(), series.rates.tolist()
        text = validation.write_csv([
            ("time_s", "rate_Bps"), *((f"{t:.3f}", f"{r:.1f}") for t, r in zip(times, rates)),
            ("# peak_Bps", f"{series.peak:.1f}"), ("# mean_Bps", f"{series.mean:.1f}"),
        ])
    else:
        text = (
            f"flow {flow.name} (deadband {flow.deadband:g}): "
            f"peak {series.peak * 8 / 1e3:.1f} kbps, "
            f"mean {series.mean * 8 / 1e3:.1f} kbps, "
            f"peak/mean {series.peak / series.mean:.2f} "
            f"(window {args.window * 1e3:.0f} ms)\n"
        )
    write_out(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="teleqos", description=__doc__)
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True)
    common.add_argument("--out")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--duration", type=float, default=None,
                        help="simulated seconds (default: the scenario's)")
    window.add_argument("--warmup", type=float, default=None, help="seconds excluded from metrics")

    a = sub.add_parser("analyze", parents=[common], help="closed-form QoS compliance report")
    a.set_defaults(func=_cmd_analyze)

    s = sub.add_parser("simulate", parents=[common, window],
                       help="packet-level simulation of the scenario")
    s.add_argument("--trace", help="write the raw event trace CSV here")
    s.set_defaults(func=_cmd_simulate)

    v = sub.add_parser("validate", parents=[common, window],
                       help="analytic-vs-simulated sweep table")
    v.add_argument("--sweep", required=True, metavar="VAR=a,b,c",
                   help="R or mu with unit-suffixed grid values, e.g. R=2Mbps,3Mbps")
    v.add_argument("--nack", default="1,2", help="comma list of cumulative-ACK factors")
    v.add_argument("--jobs", type=int, default=1)
    v.set_defaults(func=_cmd_validate)

    r = sub.add_parser("rates", parents=[common],
                       help="adaptive-sampling instantaneous rate series")
    r.add_argument("--window", type=float, default=0.1, help="sliding window, seconds")
    r.set_defaults(func=_cmd_rates)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_load(args), args)
    except (OSError, ValueError) as exc:  # an OSError's text names its path
        print(f"teleqos: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except simulator.SimulationError as exc:
        print(f"teleqos: simulation failed: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
