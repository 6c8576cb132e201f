"""Command-line interface.

Subcommands: analyze (closed-form compliance report), simulate (packet-level
run with measured metrics and loss verdicts), validate (analytic-vs-simulated
sweep table), rates (adaptive-sampling rate series). Exit codes: 0 on
success/QoS pass, 1 on QoS fail, 2 on input errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import sampling, simulator, units, validation
from .scenario import ScenarioConfig, ScenarioError, load_scenario
from .units import UnitError

EXIT_OK = 0
EXIT_QOS_FAIL = 1
EXIT_INPUT = 2


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args) -> ScenarioConfig:
    """The scenario file with --seed, --duration and --warmup applied."""
    config = load_scenario(args.config)
    overrides = ((key, getattr(args, key, None)) for key in ("seed", "duration", "warmup"))
    return replace(config, **{key: value for key, value in overrides if value is not None})


def _cmd_analyze(args) -> int:
    config = _load(args)
    h = validation.haptic_spec_of(config)
    from .model import qos_check

    report = qos_check(config.net, h, config.qos, config.mux)
    _write(validation.emit_compliance(report, args.format), args.out)
    return EXIT_OK if report.overall else EXIT_QOS_FAIL


def _cmd_simulate(args) -> int:
    config = _load(args)
    trace = simulator.run(simulator.build_simulator(config), record=bool(args.trace))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(trace.to_csv())

    lines = []
    for name, m in trace.metrics.items():
        delay = (
            f"delay {m.min_delay * 1e3:.3f}..{m.max_delay * 1e3:.3f} ms"
            if m.min_delay is not None
            else "no deliveries"
        )
        losses = " ".join(f"{tag}:{frac * 100:.3f}%" for tag, frac in sorted(m.media_loss.items()))
        lines.append(
            f"{name}: delivered {m.delivered} dropped {m.dropped} "
            f"({m.loss_fraction * 100:.4f}%) {delay} "
            f"max+jitter {m.max_positive_jitter * 1e3:.3f} ms  loss[{losses}]"
        )
    summary = "\n".join(lines) + "\n"

    has_telehaptic = any(f.kind == "telehaptic" for f in config.flows)
    if has_telehaptic:
        report = validation.compliance_from_simulation(config, trace)
        text = summary + validation.emit_compliance(report, args.format)
        _write(text, args.out)
        return EXIT_OK if report.overall else EXIT_QOS_FAIL
    _write(summary, args.out)
    return EXIT_OK


def _parse_sweep(spec: str) -> tuple[str, list[float]]:
    if "=" not in spec:
        raise UnitError("sweep must look like VAR=a,b,c with unit-suffixed values")
    var, _, values = spec.partition("=")
    var = var.strip()
    if var not in ("R", "mu"):
        raise UnitError(f"unknown sweep variable {var!r} (expected R or mu)")
    grid = [units.parse_rate(v.strip()) for v in values.split(",") if v.strip()]
    if not grid:
        raise UnitError("sweep grid is empty")
    return var, grid


def _cmd_validate(args) -> int:
    config = _load(args)
    var, grid = _parse_sweep(args.sweep)
    nacks = tuple(int(n) for n in args.nack.split(","))
    rows = validation.run_validation(
        config, var, grid,
        nack_grid=nacks,
        jobs=args.jobs,
    )
    _write(validation.emit_validation(rows, args.format), args.out)
    return EXIT_OK


def _cmd_rates(args) -> int:
    config = _load(args)
    adaptive = [f for f in config.flows if f.kind == "adaptive"]
    if not adaptive:
        raise ScenarioError("rates: the scenario has no adaptive flow")
    flow = adaptive[0]
    sim = simulator.build_simulator(config)
    src = sim.sources[config.flows.index(flow)]
    packets = [(t / 1e9, float(size)) for t, size, _ in src.schedule]
    series = sampling.instantaneous_rate(packets, window=args.window)
    if args.format == "csv":
        lines = ["time_s,rate_Bps"]
        lines += [f"{t:.3f},{r:.1f}" for t, r in zip(series.times, series.rates)]
        lines.append(f"# peak_Bps,{series.peak:.1f}")
        lines.append(f"# mean_Bps,{series.mean:.1f}")
        _write("\n".join(lines) + "\n", args.out)
    else:
        _write(
            f"flow {flow.name} (deadband {flow.deadband:g}): "
            f"peak {series.peak * 8 / 1e3:.1f} kbps, "
            f"mean {series.mean * 8 / 1e3:.1f} kbps, "
            f"peak/mean {series.peak / series.mean:.2f} "
            f"(window {args.window * 1e3:.0f} ms)\n",
            args.out,
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="teleqos", description=__doc__)
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="closed-form QoS compliance report")
    a.add_argument("--config", required=True)
    a.add_argument("--out")
    a.set_defaults(func=_cmd_analyze)

    s = sub.add_parser("simulate", help="packet-level simulation of the scenario")
    s.add_argument("--config", required=True)
    s.add_argument("--duration", type=float, default=None,
                   help="simulated seconds (default: the scenario's)")
    s.add_argument("--warmup", type=float, default=None, help="seconds excluded from metrics")
    s.add_argument("--trace", help="write the raw event trace CSV here")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_simulate)

    v = sub.add_parser("validate", help="analytic-vs-simulated sweep table")
    v.add_argument("--config", required=True)
    v.add_argument("--sweep", required=True, metavar="VAR=a,b,c",
                   help="R or mu with unit-suffixed grid values, e.g. R=2Mbps,3Mbps")
    v.add_argument("--nack", default="1,2", help="comma list of cumulative-ACK factors")
    v.add_argument("--duration", type=float, default=None)
    v.add_argument("--warmup", type=float, default=None)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--out")
    v.set_defaults(func=_cmd_validate)

    r = sub.add_parser("rates", help="adaptive-sampling instantaneous rate series")
    r.add_argument("--config", required=True)
    r.add_argument("--window", type=float, default=0.1, help="sliding window, seconds")
    r.add_argument("--out")
    r.set_defaults(func=_cmd_rates)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"teleqos: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
