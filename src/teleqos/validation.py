"""Analytic-vs-simulation validation sweeps and report emission.

A sweep varies one control variable (the aggregate CBR rate R, adjusted
through the cross-traffic flow, or the link capacity mu) over a grid and
produces one row per (grid point, cumulative-ACK factor): analytic delay
bounds and jitter next to the simulated values, relative errors, and the
model-validity flags. Rows are order-stable; grid points can run as
independent parallel jobs.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields, replace

from . import simulator
from .model import (
    CbrAggregate,
    ComplianceReport,
    ConditionResult,
    HapticFlowSpec,
    QosSpec,
    ValidityFlags,
    delay_bounds,
    haptic_jitter_max,
    qos_check,
    validity_check,
)
from .scenario import ScenarioConfig, ScenarioSemanticError

VALIDATION_COLUMNS = (
    "control", "nack",
    "dmin_a_ms", "dmin_s_ms", "dmax_a_ms", "dmax_s_ms",
    "jit_a_ms", "jit_s_ms", "single_loss_flag",
)

# simulated jitter must fall in [LOW*analytic, analytic + SLACK] when the
# single-loss flag holds
JITTER_ENVELOPE_LOW = 0.7
JITTER_ENVELOPE_SLACK = 50e-6


@dataclass(frozen=True)
class ValidationRow:
    control: float            # grid value in its native unit (B/s)
    nack: int
    dmin_a: float
    dmax_a: float
    jit_a: float
    flags: ValidityFlags
    dmin_s: float | None = None   # the simulated columns: None until a run measures them
    dmax_s: float | None = None
    jit_s: float | None = None

    def rel_error(self, analytic: float, simulated: float | None) -> float | None:
        if simulated is None or analytic == 0:
            return None
        return abs(analytic - simulated) / analytic

    @property
    def dmin_rel_error(self) -> float | None:
        return self.rel_error(self.dmin_a, self.dmin_s)

    @property
    def dmax_rel_error(self) -> float | None:
        return self.rel_error(self.dmax_a, self.dmax_s)

    @property
    def jitter_envelope_ok(self) -> bool | None:
        """Simulated jitter within [0.7*A, A + 50us]; None outside the
        single-loss regime (where the bound is not claimed) or without a
        simulated value."""
        if self.jit_s is None or not self.flags.single_loss:
            return None
        return (
            JITTER_ENVELOPE_LOW * self.jit_a <= self.jit_s
            <= self.jit_a + JITTER_ENVELOPE_SLACK
        )


def haptic_spec_of(config: ScenarioConfig) -> HapticFlowSpec:
    """Extract the telehaptic flow + aggregated cross traffic for the closed forms."""
    tele = [f for f in config.flows if f.kind == "telehaptic"]
    if len(tele) != 1:
        raise ScenarioSemanticError(
            f"analytic operations need exactly one telehaptic flow, found {len(tele)}"
        )
    cross = [f for f in config.flows if f.kind == "cbr"]
    if len(cross) > 1:
        raise ScenarioSemanticError(
            "analytic operations support at most one CBR cross-traffic flow"
        )
    th = tele[0]
    return HapticFlowSpec(
        rate_h=th.rate,
        gap_h=th.gap,
        pkt_h=th.packet,
        rate_cross=cross[0].rate if cross else 0.0,
        pkt_cross=cross[0].packet if cross else 1.0,
    )


def _sweep_config(config: ScenarioConfig, var: str, value: float) -> ScenarioConfig:
    if var == "mu":
        return replace(config, net=replace(config.net, mu=value))
    if var == "R":
        h = haptic_spec_of(config)
        cross_rate = value - h.rate_h
        if cross_rate < 0:
            raise ScenarioSemanticError(
                f"sweep point R={value:.6g} B/s is below the telehaptic rate {h.rate_h:.6g} B/s"
            )
        if not any(f.kind == "cbr" for f in config.flows):
            raise ScenarioSemanticError("R sweep needs a CBR cross-traffic flow to adjust")
        # the one cross flow carries the rest of R, its gap packet/rate; at 0 it goes
        flows = tuple(replace(f, rate=cross_rate, gap=None) if f.kind == "cbr" else f
                      for f in config.flows if f.kind != "cbr" or cross_rate > 0)
        return replace(config, flows=flows)
    raise ScenarioSemanticError(f"unknown sweep variable {var!r} (expected R or mu)")


def _one_point(row: ValidationRow, sim: simulator.Simulator | None) -> ValidationRow:
    """row, one sweep point's analytic row, with its measured columns filled
    in by running sim, the point's built simulator, when one is given."""
    if sim is None:
        return row
    tele_name = next(f.name for f in sim.config.flows if f.kind == "telehaptic")
    trace = simulator.run(sim)
    m = trace.metrics[tele_name]
    # d_max is a bound, so the run-wide maximum is compared; d_min uses
    # the mean of per-cycle minima to smooth recovery transients
    try:
        cycles = simulator.extract_cycles(trace)
        dmin_s = cycles.observed_d_min(tele_name)
    except (simulator.InsufficientCycles, simulator.UnknownFlow):
        # too few cycles, or none with a delivery of the flow
        dmin_s = m.min_delay
    return replace(row, dmin_s=dmin_s, dmax_s=m.max_delay,
                   jit_s=m.max_positive_jitter if m.delivered else None)


def run_validation(
    config: ScenarioConfig,
    var: str,
    grid: list[float],
    nack_grid: tuple[int, ...] = (1, 2),
    duration: float | None = None,
    warmup: float | None = None,
    simulate: bool = True,
    jobs: int = 1,
) -> list[ValidationRow]:
    """One ValidationRow per (grid value, n_ack), sorted by (control, nack);
    duration and warmup, where given, replace the scenario's run window.
    Every point's closed forms are evaluated, and with simulate on its
    simulator built, before any point runs; a point they reject, like a
    jobs below 1, raises ScenarioSemanticError. jobs > 1 runs the points
    in that many processes, at most one per point."""
    if jobs < 1:
        raise ScenarioSemanticError(f"jobs must be >= 1, got {jobs}")
    window = {"duration": duration, "warmup": warmup}
    config = replace(config, **{key: value for key, value in window.items() if value is not None})
    points = []
    for value in sorted(grid):
        swept = _sweep_config(config, var, value)
        for nack in sorted(nack_grid):
            cfg = replace(swept, net=replace(swept.net, n_ack=nack))
            h = haptic_spec_of(cfg)
            agg = CbrAggregate(h.rate_total)
            row = ValidationRow(value, nack, *delay_bounds(cfg.net, agg),
                                haptic_jitter_max(cfg.net, h), validity_check(cfg.net, agg))
            points.append((row, simulator.build_simulator(cfg) if simulate else None))
    workers = min(jobs, len(points))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_one_point, *point) for point in points]
            return [f.result() for f in futures]
    return [_one_point(*point) for point in points]


# --------------------------------------------------------------------------
# simulation-backed compliance


def compliance_from_simulation(config: ScenarioConfig, trace: simulator.Trace) -> ComplianceReport:
    """Analytic sufficiency conditions plus measured per-media loss verdicts."""
    h = haptic_spec_of(config)
    report = qos_check(config.net, h, config.qos, config.mux)

    for media in (f.name for f in fields(QosSpec)):
        carriers = [m for m in trace.metrics.values() if media in m.media_bytes]
        if not carriers:
            if media == "haptic":
                raise ScenarioSemanticError(
                    f"no haptic bytes measured in the window from {config.effective_warmup:g} s "
                    f"to {config.duration:g} s, so there is no loss verdict"
                )
            report.conditions.append(
                ConditionResult(f"{media}_loss", passed=None, note="no such media in the run")
            )
            continue
        total = dropped = 0.0
        for m in carriers:
            total += m.media_bytes[media]
            dropped += m.media_dropped_bytes.get(media, 0.0)
        frac = dropped / total if total else 0.0
        limit = getattr(config.qos, media).loss
        report.conditions.append(
            ConditionResult(f"{media}_loss", passed=frac <= limit, value=frac, limit=limit, unit="")
        )
    return report


# --------------------------------------------------------------------------
# report emission


# a condition's unit -> the text report's rendering of a value in it
HUMAN_UNITS = {
    "s": lambda value: f"{value * 1e3:.3g} ms",
    "": lambda value: f"{value * 100:.3g}%",
    "B/s": lambda value: f"{value * 8 / 1e6:.4g} Mbps",
    "B": lambda value: f"{value:.6g} B",
}


def _fmt_ms(value: float | None) -> str:
    return "" if value is None else f"{value * 1e3:.4f}"


def write_csv(rows) -> str:
    """Rows of text cells as CSV, each line ending in a newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def emit_validation(rows: list[ValidationRow], fmt: str) -> str:
    """Rows as CSV (fixed column order) or an aligned text table.

    Rate-valued controls are reported in Mbps, capacities likewise.
    """
    table = [VALIDATION_COLUMNS]
    for r in rows:
        table.append(
            (
                f"{r.control * 8 / 1e6:.6g}", str(r.nack),
                _fmt_ms(r.dmin_a), _fmt_ms(r.dmin_s),
                _fmt_ms(r.dmax_a), _fmt_ms(r.dmax_s),
                _fmt_ms(r.jit_a), _fmt_ms(r.jit_s),
                "true" if r.flags.single_loss else "false",
            )
        )
    if fmt == "csv":
        return write_csv(table)
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines) + "\n"


def emit_compliance(report: ComplianceReport, fmt: str) -> str:
    skip = "SKIP" if fmt == "csv" else "skip"

    def verdict(passed: bool | None) -> str:
        return "PASS" if passed else "FAIL" if passed is not None else skip

    if fmt == "csv":
        rows = [("condition", "verdict", "hard", "value", "limit", "note")]
        rows += [
            (
                c.name, verdict(c.passed), "yes" if c.hard else "no",
                "" if c.value is None else f"{c.value:.6g}",
                "" if c.limit is None else f"{c.limit:.6g}",
                c.note,
            )
            for c in report.conditions
        ]
        rows.append(("overall", verdict(report.overall), "", "", "", ""))
        return write_csv(rows)

    lines = []
    for c in report.conditions:
        detail = ""
        if c.value is not None and c.limit is not None:
            human = HUMAN_UNITS[c.unit]
            detail = f"  ({human(c.value)} vs limit {human(c.limit)})"
        flag = "" if c.hard else "  [warning only]"
        note = f"  -- {c.note}" if c.note and c.passed is False else ""
        lines.append(f"{c.name:<14} {verdict(c.passed)}{detail}{flag}{note}")
    flags = (report.condition("stability").passed,
             report.validity.full_utilization, report.validity.single_loss)
    lines.append("validity: stability={} full-utilization={} single-loss={}".format(
        *("yes" if x else "no" for x in flags)))
    lines.append(f"overall: {verdict(report.overall)}")
    return "\n".join(lines) + "\n"
