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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from . import simulator
from .model import (
    CbrAggregate,
    ComplianceReport,
    ConditionResult,
    HapticFlowSpec,
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
    dmin_s: float | None
    dmax_a: float
    dmax_s: float | None
    jit_a: float
    jit_s: float | None
    flags: ValidityFlags

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
        cross = [f for f in config.flows if f.kind == "cbr"]
        if not cross:
            raise ScenarioSemanticError("R sweep needs a CBR cross-traffic flow to adjust")
        if cross_rate == 0:
            flows = tuple(f for f in config.flows if f.kind != "cbr")
            return replace(config, flows=flows)
        return config.with_flow_rate(cross[0].name, cross_rate)
    raise ScenarioSemanticError(f"unknown sweep variable {var!r} (expected R or mu)")


def _one_point(
    config: ScenarioConfig,
    var: str,
    value: float,
    nack: int,
    simulate: bool,
) -> ValidationRow:
    cfg = _sweep_config(config, var, value)
    cfg = replace(cfg, net=replace(cfg.net, n_ack=nack))
    h = haptic_spec_of(cfg)
    agg = CbrAggregate(h.rate_total)
    flags = validity_check(cfg.net, agg)
    dmin_a, dmax_a = delay_bounds(cfg.net, agg)
    jit_a = haptic_jitter_max(cfg.net, h)

    dmin_s = dmax_s = jit_s = None
    if simulate:
        tele_name = next(f.name for f in cfg.flows if f.kind == "telehaptic")
        trace = simulator.run(simulator.build_simulator(cfg))
        m = trace.metrics[tele_name]
        jit_s = m.max_positive_jitter if m.delivered else None
        # d_max is a bound, so the run-wide maximum is compared; d_min uses
        # the mean of per-cycle minima to smooth recovery transients
        dmax_s = m.max_delay
        try:
            cycles = simulator.extract_cycles(trace)
            dmin_s = cycles.observed_d_min(tele_name)
        except simulator.InsufficientCycles:
            dmin_s = m.min_delay
    return ValidationRow(
        control=value, nack=nack,
        dmin_a=dmin_a, dmin_s=dmin_s, dmax_a=dmax_a, dmax_s=dmax_s,
        jit_a=jit_a, jit_s=jit_s, flags=flags,
    )


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
    duration and warmup, where given, replace the scenario's run window."""
    window = {"duration": duration, "warmup": warmup}
    config = replace(config, **{key: value for key, value in window.items() if value is not None})
    tasks = [(value, nack) for value in sorted(grid) for nack in nack_grid]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_one_point, config, var, v, n, simulate) for v, n in tasks]
            rows = [f.result() for f in futures]
    else:
        rows = [_one_point(config, var, v, n, simulate) for v, n in tasks]
    rows.sort(key=lambda r: (r.control, r.nack))
    return rows


# --------------------------------------------------------------------------
# simulation-backed compliance


def compliance_from_simulation(config: ScenarioConfig, trace: simulator.Trace) -> ComplianceReport:
    """Analytic sufficiency conditions plus measured per-media loss verdicts."""
    h = haptic_spec_of(config)
    report = qos_check(config.net, h, config.qos, config.mux)

    limits = {
        "haptic": config.qos.haptic.loss,
        "audio": config.qos.audio.loss,
        "video": config.qos.video.loss,
    }
    observed: dict[str, tuple[float, float]] = {}
    for metrics in trace.metrics.values():
        for tag, total in metrics.media_bytes.items():
            if tag in limits:
                prev_total, prev_dropped = observed.get(tag, (0.0, 0.0))
                observed[tag] = (
                    prev_total + total,
                    prev_dropped + metrics.media_dropped_bytes.get(tag, 0.0),
                )
    if "haptic" not in observed:
        raise ScenarioSemanticError(
            f"no haptic bytes measured in the window from {config.effective_warmup:g} s to "
            f"{config.duration:g} s, so there is no loss verdict"
        )
    for media, limit in limits.items():
        if media in observed:
            total, dropped = observed[media]
            frac = dropped / total if total else 0.0
            report.conditions.append(
                ConditionResult(f"{media}_loss", passed=frac <= limit, value=frac, limit=limit)
            )
        else:
            report.conditions.append(
                ConditionResult(f"{media}_loss", passed=None, note="no such media in the run")
            )
    return report


# --------------------------------------------------------------------------
# report emission


def _fmt_ms(value: float | None) -> str:
    return "" if value is None else f"{value * 1e3:.4f}"


def emit_validation(rows: list[ValidationRow], fmt: str = "csv") -> str:
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
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(table)
        return buf.getvalue()
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines) + "\n"


def emit_compliance(report: ComplianceReport, fmt: str = "text") -> str:
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(("condition", "verdict", "hard", "value", "limit", "note"))
        for c in report.conditions:
            verdict = "PASS" if c.passed else "FAIL" if c.passed is not None else "SKIP"
            w.writerow(
                (
                    c.name, verdict, "yes" if c.hard else "no",
                    "" if c.value is None else f"{c.value:.6g}",
                    "" if c.limit is None else f"{c.limit:.6g}",
                    c.note,
                )
            )
        w.writerow(("overall", "PASS" if report.overall else "FAIL", "", "", "", ""))
        return buf.getvalue()

    def human(name: str, value: float) -> str:
        if name.endswith(("_delay", "_jitter")):
            return f"{value * 1e3:.3g} ms"
        if name.endswith("_loss"):
            return f"{value * 100:.3g}%"
        if name == "stability":
            return f"{value * 8 / 1e6:.4g} Mbps"
        return f"{value:.6g} B"

    lines = []
    for c in report.conditions:
        verdict = "PASS" if c.passed else "FAIL" if c.passed is not None else "skip"
        detail = ""
        if c.value is not None and c.limit is not None:
            detail = f"  ({human(c.name, c.value)} vs limit {human(c.name, c.limit)})"
        flag = "" if c.hard else "  [warning only]"
        note = f"  -- {c.note}" if c.note and c.passed is False else ""
        lines.append(f"{c.name:<14} {verdict}{detail}{flag}{note}")
    v = report.validity
    lines.append(
        "validity: stability={} full-utilization={} single-loss={}".format(
            *("yes" if x else "no" for x in (v.stability, v.full_utilization, v.single_loss))
        )
    )
    lines.append(f"overall: {'PASS' if report.overall else 'FAIL'}")
    return "\n".join(lines) + "\n"
