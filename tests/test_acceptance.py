"""Acceptance gate: one test per criterion, asserting the frozen reference
values at their stated tolerances and printing one verdict line each.

Two reference entries are knowingly inconsistent with the model's own
equations and their tests preserve the discrepancy rather than hiding it:
the R=5.5 Mbps minimum-delay entry (the equations give 23.46 ms, not
22.68 ms; the printed value equals the closed form with one S_tcp term
dropped) and the mu=18 Mbps jitter entry (0.84 ms is not reachable for any
integer burst count; the equations give 0.745/0.488 ms for n=2/1). The
zero-loss criterion is likewise structurally unattainable under a
byte-granular droptail: the queue must climb through its top 137 bytes
before every overflow, so a 1 kHz stream eventually samples a full queue;
the measured loss stays ~0.05%, far below every QoS limit.
"""

import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import repeat

import numpy as np
import pytest

from conftest import record_acceptance
from oracles import mtcp_by_timeline
from teleqos import (
    AvMuxSpec,
    CbrAggregate,
    FlowSpec,
    NetworkParams,
    ScenarioConfig,
    SignalSpec,
    av_delay_bounds,
    build_simulator,
    deadband_filter,
    delay_bounds,
    extract_cycles,
    haptic_jitter_max,
    instantaneous_rate,
    m_tcp_max,
    q_init,
    queue_at_slot,
    run,
    slots_per_cycle,
    solve_q_min,
    synth_haptic_trace,
    vh_mux,
    w_min,
)
from teleqos.sampling import HAPTIC_TICK
from teleqos.simulator import InsufficientCycles
from teleqos.validation import haptic_spec_of, run_validation

MBPS = 1e6 / 8.0
MS = 1e-3

R_GRID_MBPS = (1.096, 2.0, 3.0, 4.0, 5.0, 5.5)
DMIN_REF_MS = (9.91, 10.74, 12.27, 14.81, 19.87, 22.68)
MU_GRID_MBPS = (9.0, 12.0, 15.0, 18.0, 21.0, 25.0)
JITTER_REF_MS = (1.46, 1.62, 1.09, 0.84, 0.49, 0.63)


def _flow_metrics(cfg: ScenarioConfig, flow: str):
    return run(build_simulator(cfg)).metrics[flow]


def flow_metrics(cfgs: list[ScenarioConfig], flow: str) -> list:
    """The flow's metrics in a run of each scenario; the runs are
    independent, so they share two processes."""
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(_flow_metrics, cfgs, repeat(flow)))


def base_net(n_ack: int = 1) -> NetworkParams:
    return NetworkParams(mu=6 * MBPS, tau=8 * MS, buf=14000.0, s_tcp=578.0, n_ack=n_ack)


def telehaptic_flow() -> FlowSpec:
    return FlowSpec(name="media", kind="telehaptic", rate=1.096 * MBPS, packet=137.0, gap=1 * MS)


def sweep_scenario() -> ScenarioConfig:
    flows = (
        telehaptic_flow(),
        FlowSpec(name="bulk", kind="tcp"),
        FlowSpec(name="cross", kind="cbr", rate=1.904 * MBPS, packet=150.0),
    )
    return ScenarioConfig(net=base_net(), flows=flows, duration=60.0, warmup=20.0)


def test_criterion_1_delay_table_analytic():
    """Closed-form d_min/d_max across the R grid at the stated tolerances."""
    t0 = time.time()
    net = base_net()
    failures = []
    for r_mbps, ref_ms in zip(R_GRID_MBPS, DMIN_REF_MS):
        dmin, dmax = delay_bounds(net, CbrAggregate(r_mbps * MBPS))
        if abs(dmax - 26.66 * MS) > 0.02 * MS:
            failures.append(f"R={r_mbps}: d_max {dmax / MS:.3f} vs 26.66 +-0.02 ms")
        if abs(dmin - ref_ms * MS) > 0.05 * MS:
            failures.append(f"R={r_mbps}: d_min {dmin / MS:.3f} vs {ref_ms} +-0.05 ms")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 1.0
    record_acceptance(
        1,
        ok,
        f"analytic delay table, {len(R_GRID_MBPS)} rows in {elapsed * 1e3:.0f} ms"
        + (f"; deviations: {'; '.join(failures)}" if failures else ""),
    )
    assert elapsed < 1.0
    assert not failures, (
        "d_min reference deviations (the R=5.5 entry equals the closed form "
        "with one S_tcp term dropped; the faithful equations give 23.46 ms): "
        + "; ".join(failures)
    )


@pytest.fixture(scope="module")
def delay_sweep_rows():
    cfg = sweep_scenario()
    grid = [r * MBPS for r in R_GRID_MBPS]
    t0 = time.time()
    rows = run_validation(cfg, "R", grid, nack_grid=(1,), duration=60.0, warmup=20.0)
    return rows, time.time() - t0


def test_criterion_2_delay_analytic_vs_simulated(delay_sweep_rows):
    """Simulated d_max within 1% everywhere; d_min within 15% in-regime."""
    rows, elapsed = delay_sweep_rows
    failures = []
    for row, r_mbps in zip(rows, R_GRID_MBPS):
        if row.dmax_rel_error > 0.01:
            failures.append(f"R={r_mbps}: d_max off {row.dmax_rel_error * 100:.2f}%")
        if row.flags.single_loss and row.dmin_rel_error > 0.15:
            failures.append(f"R={r_mbps}: d_min off {row.dmin_rel_error * 100:.1f}%")
        if row.jitter_envelope_ok is False:
            failures.append(
                f"R={r_mbps}: jitter {row.jit_s / MS:.3f} ms outside the envelope "
                f"of {row.jit_a / MS:.3f} ms"
            )
    ok = not failures and elapsed < 120.0
    worst_dmax = max(r.dmax_rel_error for r in rows)
    worst_dmin = max(r.dmin_rel_error for r in rows if r.flags.single_loss)
    record_acceptance(
        2,
        ok,
        f"six 60 s runs in {elapsed:.0f} s; worst d_max err {worst_dmax * 100:.2f}%, "
        f"worst in-regime d_min err {worst_dmin * 100:.1f}%"
        + (f"; {'; '.join(failures)}" if failures else ""),
    )
    assert elapsed < 120.0
    assert not failures, "; ".join(failures)


def jitter_scenario(mu: float, n_ack: int) -> ScenarioConfig:
    # tau chosen so B > 2*mu*tau across the whole capacity grid: the jitter
    # bound is independent of B and tau, but its drain term assumes the
    # queue never idles
    net = NetworkParams(mu=mu, tau=1 * MS, buf=14000.0, s_tcp=578.0, n_ack=n_ack)
    flows = (
        telehaptic_flow(),
        FlowSpec(name="bulk", kind="tcp"),
        FlowSpec(name="cross", kind="cbr", rate=6.9 * MBPS, packet=150.0),
    )
    return ScenarioConfig(net=net, flows=flows, duration=30.0, warmup=10.0)


def test_criterion_3_jitter_table():
    """Analytic jitter vs the reference column (best n of {1,2}, 5%), plus
    the simulated-jitter envelope at the matching n on single-loss rows."""
    analytic_failures = []
    envelope_failures = []
    details = []
    best = []
    for mu_mbps, ref_ms in zip(MU_GRID_MBPS, JITTER_REF_MS):
        mu = mu_mbps * MBPS
        best_n, best_err, best_a = None, None, None
        for n in (1, 2):
            cfg = jitter_scenario(mu, n)
            a = haptic_jitter_max(cfg.net, haptic_spec_of(cfg))
            err = abs(a - ref_ms * MS) / (ref_ms * MS)
            if best_err is None or err < best_err:
                best_n, best_err, best_a = n, err, a
        if best_err > 0.05:
            analytic_failures.append(
                f"mu={mu_mbps}: best analytic {best_a / MS:.3f} ms (n={best_n}) "
                f"vs {ref_ms} ms ({best_err * 100:.0f}% off)"
            )
        best.append((mu_mbps, best_n, best_a))
    simulated = flow_metrics([jitter_scenario(mu_m * MBPS, n) for mu_m, n, _ in best], "media")
    for (mu_mbps, best_n, best_a), m in zip(best, simulated):
        mu = mu_mbps * MBPS
        jit_s = m.max_positive_jitter
        single_loss = 7.996 * MBPS <= 0.65 * mu
        if single_loss and not (0.7 * best_a <= jit_s <= best_a + 0.05 * MS):
            envelope_failures.append(
                f"mu={mu_mbps}: simulated {jit_s / MS:.3f} outside "
                f"[{0.7 * best_a / MS:.3f}, {best_a / MS + 0.05:.3f}] ms"
            )
        details.append(f"mu={mu_mbps}: n={best_n} A={best_a / MS:.2f} S={jit_s / MS:.2f}")
    failures = analytic_failures + envelope_failures
    record_acceptance(
        3,
        not failures,
        "; ".join(details) + (f"; deviations: {'; '.join(failures)}" if failures else ""),
    )
    assert not envelope_failures, "; ".join(envelope_failures)
    assert not analytic_failures, (
        "jitter reference deviations (the mu=18 entry is not reachable for "
        "any integer burst count; the equations give 0.745 ms at n=2): "
        + "; ".join(analytic_failures)
    )


def inflated_scenario(total_rate: float) -> ScenarioConfig:
    flows = [
        FlowSpec(name="media", kind="telehaptic", rate=4.528 * MBPS, packet=566.0, gap=1 * MS),
        FlowSpec(name="bulk", kind="tcp"),
    ]
    cross = total_rate - 4.528 * MBPS
    if cross > 0:
        flows.append(FlowSpec(name="cross", kind="cbr", rate=cross, packet=150.0))
    return ScenarioConfig(net=base_net(), flows=tuple(flows), duration=120.0, warmup=20.0)


def test_criterion_4_loss_dichotomy():
    """137 B packets: zero loss over 500 s; 566 B packets: loss in (1%, 10%)."""
    flows = (telehaptic_flow(), FlowSpec(name="bulk", kind="tcp"))
    base = ScenarioConfig(net=base_net(), flows=flows, duration=500.0, warmup=50.0)
    r_grid = (4.528, 5.0, 5.5)
    m, *inflated_m = flow_metrics([base] + [inflated_scenario(r * MBPS) for r in r_grid], "media")
    base_ok = m.dropped == 0
    base_detail = (
        f"base 500 s: {m.dropped}/{m.delivered + m.dropped} telehaptic drops "
        f"({m.loss_fraction * 100:.3f}%)"
    )

    inflated = {r_mbps: mi.loss_fraction for r_mbps, mi in zip(r_grid, inflated_m)}
    inflated_ok = (
        all(0.0 < frac < 0.10 for frac in inflated.values())
        and any(frac > 0.01 for frac in inflated.values())
    )
    inflated_detail = "inflated: " + ", ".join(
        f"R={r}: {frac * 100:.2f}%" for r, frac in inflated.items()
    )
    record_acceptance(4, base_ok and inflated_ok, f"{base_detail}; {inflated_detail}")
    assert inflated_ok, inflated_detail
    assert base_ok, (
        base_detail
        + " -- a byte-granular droptail necessarily clips a few 137 B packets "
        "while the queue tops out ahead of each overflow; the measured rate is "
        "two orders of magnitude below the 1% audio/video limit"
    )


def test_criterion_5_av_delay_formulas():
    mux = AvMuxSpec(s_a=160.0, s_m=58.0, f_v=25.0)
    d_aud, d_vid = av_delay_bounds(mux, 1 * MS, 30 * MS)
    ok = abs(d_aud - 32.76 * MS) <= 0.02 * MS and abs(d_vid - 70 * MS) <= 1e-9
    record_acceptance(5, ok, f"d_aud={d_aud / MS:.3f} ms, d_vid={d_vid / MS:.3f} ms")
    assert d_aud == pytest.approx(32.76 * MS, abs=0.02 * MS)
    assert d_vid == pytest.approx(70 * MS, abs=1e-9)


def test_criterion_6_provisioning_dichotomy():
    """Mean-rate provisioning starves the bursty stream; peak-rate does not.

    The buffer is deepened to 42 kB so queueing delay can exceed the 30 ms
    haptic limit at all (a 14 kB droptail caps delay at 26.7 ms)."""
    net = NetworkParams(mu=6 * MBPS, tau=8 * MS, buf=42000.0, s_tcp=578.0)
    signal = SignalSpec(kind="contact-burst", amplitude=1.0, seed=7)
    samples = synth_haptic_trace(signal, 60.0)
    flags = deadband_filter(samples, 0.1)
    stream = vh_mux(flags, video_rate=400e3 / 8, header=87.0)
    sizes = np.rint(stream.header_bytes + stream.video_bytes)
    series = instantaneous_rate(np.column_stack((stream.tick * HAPTIC_TICK, sizes)), window=0.1)

    cfgs = []
    for residual in (series.mean, series.peak):
        flows = (
            FlowSpec(name="vh", kind="adaptive", deadband=0.1, video_rate=400e3 / 8,
                     header=87.0, signal=signal),
            FlowSpec(name="cross", kind="cbr", rate=net.mu - residual, packet=150.0),
        )
        cfgs.append(ScenarioConfig(net=net, flows=flows, duration=60.0, warmup=5.0, seed=7))
    results = {
        label: (m.media_loss.get("video", 0.0), m.max_delay, m.dropped)
        for label, m in zip(("mean", "peak"), flow_metrics(cfgs, "vh"))
    }

    video_loss_mean, max_delay_mean, _ = results["mean"]
    video_loss_peak, _, dropped_peak = results["peak"]
    ok = (
        video_loss_mean > 0.01
        and max_delay_mean > 30 * MS
        and dropped_peak == 0
        and video_loss_peak == 0.0
    )
    record_acceptance(
        6,
        ok,
        f"mean-provisioned: video loss {video_loss_mean * 100:.2f}%, max delay "
        f"{max_delay_mean / MS:.1f} ms; peak-provisioned: {dropped_peak} drops "
        f"(peak/mean = {series.peak / series.mean:.2f})",
    )
    assert video_loss_mean > 0.01
    assert max_delay_mean > 30 * MS
    assert dropped_peak == 0 and video_loss_peak == 0.0


def test_criterion_7_burst_count_oracle():
    """Exact agreement with the ACK-timeline oracle on a 200+ point grid."""
    checked = 0
    mismatches = []
    for n in (1, 2, 3):
        for mu_m in (6.0, 9.0, 12.0, 18.0, 25.0):
            mu = mu_m * MBPS
            for load in (0.0, 0.18, 0.33, 0.5, 0.8):
                for t_ms in (0.3, 1.0, 2.7, 5.0):
                    net = NetworkParams(mu=mu, tau=5 * MS, buf=30000.0, s_tcp=578.0, n_ack=n)
                    got = m_tcp_max(net, CbrAggregate(load * mu), t_ms * MS)
                    want = mtcp_by_timeline(n, 578.0, mu, load * mu, t_ms * MS)
                    if got != want:
                        mismatches.append((n, mu_m, load, t_ms, got, want))
                    checked += 1
    ok = checked >= 200 and not mismatches
    record_acceptance(7, ok, f"{checked} grid points, {len(mismatches)} mismatches")
    assert checked >= 200
    assert not mismatches, mismatches[:5]


def test_criterion_8_invariant_suites():
    """Randomized invariants: >=1000 analytic cases plus simulator checks,
    all inside a one-minute budget."""
    t0 = time.time()
    rng = random.Random(2024)
    cases = 0

    from test_model_properties import random_net_cbr

    for _ in range(1100):
        net, cbr_r = random_net_cbr(rng)
        idle = CbrAggregate(0.0)
        assert w_min(net, idle) == pytest.approx((net.buf + net.bdp) / (2 * net.s_tcp))
        qm0, c10 = solve_q_min(net, idle)
        assert qm0 == pytest.approx((net.buf - net.bdp) / 2.0, rel=1e-9)
        assert c10 == 0
        assert q_init(net, cbr_r) == pytest.approx(
            net.buf - w_min(net, cbr_r) * net.s_tcp, rel=1e-6
        )
        last = math.ceil(slots_per_cycle(net, cbr_r))
        i = rng.randint(2, last)
        qs = [queue_at_slot(net, cbr_r, j) for j in (i - 1, i)]
        qm, c1 = solve_q_min(net, cbr_r)
        assert qm <= min(qs) + 1e-6
        if i - 1 > c1 + 1:  # both points past the minimum: non-decreasing
            assert qs[1] >= qs[0] - 1e-6
        if i <= c1 + 1:     # both points before it: non-increasing
            assert qs[1] <= qs[0] + 1e-6
        cases += 1

    from test_simulator import queue_extremes, random_scenario

    sim_cases = 0
    for _ in range(6):
        cfg = random_scenario(rng)
        trace = run(build_simulator(cfg), record=True)
        assert queue_extremes(trace, cfg.effective_warmup)[1] <= cfg.net.buf
        for name, m in trace.metrics.items():
            assert m.created_total == (
                m.delivered_total + m.dropped_total + trace.in_flight_end[name]
            )
        try:
            stats = extract_cycles(trace)
            assert max(c.q_max for c in stats.cycles) <= cfg.net.buf
        except InsufficientCycles:
            pass
        sim_cases += 1

    cfg = replace(sweep_scenario(), duration=5.0, warmup=1.0)
    a = run(build_simulator(cfg), record=True).to_csv()
    b = run(build_simulator(cfg), record=True).to_csv()
    assert a == b

    elapsed = time.time() - t0
    ok = cases >= 1000 and elapsed < 60.0
    record_acceptance(
        8, ok, f"{cases} analytic + {sim_cases} simulator cases + determinism in {elapsed:.1f} s"
    )
    assert cases >= 1000
    assert elapsed < 60.0
