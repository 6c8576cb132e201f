"""Randomized invariant suites for the closed-form model.

The exemplar style here is seeded random sampling, not property-testing
frameworks; every suite draws >= 1000 parameter tuples from the model's
validity region (B > 2*mu*tau via construction, alpha < 1).
"""

import math
import random
import signal

import pytest

from oracles import mtcp_by_timeline, q_min_by_full_scan, queue_by_slot_recursion
from teleqos import (
    CbrAggregate,
    HapticFlowSpec,
    NetworkParams,
    delay_bounds,
    haptic_jitter_max,
    m_tcp_max,
    q_init,
    queue_at_slot,
    slots_per_cycle,
    solve_cycle,
    solve_q_min,
    w_min,
)

MBPS = 1e6 / 8.0


def random_net_cbr(rng: random.Random, alpha_max: float = 0.9):
    """A valid (net, cbr) pair with B > 2*mu*tau and a bounded cycle length."""
    s_tcp = rng.uniform(300.0, 1500.0)
    slots = rng.uniform(3.0, 120.0)
    total = 2.0 * s_tcp * (slots - 1.0)  # B + 2*mu*tau
    bdp_share = rng.uniform(0.05, 0.45)
    mu = rng.uniform(1.0, 40.0) * MBPS
    tau = bdp_share * total / (2.0 * mu)
    buf = total - bdp_share * total
    alpha = rng.uniform(0.0, alpha_max)
    net = NetworkParams(mu=mu, tau=tau, buf=buf, s_tcp=s_tcp, n_ack=rng.choice((1, 2, 3)))
    return net, CbrAggregate(alpha * mu)


def test_single_tcp_reduction():
    rng = random.Random(101)
    for _ in range(1200):
        net, _ = random_net_cbr(rng)
        idle = CbrAggregate(0.0)
        assert w_min(net, idle) == pytest.approx((net.buf + net.bdp) / (2 * net.s_tcp))
        qm, c1 = solve_q_min(net, idle)
        assert qm == pytest.approx((net.buf - net.bdp) / 2.0, rel=1e-9)
        assert c1 == 0


def test_q_init_dual_formula_identity():
    rng = random.Random(202)
    for _ in range(1200):
        net, cbr = random_net_cbr(rng)
        direct = q_init(net, cbr)
        via_window = net.buf - w_min(net, cbr) * net.s_tcp
        assert direct == pytest.approx(via_window, rel=1e-6)


def test_queue_unimodality():
    rng = random.Random(303)
    for _ in range(1000):
        net, cbr = random_net_cbr(rng)
        last = math.ceil(slots_per_cycle(net, cbr))
        values = [queue_at_slot(net, cbr, i) for i in range(1, last + 1)]
        qm, c1 = solve_q_min(net, cbr)
        assert qm == pytest.approx(min(values), rel=1e-9, abs=1e-6)
        # non-increasing up to the argmin, non-decreasing after
        k = c1 + 1
        for a, b in zip(values[: k - 1], values[1:k]):
            assert b <= a + 1e-6
        for a, b in zip(values[k - 1 : -1], values[k:]):
            assert b >= a - 1e-6


def test_closed_form_matches_slot_recursion():
    rng = random.Random(404)
    for _ in range(1000):
        net, cbr = random_net_cbr(rng)
        wm = w_min(net, cbr)
        qi = q_init(net, cbr)
        last = math.ceil(slots_per_cycle(net, cbr))
        i = rng.randint(1, last)
        expect = queue_by_slot_recursion(
            net.mu, net.tau, net.buf, net.s_tcp, cbr.rate_total, wm, qi, i
        )
        assert queue_at_slot(net, cbr, i) == pytest.approx(expect, rel=1e-9, abs=1e-6)


def test_q_min_equals_the_full_slot_scan():
    """solve_q_min stops a few slots past the minimum; its (Q_min, c1) stay
    bit for bit those of the scan over every slot, on short and long
    cycles, on both sides of B = 2*mu*tau, at loads up to 0.99, and on the
    acceptance R grid with n_ack 1 and 2."""
    rng = random.Random(808)
    cases = [random_net_cbr(rng) for _ in range(600)]
    for _ in range(600):
        # up to 10^4 slots; a load near 1 puts the minimum late in the cycle
        alpha = rng.choice((0.0, rng.uniform(0.0, 0.99), 1.0 - 10 ** rng.uniform(-5.0, -1.0)))
        s_tcp = rng.uniform(40.0, 1500.0)
        total = 2.0 * s_tcp * 10 ** rng.uniform(0.0, 4.0) / (1.0 - alpha)  # B + 2*mu*tau
        bdp_share = rng.uniform(0.0, 0.95)  # above 0.5 the queue empties
        mu = 10 ** rng.uniform(4.0, 9.0)
        net = NetworkParams(mu=mu, tau=bdp_share * total / (2.0 * mu),
                            buf=(1.0 - bdp_share) * total, s_tcp=s_tcp)
        cases.append((net, CbrAggregate(alpha * mu)))
    for n_ack in (1, 2):
        net = NetworkParams(mu=6 * MBPS, tau=8e-3, buf=14000.0, s_tcp=578.0, n_ack=n_ack)
        cases += [(net, CbrAggregate(r * MBPS)) for r in (1.096, 2, 3, 4, 5, 5.5)]
    for net, cbr in cases:
        assert solve_q_min(net, cbr) == q_min_by_full_scan(net, cbr), (net, cbr)
    assert len(cases) >= 1000


def test_delay_bounds_answer_at_any_buffer():
    # the full scan visits ceil(c) slots, which grow with B: about 4*10^8
    # at B = 10^12 B and 4*10^296 at B = 10^300 B
    def too_slow(signum, frame):
        raise TimeoutError("delay_bounds took over a second")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        for buf in (1e12, 1e300):
            net = NetworkParams(mu=6 * MBPS, tau=8e-3, buf=buf, s_tcp=578.0)
            d_min, d_max = delay_bounds(net, CbrAggregate(3 * MBPS))
            assert net.tau < d_min < d_max == net.tau + buf / net.mu
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_q_max_is_capacity():
    rng = random.Random(505)
    for _ in range(1000):
        net, cbr = random_net_cbr(rng)
        assert solve_cycle(net, cbr).q_max == net.buf


def test_delay_monotonicity():
    rng = random.Random(606)
    for _ in range(300):
        net, _ = random_net_cbr(rng)
        rates = sorted(rng.uniform(0.0, 0.65) * net.mu for _ in range(6))
        dmins, dmaxs = zip(*(delay_bounds(net, CbrAggregate(r)) for r in rates))
        assert all(b >= a - 1e-12 for a, b in zip(dmins, dmins[1:]))
        assert all(d == pytest.approx(net.tau + net.buf / net.mu) for d in dmaxs)


def test_m_tcp_matches_ack_timeline_oracle():
    """Exact agreement with the brute-force burst-timeline count on a grid
    of over 200 (n, mu, R, T) combinations."""
    checked = 0
    for n in (1, 2, 3):
        for mu_m in (6.0, 9.0, 12.0, 18.0, 25.0):
            mu = mu_m * MBPS
            for load in (0.0, 0.18, 0.33, 0.5, 0.8):
                for t_ms in (0.3, 1.0, 2.7, 5.0):
                    net = NetworkParams(mu=mu, tau=5e-3, buf=30000.0, s_tcp=578.0, n_ack=n)
                    rate = load * mu
                    got = m_tcp_max(net, CbrAggregate(rate), t_ms * 1e-3)
                    want = mtcp_by_timeline(n, 578.0, mu, rate, t_ms * 1e-3)
                    assert got == want, (n, mu_m, load, t_ms, got, want)
                    checked += 1
    assert checked >= 200


def test_haptic_jitter_nonnegative_within_boundary_gap():
    """Whenever T_h <= n*S_tcp/mu, the (n+1)-burst plus own traffic always
    exceeds the drain over the gap, so the bound is non-negative."""
    rng = random.Random(707)
    for _ in range(1000):
        net, cbr = random_net_cbr(rng, alpha_max=0.85)
        gap_limit = net.n_ack * net.s_tcp / net.mu
        t_h = rng.uniform(0.1, 1.0) * gap_limit
        rate_h = rng.uniform(0.05, 0.9) * cbr.rate_total if cbr.rate_total > 0 else 0.0
        if rate_h <= 0:
            continue
        h = HapticFlowSpec(
            rate_h=rate_h,
            gap_h=t_h,
            pkt_h=rate_h * t_h,
            rate_cross=cbr.rate_total - rate_h,
            pkt_cross=rng.uniform(80.0, 400.0),
        )
        assert haptic_jitter_max(net, h) >= -1e-12
