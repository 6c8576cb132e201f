"""Closed-form model checks against hand-computed and oracle-derived values."""

import math
from dataclasses import replace

import pytest

from oracles import mtcp_by_timeline, queue_by_slot_recursion
from teleqos import (
    AvMuxSpec,
    CbrAggregate,
    HapticFlowSpec,
    InvalidParams,
    NetworkParams,
    QosSpec,
    av_delay_bounds,
    cbr_jitter_max,
    delay_bounds,
    haptic_jitter_max,
    m_tcp_max,
    q_init,
    qos_check,
    queue_at_slot,
    slots_per_cycle,
    solve_cycle,
    solve_q_min,
    validity_check,
    w_min,
)
from teleqos.model import SlotIndexError

MBPS = 1e6 / 8.0
MS = 1e-3


def test_w_min(base_net):
    # alpha=0 reduces to the single-TCP form (B+2*mu*tau)/(2*S)
    assert w_min(base_net, CbrAggregate(0.0)) == pytest.approx(26000 / 1156)
    assert w_min(base_net, CbrAggregate(1.096 * MBPS)) == pytest.approx(18.38, abs=0.005)
    assert w_min(base_net, CbrAggregate(3 * MBPS)) == pytest.approx(11.245, abs=0.005)


def test_w_min_rejects_overload(base_net):
    with pytest.raises(InvalidParams):
        w_min(base_net, CbrAggregate(6 * MBPS))
    with pytest.raises(InvalidParams):
        NetworkParams(mu=6 * MBPS, tau=8e-3, buf=-1.0, s_tcp=578.0)


def test_q_init(base_net):
    assert q_init(base_net, CbrAggregate(0.0)) == pytest.approx(1000.0)
    assert q_init(base_net, CbrAggregate(1.096 * MBPS)) == pytest.approx(3374.7, abs=0.05)
    assert q_init(base_net, CbrAggregate(3 * MBPS)) == pytest.approx(7500.0)


def test_q_init_identity(base_net):
    # the closed form equals buf - w_min*s_tcp
    for rate in (0.0, 1.096 * MBPS, 3 * MBPS, 5.5 * MBPS):
        cbr = CbrAggregate(rate)
        alt = base_net.buf - w_min(base_net, cbr) * base_net.s_tcp
        assert q_init(base_net, cbr) == pytest.approx(alt, abs=1e-6)


def test_slots_per_cycle(base_net):
    assert slots_per_cycle(base_net, CbrAggregate(0.0)) == pytest.approx(23.49, abs=0.005)
    assert slots_per_cycle(base_net, CbrAggregate(1.096 * MBPS)) == pytest.approx(19.38, abs=0.005)
    assert slots_per_cycle(base_net, CbrAggregate(3 * MBPS)) == pytest.approx(12.25, abs=0.005)


def test_queue_at_slot(base_net):
    cbr = CbrAggregate(3 * MBPS)
    assert queue_at_slot(base_net, cbr, 1) == pytest.approx(q_init(base_net, cbr))
    # hand substitution: Q(2) = 7500*0.5 + 1000*0.5 (empty sum)
    assert queue_at_slot(base_net, cbr, 2) == pytest.approx(4250.0)
    # end of cycle climbs back toward overflow; frozen value from the slot
    # recursion oracle (12562.15 B = 0.897*B at the start of the last slot)
    last = math.ceil(slots_per_cycle(base_net, cbr))
    assert last == 13
    assert queue_at_slot(base_net, cbr, last) == pytest.approx(12562.15, abs=0.01)
    assert queue_at_slot(base_net, cbr, last) == max(
        queue_at_slot(base_net, cbr, i) for i in range(1, last + 1)
    )


def test_queue_at_slot_matches_recursion_oracle(base_net):
    for rate in (0.0, 1.096 * MBPS, 2 * MBPS, 3 * MBPS, 5 * MBPS, 5.5 * MBPS):
        cbr = CbrAggregate(rate)
        wm = w_min(base_net, cbr)
        qi = q_init(base_net, cbr)
        for i in range(1, math.ceil(slots_per_cycle(base_net, cbr)) + 1):
            expect = queue_by_slot_recursion(
                base_net.mu, base_net.tau, base_net.buf, base_net.s_tcp, rate, wm, qi, i
            )
            assert queue_at_slot(base_net, cbr, i) == pytest.approx(expect, rel=1e-9, abs=1e-6)


def test_queue_at_slot_index_range(base_net):
    cbr = CbrAggregate(3 * MBPS)
    with pytest.raises(SlotIndexError):
        queue_at_slot(base_net, cbr, 0)
    with pytest.raises(SlotIndexError):
        queue_at_slot(base_net, cbr, 14)


def test_solve_q_min(base_net):
    # single-TCP reduction: minimum right at the cycle start, no drain slots
    qm, c1 = solve_q_min(base_net, CbrAggregate(0.0))
    assert qm == pytest.approx(1000.0)
    assert c1 == 0

    # minimum such that tau + q_min/mu lands at 9.91 ms
    qm, c1 = solve_q_min(base_net, CbrAggregate(1.096 * MBPS))
    assert base_net.tau + qm / base_net.mu == pytest.approx(9.91e-3, abs=0.01e-3)
    assert c1 == 1


def test_solve_cycle_invariants(base_net):
    for rate in (0.0, 1.096 * MBPS, 3 * MBPS, 5.5 * MBPS):
        sol = solve_cycle(base_net, CbrAggregate(rate))
        assert sol.q_max == base_net.buf
        assert sol.q_min <= sol.q_init <= sol.q_max + 1e-9
        assert sol.c == pytest.approx(sol.w_min + 1.0)
        assert 0 <= sol.c1 <= sol.c


def test_delay_bounds(base_net):
    # d_max is independent of the CBR rate
    for rate in (0.0, 1.096 * MBPS, 3 * MBPS, 5.5 * MBPS):
        _, dmax = delay_bounds(base_net, CbrAggregate(rate))
        assert dmax == pytest.approx(26.67e-3, abs=0.02e-3)
    dmin, _ = delay_bounds(base_net, CbrAggregate(3 * MBPS))
    assert dmin == pytest.approx(12.27e-3, abs=0.05e-3)

    wide = NetworkParams(mu=6 * MBPS, tau=15e-3, buf=45000.0, s_tcp=578.0)
    _, dmax = delay_bounds(wide, CbrAggregate(3 * MBPS))
    assert dmax == pytest.approx(75e-3, abs=0.05e-3)


def test_m_tcp_max(base_net):
    assert m_tcp_max(base_net, CbrAggregate(3 * MBPS), 1 * MS) == 3
    n2 = NetworkParams(mu=6 * MBPS, tau=8e-3, buf=14000.0, s_tcp=578.0, n_ack=2)
    # indicator is 0: 2*578/750000 = 1.54 ms exceeds the 1 ms window
    assert m_tcp_max(n2, CbrAggregate(3 * MBPS), 1 * MS) == 3
    fast = NetworkParams(mu=9 * MBPS, tau=8e-3, buf=14000.0, s_tcp=578.0, n_ack=1)
    assert m_tcp_max(fast, CbrAggregate(8 * MBPS), 1 * MS) == 3


def test_m_tcp_max_spec_examples_match_oracle(base_net):
    cases = [
        (1, 6 * MBPS, 3 * MBPS, 1 * MS),
        (2, 6 * MBPS, 3 * MBPS, 1 * MS),
        (1, 9 * MBPS, 8 * MBPS, 1 * MS),
    ]
    for n, mu, rate, interval in cases:
        net = NetworkParams(mu=mu, tau=8e-3, buf=14000.0, s_tcp=578.0, n_ack=n)
        assert m_tcp_max(net, CbrAggregate(rate), interval) == mtcp_by_timeline(
            n, 578.0, mu, rate, interval
        )


def test_cbr_jitter_max(base_net):
    jit = cbr_jitter_max(base_net, CbrAggregate(3 * MBPS), 1 * MS)
    assert jit == pytest.approx(1.812e-3, abs=0.005e-3)

    # no CBR backlog: with the indicator at 0 the bound is (n+1)S/mu - T
    n2 = NetworkParams(mu=6 * MBPS, tau=8e-3, buf=14000.0, s_tcp=578.0, n_ack=2)
    t = 1 * MS
    assert cbr_jitter_max(n2, CbrAggregate(0.0), t) == pytest.approx(3 * 578 / n2.mu - t)


def _table3_flow(mu: float) -> tuple[NetworkParams, HapticFlowSpec]:
    net = NetworkParams(mu=mu, tau=8e-3, buf=14000.0, s_tcp=578.0, n_ack=2)
    h = HapticFlowSpec(
        rate_h=1.096 * MBPS, gap_h=1e-3, pkt_h=137.0, rate_cross=6.9 * MBPS, pkt_cross=150.0
    )
    return net, h


def test_haptic_jitter_max():
    net, h = _table3_flow(9 * MBPS)
    assert haptic_jitter_max(net, h) == pytest.approx(1.46e-3, abs=0.05e-3)
    net, h = _table3_flow(21 * MBPS)
    assert haptic_jitter_max(net, h) == pytest.approx(0.49e-3, abs=0.05e-3)


def test_haptic_jitter_reduces_to_cbr_jitter(base_net):
    h = HapticFlowSpec(rate_h=1.096 * MBPS, gap_h=1e-3, pkt_h=137.0, rate_cross=0.0, pkt_cross=150.0)
    assert haptic_jitter_max(base_net, h) == pytest.approx(
        cbr_jitter_max(base_net, CbrAggregate(1.096 * MBPS), 1e-3)
    )


def test_haptic_jitter_n_ack_override():
    net = NetworkParams(mu=12 * MBPS, tau=8e-3, buf=14000.0, s_tcp=578.0, n_ack=1)
    h = HapticFlowSpec(rate_h=1.096 * MBPS, gap_h=1e-3, pkt_h=137.0, rate_cross=6.9 * MBPS, pkt_cross=150.0)
    # at 12 Mbps the cumulative-ACK factor changes the achievable burst
    assert haptic_jitter_max(replace(net, n_ack=2), h) > haptic_jitter_max(net, h)


def test_av_delay_bounds():
    mux = AvMuxSpec(s_a=160.0, s_m=58.0, f_v=25.0)
    d_aud, d_vid = av_delay_bounds(mux, 1e-3, 30e-3)
    assert d_aud == pytest.approx(32.76e-3, abs=0.02e-3)
    assert d_vid == pytest.approx(70e-3)

    even = AvMuxSpec(s_a=58.0, s_m=58.0, f_v=25.0)
    assert av_delay_bounds(even, 1e-3, 30e-3)[0] == pytest.approx(31e-3)
    fast = AvMuxSpec(s_a=160.0, s_m=58.0, f_v=50.0)
    assert av_delay_bounds(fast, 1e-3, 30e-3)[1] == pytest.approx(50e-3)
    with pytest.raises(InvalidParams):
        AvMuxSpec(s_a=160.0, s_m=0.0, f_v=25.0)


def test_validity_check(base_net):
    flags = validity_check(base_net, CbrAggregate(3 * MBPS))
    assert flags.stability and flags.full_utilization and flags.single_loss

    flags = validity_check(base_net, CbrAggregate(5.5 * MBPS))
    assert flags.stability and flags.full_utilization and not flags.single_loss

    shallow = NetworkParams(mu=6 * MBPS, tau=8e-3, buf=10000.0, s_tcp=578.0)
    assert not validity_check(shallow, CbrAggregate(1 * MBPS)).full_utilization


def test_qos_check_base_pass(base_net):
    h = HapticFlowSpec(rate_h=1.096 * MBPS, gap_h=1e-3, pkt_h=137.0, rate_cross=1.904 * MBPS, pkt_cross=150.0)
    mux = AvMuxSpec(s_a=160.0, s_m=58.0, f_v=25.0)
    report = qos_check(base_net, h, QosSpec(), mux)
    assert report.condition("haptic_delay").passed  # 26.67 ms < 30 ms
    assert report.condition("packet_size").passed   # 137 < 578
    assert report.condition("audio_delay").passed
    assert report.condition("video_delay").passed
    assert report.overall


def test_qos_check_delay_violation():
    net = NetworkParams(mu=6 * MBPS, tau=15e-3, buf=45000.0, s_tcp=578.0)
    h = HapticFlowSpec(rate_h=1.096 * MBPS, gap_h=1e-3, pkt_h=137.0, rate_cross=1.904 * MBPS, pkt_cross=150.0)
    report = qos_check(net, h)
    assert report.condition("haptic_delay").passed is False
    assert not report.overall


def test_qos_check_packet_size_flag_is_soft(base_net):
    h = HapticFlowSpec(rate_h=4.528 * MBPS, gap_h=1e-3, pkt_h=566.0, rate_cross=0.5 * MBPS, pkt_cross=150.0)
    report = qos_check(base_net, h)
    cond = report.condition("packet_size")
    assert cond.passed is False and cond.hard is False
    hard_ok = all(c.passed for c in report.conditions if c.hard and c.passed is not None)
    assert report.overall == hard_ok
