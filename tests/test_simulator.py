"""Packet-level engine checks: unit behavior of the queue and the TCP state
machine, plus randomized whole-run invariants (conservation, work
conservation, capacity, determinism, steady-state structure)."""

import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    assert_ledger_matches_rows,
    queue_extremes,
    random_scenario,
    recorded,
    trace_rows,
)

import teleqos
from teleqos import (
    CbrAggregate,
    FlowSpec,
    NetworkParams,
    ScenarioConfig,
    ScenarioSemanticError,
    SignalSpec,
    baseline_text,
    build_simulator,
    delay_bounds,
    extract_cycles,
    parse_scenario,
    run,
    simulator,
)
from teleqos.simulator import (
    CA,
    FR,
    DropTailQueue,
    InsufficientCycles,
    SimulationError,
    TcpSource,
    UnknownFlow,
    _adaptive_schedule,
)

MBPS = 1e6 / 8.0


# --------------------------------------------------------------------------
# droptail admission arithmetic


def _offer(queue: DropTailQueue, size: int, t: int = 0) -> bool:
    return queue.offer((0, 1, 1, size, None), queue.occupancy(t))


def _fill(queue: DropTailQueue, nbytes: int):
    assert _offer(queue, nbytes)


def test_queue_offer_rejects_overflow():
    q = DropTailQueue(14000)
    _fill(q, 13900)
    assert not _offer(q, 137)  # 14037 > 14000


def test_queue_offer_accepts_exact_fit():
    q = DropTailQueue(14000)
    _fill(q, 13860)
    assert _offer(q, 137)  # 13997 <= 14000


def test_queue_offer_small_packet_outlives_large():
    q = DropTailQueue(14000)
    _fill(q, 13500)
    assert not _offer(q, 578)  # the TCP packet overflows
    assert _offer(q, 137)      # the telehaptic one still fits


def test_queue_continuous_drain():
    # a packet in service frees capacity byte by byte
    q = DropTailQueue(1000, mu=1e6)  # 1e6 B/s -> 1 B/us
    _fill(q, 800)
    q.start_next(0)
    assert q.occupancy(0) == 800
    assert q.occupancy(400_000) == 400
    assert not _offer(q, 300)         # 800 + 300 > 1000
    assert _offer(q, 300, 100_000)    # 700 remaining + 300 == capacity


# --------------------------------------------------------------------------
# TCP state machine


def make_ca_source(n_ack: int = 1, cwnd: float = 10.0) -> TcpSource:
    src = TcpSource(578, n_ack)
    src.phase = CA
    src.cwnd = cwnd
    src.ssthresh = cwnd
    src.next_seq = int(cwnd) + 1   # a full window outstanding
    src.high_ack = 0
    return src


def test_ca_cumulative_ack_compensates():
    src = make_ca_source(n_ack=2)
    assert src.on_ack(2, 0) == [11, 12]


def test_ca_window_increment_emits_probing_packet():
    src = make_ca_source(n_ack=2)
    src.ack_credits = 9.0  # one more ACK-equivalent pair crosses the window
    sends = src.on_ack(2, 0)
    assert len(sends) == 3  # n compensating + 1 probing, back to back
    assert src.cwnd == 11.0


def test_three_dup_acks_trigger_single_retransmission():
    src = make_ca_source(n_ack=1)
    src.on_ack(4, 0)
    assert src.on_ack(4, 0) == []
    assert src.on_ack(4, 0) == []
    sends = src.on_ack(4, 0)  # third duplicate
    assert sends == [5]
    assert src.phase == FR
    assert src.ssthresh == pytest.approx(5.0)


def test_full_ack_halves_window():
    src = make_ca_source(n_ack=1, cwnd=10.0)
    for _ in range(4):
        src.on_ack(4, 0)
    assert src.phase == FR
    src.on_ack(src.recover, 0)  # ACK of the recover point
    assert src.phase == CA
    assert src.cwnd == pytest.approx(5.0)


def test_partial_ack_retransmits_next_hole():
    src = make_ca_source(n_ack=1, cwnd=10.0)
    for _ in range(4):
        src.on_ack(4, 0)
    sends = src.on_ack(6, 0)  # partial: advances but below recover
    assert src.phase == FR
    assert sends[0] == 7


def test_malformed_ack_ignored():
    src = make_ca_source()
    assert src.on_ack(999, 0) == []


def test_per_ack_burst_is_capped():
    src = make_ca_source(n_ack=2, cwnd=30.0)
    src.next_seq = 11  # deficit of 20 packets
    sends = src.on_ack(5, 0)
    assert len(sends) == src.max_burst == 3


# --------------------------------------------------------------------------
# whole-run invariants


def test_conservation_capacity_work_conservation():
    rng = random.Random(42)
    for _ in range(12):
        cfg = random_scenario(rng)
        trace, text = recorded(build_simulator(cfg))
        assert queue_extremes(text, cfg.effective_warmup)[1] <= cfg.net.buf
        assert_ledger_matches_rows(trace, text)


def test_conservation_with_packets_on_the_delivery_line():
    # 50 ms of the shipped scenario ends with packets still crossing the
    # tau = 8 ms link: the ledger must count them as inside
    cfg = replace(parse_scenario(baseline_text()), duration=0.05, warmup=0.05)
    trace, text = recorded(build_simulator(cfg))
    on_line = dict.fromkeys(trace.metrics, 0)
    for _t, event, flow, _occ in trace_rows(text):
        on_line[flow] += {"dequeue": 1, "deliver": -1}.get(event, 0)
    assert any(on_line.values())
    assert_ledger_matches_rows(trace, text)


@pytest.mark.parametrize("record", [False, True])
def test_conservation_failure_raises(base_scenario, monkeypatch, record):
    # a queue that admits packets while busy but never holds them breaks
    # the ledger, and the engine must say so instead of returning a trace,
    # whether or not it records
    offer = DropTailQueue.offer

    def leaky_offer(self, pkt, occ):
        return True if self.in_service is not None else offer(self, pkt, occ)

    monkeypatch.setattr(DropTailQueue, "offer", leaky_offer)
    with pytest.raises(SimulationError, match="in flight"):
        run(build_simulator(replace(base_scenario, duration=0.5, warmup=0.0)),
            record=io.StringIO() if record else None)


@pytest.mark.parametrize("record", [False, True])
def test_queue_over_its_capacity_raises(base_scenario, monkeypatch, record):
    # a queue that admits every packet, as if each arrived at an occupancy
    # of -inf bytes, soon holds more than its capacity; the engine checks
    # the occupancy after each change, whether or not it records
    offer = DropTailQueue.offer
    monkeypatch.setattr(DropTailQueue, "offer", lambda self, pkt, occ: offer(self, pkt, -math.inf))
    with pytest.raises(SimulationError, match="^queue occupancy exceeded capacity$"):
        run(build_simulator(replace(base_scenario, duration=0.5, warmup=0.0)),
            record=io.StringIO() if record else None)


@pytest.mark.parametrize("record", [False, True])
def test_idle_link_with_work_waiting_raises(base_scenario, monkeypatch, record):
    # a link that never takes the head packet into service leaves work
    # waiting on an idle link; the engine must stop at the first such event
    monkeypatch.setattr(DropTailQueue, "start_next", lambda self, t: self.packets[0])
    with pytest.raises(SimulationError, match="link idle at t = 0 ns"):
        run(build_simulator(replace(base_scenario, duration=0.5, warmup=0.0)),
            record=io.StringIO() if record else None)


def _events_at(text: str) -> dict[int, list[tuple[str, str]]]:
    by_time: dict[int, list[tuple[str, str]]] = {}
    for t, event, flow, _occ in trace_rows(text):
        by_time.setdefault(t, []).append((event, flow))
    return by_time


def test_equal_instant_arrivals_go_in_flow_order(base_net):
    # two CBR flows with one phase and gap arrive together every 1 ms;
    # the lower flow id ("zeta", declared first) is sent and queued first
    flows = (
        FlowSpec(name="zeta", kind="cbr", rate=100e3, packet=100.0, gap=1e-3),
        FlowSpec(name="alpha", kind="cbr", rate=150e3, packet=150.0, gap=1e-3),
    )
    cfg = ScenarioConfig(net=base_net, flows=flows, duration=0.2, warmup=0.0)
    shared = 0
    for events in _events_at(recorded(build_simulator(cfg))[1]).values():
        queued = [e for e in events if e[0] in ("send", "enqueue")]
        if len(queued) > 2:
            shared += 1
            assert queued == [("send", "zeta"), ("enqueue", "zeta"),
                              ("send", "alpha"), ("enqueue", "alpha")]
    assert shared == 201  # t = 0, 1, ..., 200 ms


def test_link_completion_precedes_arrival_at_the_same_instant():
    # 100 B every 100 us on a 1 B/us link: each packet's service ends at
    # the instant the next one arrives, so the dequeue comes first and the
    # arrival finds the queue empty
    net = NetworkParams(mu=1e6, tau=1e-3, buf=1000.0, s_tcp=578.0, n_ack=1)
    flows = (FlowSpec(name="cbr", kind="cbr", rate=1e6, packet=100.0, gap=1e-4),)
    cfg = ScenarioConfig(net=net, flows=flows, duration=0.1, warmup=0.0)
    _, text = recorded(build_simulator(cfg))
    together = 0
    for events in _events_at(text).values():
        kinds = [e[0] for e in events]
        if "dequeue" in kinds and "send" in kinds:
            together += 1
            assert kinds.index("dequeue") < kinds.index("send") < kinds.index("enqueue")
    assert together == 1000  # t = 0.1, 0.2, ..., 100 ms
    assert queue_extremes(text, 0.0)[1] == 100


@pytest.mark.parametrize("mu, packet", [(6 * MBPS, 0.3), (1e10, 1.0)])
def test_build_rejects_packet_shorter_than_a_clock_tick(base_net, mu, packet):
    # a packet the link serializes in under 1 ns would complete at the
    # instant it started, which the nanosecond clock cannot order
    flows = (FlowSpec(name="tiny", kind="cbr", rate=packet / 1e-3, packet=packet, gap=1e-3),)
    net = NetworkParams(mu=mu, tau=1e-3, buf=14000.0, s_tcp=578.0, n_ack=1)
    cfg = ScenarioConfig(net=net, flows=flows, duration=0.1, warmup=0.0)
    with pytest.raises(ScenarioSemanticError, match="under 1 ns"):
        build_simulator(cfg)


def test_build_rejects_a_gap_that_rounds_to_0_ns(base_net):
    # packets one instant apart would hold the clock still, and without a
    # TCP flow no overload check bounds the rate: the run would never end
    flows = (FlowSpec(name="fast", kind="cbr", rate=1e12, packet=150.0),)
    cfg = ScenarioConfig(net=base_net, flows=flows, duration=0.1, warmup=0.0)
    with pytest.raises(ScenarioSemanticError, match=r"^flow 'fast': gap 1\.5e-10 s rounds to 0 ns"):
        build_simulator(cfg)
    # a 1 ns gap is the shortest the clock can order
    one_ns = (FlowSpec(name="fast", kind="cbr", rate=150e9, packet=150.0),)
    assert build_simulator(replace(cfg, flows=one_ns)).sources[0].gap_ns == 1


def test_adaptive_schedule_sets_the_tick_check_and_the_mean_rate():
    vh = FlowSpec(name="vh", kind="adaptive", deadband=0.1, video_rate=50e3,
                  signal=SignalSpec(kind="contact-burst", seed=3))
    sizes = _adaptive_schedule(vh, 2.0, 1)[1]
    fast = NetworkParams(mu=1e12, tau=1e-3, buf=14000.0, s_tcp=578.0)
    with pytest.raises(ScenarioSemanticError, match=f"^flow 'vh': a {min(sizes)} B packet takes under 1 ns"):
        build_simulator(ScenarioConfig(net=fast, flows=(vh,), duration=2.0, warmup=0.0))
    # a link exactly as fast as the adaptive mean rate leaves TCP nothing
    mean = sum(sizes) / 2.0
    tight = NetworkParams(mu=mean, tau=1e-3, buf=14000.0, s_tcp=578.0)
    flows = (vh, FlowSpec(name="bulk", kind="tcp"))
    with pytest.raises(ScenarioSemanticError, match=rf"aggregate CBR rate {mean:.6g} B/s \(incl\. adaptive mean\)"):
        build_simulator(ScenarioConfig(net=tight, flows=flows, duration=2.0, warmup=0.0))


def test_adaptive_mean_rate_sums_bytes_exactly(base_net):
    # 1e17 B/s of video for 120 s is about 1.2e19 B (the last chunk leaves
    # at 120 s and is cut), which an int64 sum of the packet sizes would
    # wrap around to a negative mean rate that TCP's check lets through
    vh = FlowSpec(name="vh", kind="adaptive", deadband=0.1, video_rate=1e17)
    cfg = ScenarioConfig(net=base_net, flows=(vh, FlowSpec(name="bulk", kind="tcp")),
                         duration=120.0, warmup=0.0)
    with pytest.raises(ScenarioSemanticError,
                       match=r"^flows: aggregate CBR rate 9\.99975e\+16 B/s \(incl\. adaptive mean\) "
                             r">= link capacity 750000 B/s with a TCP source present$"):
        build_simulator(cfg)


def test_a_significant_packet_without_video_bytes_counts_as_haptic(base_net):
    # 1e-321 B/s of video rounds to 0 B per tick, so a significant packet
    # carries its header and no video; its bytes are still haptic
    vh = FlowSpec(name="vh", kind="adaptive", deadband=0.1, video_rate=1e-321,
                  signal=SignalSpec(kind="contact-burst"))
    sim = build_simulator(ScenarioConfig(net=base_net, flows=(vh,), duration=2.0, warmup=0.0))
    first = next(sim.sources[0].arrivals(0))[4]
    assert first == {"haptic": 87.0, "video": 0.0}
    assert "haptic" in run(sim).metrics["vh"].media_bytes


def test_determinism_byte_identical_traces(base_scenario):
    cfg = replace(base_scenario, duration=5.0, warmup=1.0)
    assert recorded(build_simulator(cfg))[1] == recorded(build_simulator(cfg))[1]


def test_trace_csv_shape(base_scenario):
    _, text = recorded(build_simulator(replace(base_scenario, duration=1.0, warmup=0.0)))
    lines = text.splitlines()
    assert lines[0] == "time_ns,event,flow,seq,size_bytes,queue_bytes,cwnd_pkts"
    assert len(lines) > 100
    times = [int(l.split(",")[0]) for l in lines[1:]]
    assert times == sorted(times)


def test_trace_csv_of_an_empty_run_is_the_header(base_scenario):
    _, text = recorded(build_simulator(replace(base_scenario, duration=0.0, warmup=0.0)))
    assert text == "time_ns,event,flow,seq,size_bytes,queue_bytes,cwnd_pkts\n"


class _Discard:
    """A trace sink that keeps nothing it is given; it counts the lines and
    characters."""

    def __init__(self) -> None:
        self.lines = self.chars = 0

    def write(self, block: str) -> None:
        self.lines += block.count("\n")
        self.chars += len(block)


def test_recording_holds_a_few_blocks_whatever_the_run_length(base_scenario, monkeypatch):
    # the engine writes each joined block to its sink and keeps none of
    # them, so recording costs the same few blocks of traced memory on top
    # of the run's own state in a 0.5 s and in a 2 s run, not one object
    # per event nor the text so far; small blocks make several per run, and
    # a slow link with two flows keeps the runs short under tracemalloc
    monkeypatch.setattr(simulator, "REC_BLOCK", 256)
    slow = replace(base_scenario, net=replace(base_scenario.net, mu=1.5 * MBPS),
                   flows=base_scenario.flows[:2], warmup=0.1)
    for duration in (0.5, 2.0):
        sim = build_simulator(replace(slow, duration=duration))
        sink = _Discard()
        peaks = []
        for record in (None, sink):
            tracemalloc.start()
            try:
                run(sim, record=record)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert sink.lines > 4 * simulator.REC_BLOCK  # several full blocks and a partial one
        block = simulator.REC_BLOCK * sink.chars / sink.lines  # a full block's length
        assert peaks[1] - peaks[0] < 6 * block, duration


# A child's ru_maxrss starts from the RSS of the process that spawned it,
# so the test's own interpreter, large after other tests, would hide the
# child's peak: a fresh small interpreter spawns `teleqos simulate` and
# prints its exit code and peak.
_PEAK_OF_SIMULATE = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "teleqos.cli", "simulate", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _simulate_peak_rss(argv: list[str]) -> int:
    """Peak resident set of a `teleqos simulate` child, in bytes."""
    src = str(Path(teleqos.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_OF_SIMULATE, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    code, peak_kb = map(int, proc.stdout.split())
    assert code in (0, 1), proc.stderr
    return peak_kb * 1024  # ru_maxrss is in kilobytes on Linux


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kB on Linux")
def test_simulate_trace_adds_under_5_mb_to_peak_rss(tmp_path):
    # the engine writes its trace to the file a block at a time while it
    # runs, so --trace costs a few MB whatever the file's size (here about
    # 11 MB), not a copy of the file
    config = tmp_path / "scenario.scn"
    config.write_text(baseline_text())
    trace_path = tmp_path / "events.csv"
    argv = ["--config", str(config), "--duration", "20", "--warmup", "5",
            "--out", str(tmp_path / "report.txt")]
    without = _simulate_peak_rss(argv)
    with_trace = _simulate_peak_rss([*argv, "--trace", str(trace_path)])
    assert trace_path.stat().st_size > 10 << 20
    assert with_trace - without < 5 << 20


def test_queue_never_empties_in_steady_state(base_scenario):
    # full-utilization regime: B > 2*mu*tau and a live TCP source
    _, text = recorded(build_simulator(replace(base_scenario, warmup=15.0)))
    assert queue_extremes(text, 15.0)[0] > 0


def test_steady_state_cycles(base_scenario):
    trace = run(build_simulator(base_scenario))
    stats = extract_cycles(trace)
    assert len(stats.cycles) >= 10
    # the sawtooth is periodic: the minimum window repeats essentially
    # exactly, while the occupancy floor wobbles with the per-cycle loss
    # pattern (packet granularity), so it only gets a broad band
    w_mins = [c.w_min for c in stats.cycles]
    assert max(w_mins) - min(w_mins) <= 1.0
    assert all(abs(c.q_min - stats.q_min_mean) <= 0.5 * stats.q_min_mean for c in stats.cycles)
    # every cycle tops out within one TCP packet of the capacity
    for cyc in stats.cycles:
        assert cyc.q_max >= base_scenario.net.buf - base_scenario.net.s_tcp
    # observed delay extremes near the analytic bounds: the per-cycle mean
    # minimum sits within the model band, and the overall maximum tracks
    # the hard bound tau + B/mu from below
    agg = CbrAggregate(3 * MBPS)
    dmin_a, dmax_a = delay_bounds(base_scenario.net, agg)
    assert stats.observed_d_min("media") == pytest.approx(dmin_a, rel=0.15)
    with pytest.raises(UnknownFlow):
        stats.observed_d_min("nope")
    assert stats.observed_d_max("media") == pytest.approx(dmax_a, rel=0.05)
    assert trace.metrics["media"].max_delay == pytest.approx(dmax_a, rel=0.01)
    assert trace.metrics["media"].max_delay <= dmax_a + 1e-9


def test_collect_metrics_unknown_flow(base_scenario):
    # a name that is not a flow of the scenario raises UnknownFlow from the
    # per-cycle lookups; a real flow has metrics and cycle extremes
    trace = run(build_simulator(replace(base_scenario, duration=3.0, warmup=1.0)))
    stats = extract_cycles(trace)
    with pytest.raises(UnknownFlow):
        stats.observed_d_min("nope")
    with pytest.raises(UnknownFlow):
        stats.observed_d_max("nope")
    assert trace.metrics["media"].created > 0
    assert stats.observed_d_min("media") <= stats.observed_d_max("media")


def test_same_simulator_runs_twice_identically(base_net):
    # every run pulls fresh arrival streams from the same immutable sources
    flows = (
        FlowSpec(name="vh", kind="adaptive", deadband=0.1, video_rate=50000.0, phase=2e-4),
        FlowSpec(name="bulk", kind="tcp"),
        FlowSpec(name="cross", kind="cbr", rate=1 * MBPS, packet=150.0),
    )
    cfg = ScenarioConfig(net=base_net, flows=flows, duration=3.0, warmup=1.0)
    sim = build_simulator(cfg)
    first = recorded(sim)[1]
    assert recorded(sim)[1] == first


def test_frozen_simulator_runs_the_scenario_duration(base_scenario):
    # the 1 ms media stream starts at 0, so a 5 s run ends with its 5001st
    # packet, sent at t = 5 s exactly
    sim = build_simulator(replace(base_scenario, duration=5.0, warmup=0.0))
    assert run(sim).metrics["media"].created_total == 5001
    with pytest.raises(AttributeError):
        sim.sources = ()


def test_zero_duration_gives_empty_trace(base_scenario):
    trace = run(build_simulator(replace(base_scenario, duration=0.0, warmup=0.0)))
    assert all(m.created_total == 0 for m in trace.metrics.values())


def test_pure_cbr_trace_has_no_cycles(base_net):
    flows = (FlowSpec(name="media", kind="telehaptic", rate=1.096 * MBPS, packet=137.0, gap=1e-3),)
    cfg = ScenarioConfig(net=base_net, flows=flows, duration=3.0, warmup=0.0)
    trace = run(build_simulator(cfg))
    with pytest.raises(InsufficientCycles):
        extract_cycles(trace)


def test_too_few_cycles_reports_the_closed_cycles(base_scenario):
    # two loss events past the warmup close one cycle, and the message says so
    trace = run(build_simulator(replace(base_scenario, duration=5.0, warmup=1.0)))
    assert len(trace.cycles) >= 2
    with pytest.raises(InsufficientCycles, match="need >= 2 complete loss cycles past warmup, got 1"):
        extract_cycles(replace(trace, cycles=trace.cycles[:1]))


def test_single_packet_flow_has_zero_jitter(base_net):
    flows = (
        FlowSpec(name="lonely", kind="cbr", rate=10.0, packet=100.0, gap=10.0),
        FlowSpec(name="media", kind="telehaptic", rate=1.096 * MBPS, packet=137.0, gap=1e-3),
    )
    cfg = ScenarioConfig(net=base_net, flows=flows, duration=3.0, warmup=0.0)
    trace = run(build_simulator(cfg))
    m = trace.metrics["lonely"]
    assert m.delivered == 1
    assert m.max_positive_jitter == 0.0


def test_jitter_bound_realized_at_heavy_load(base_net):
    # even past the single-loss regime the measured worst positive jitter
    # of the telehaptic stream tracks the analytic bound closely
    from teleqos import haptic_jitter_max
    from teleqos.validation import haptic_spec_of

    flows = (
        FlowSpec(name="media", kind="telehaptic", rate=1.096 * MBPS, packet=137.0, gap=1e-3),
        FlowSpec(name="bulk", kind="tcp"),
        FlowSpec(name="cross", kind="cbr", rate=(5.5 - 1.096) * MBPS, packet=150.0),
    )
    cfg = ScenarioConfig(net=base_net, flows=flows, duration=20.0, warmup=5.0)
    trace = run(build_simulator(cfg))
    jit_a = haptic_jitter_max(base_net, haptic_spec_of(cfg))
    assert trace.metrics["media"].max_positive_jitter == pytest.approx(jit_a, rel=0.05)


def test_adaptive_schedule_follows_scenario_seed(base_net):
    # a signal_seed of 0 defers to the scenario seed
    def build(seed):
        flows = (
            FlowSpec(name="vh", kind="adaptive", deadband=0.1, video_rate=50000.0),
            FlowSpec(name="cross", kind="cbr", rate=1 * MBPS, packet=150.0),
        )
        cfg = ScenarioConfig(net=base_net, flows=flows, duration=5.0, warmup=0.0, seed=seed)
        sim = build_simulator(cfg)
        return next(s.schedule for s in sim.sources if s.kind == "adaptive")

    def same(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    assert same(build(1), build(1))
    assert not same(build(1), build(2))


@pytest.mark.parametrize("kind", ["filtered-noise", "contact-burst"])
def test_adaptive_build_peaks_under_one_and_a_half_times_samples_and_schedule(base_net, kind):
    # every sampling stage works a block of ticks at a time and the samples
    # go once the flags exist, so building a 120 s adaptive source holds
    # little besides the samples and the schedule: about 0.7 and 1.1 times
    # their bytes, where whole-signal temporaries made 2.7 and 3.7 times
    vh = FlowSpec(name="vh", kind="adaptive", deadband=0.1, video_rate=50e3,
                  signal=SignalSpec(kind=kind, seed=1))
    cfg = ScenarioConfig(net=base_net, flows=(vh,), duration=120.0, warmup=0.0)
    tracemalloc.start()
    try:
        sim = build_simulator(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    samples = 120_000 * 3 * 8  # 120 s of (x, y, z) float samples at 1 kHz
    schedule = sum(column.nbytes for column in sim.sources[0].schedule[:4])
    assert peak < 1.5 * (samples + schedule)


def test_build_rejects_overload_with_tcp(base_net):
    with pytest.raises(Exception, match="capacity"):
        ScenarioConfig(
            net=base_net,
            flows=(
                FlowSpec(name="media", kind="telehaptic", rate=6.5 * MBPS, packet=137.0,
                         gap=137.0 / (6.5 * MBPS)),
                FlowSpec(name="bulk", kind="tcp"),
            ),
            duration=1.0,
            warmup=0.0,
        )


@pytest.mark.parametrize("n_ack", [3, 4])
def test_build_rejects_n_ack_above_two_with_tcp(base_scenario, n_ack):
    # without a delayed-ACK timer, n >= 3 leaves the first ACK to the RTO
    # and stalls TCP; a run without TCP has no receiver to stall
    cfg = replace(base_scenario, net=replace(base_scenario.net, n_ack=n_ack))
    with pytest.raises(ScenarioSemanticError, match="RFC 5681"):
        build_simulator(cfg)
    cbr_only = replace(cfg, flows=tuple(f for f in cfg.flows if f.kind != "tcp"))
    assert build_simulator(cbr_only).sources


def test_fractional_buffer_keeps_occupancy_and_delay_bounds():
    # B is not a whole number of bytes; the queue holds floor(B), so both
    # occupancy <= B and delay <= tau + B/mu hold with no slack
    mu = 5.0485 * MBPS
    net = NetworkParams(mu=mu, tau=3.158e-3, buf=9057.514, s_tcp=578.0, n_ack=2)
    media = 137.0 / 1e-3
    flows = (
        FlowSpec(name="media", kind="telehaptic", rate=media, packet=137.0, gap=1e-3),
        FlowSpec(name="bulk", kind="tcp"),
        FlowSpec(name="cross", kind="cbr", rate=0.448 * mu - media, packet=150.0),
    )
    cfg = ScenarioConfig(net=net, flows=flows, duration=40.0, warmup=15.0, seed=3)
    trace, text = recorded(build_simulator(cfg))
    assert queue_extremes(text, cfg.effective_warmup)[1] <= net.buf
    for m in trace.metrics.values():
        assert m.max_delay <= net.tau + net.buf / net.mu


def test_delays_below_hard_bound(base_scenario):
    # every delivered packet's delay is at most tau + B/mu
    trace = run(build_simulator(replace(base_scenario, duration=10.0, warmup=2.0)))
    bound = base_scenario.net.tau + base_scenario.net.buf / base_scenario.net.mu
    for m in trace.metrics.values():
        if m.max_delay is not None:
            assert m.max_delay <= bound + 1e-9
