"""Independent brute-force oracles kept separate from the code they check."""

from __future__ import annotations

import io
import math
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from teleqos.model import q_init, slots_per_cycle
from teleqos.sampling import CHUNK_TICKS, HAPTIC_TICK, ZERO_REF_EPS
from teleqos.simulator import (
    ACK_SIZE,
    REC_EVENTS,
    RTO_NS,
    CycleRecord,
    DropTailQueue,
    FlowMetrics,
    TcpReceiver,
    TcpSource,
    Trace,
    run,
)

# trace record event codes, indexing REC_EVENTS
REC_SEND, REC_ENQ, REC_DROP, REC_DEQ, REC_DELIV, REC_ACK, REC_WIN = range(7)


def recorded(sim) -> tuple[Trace, str]:
    """One run of sim that records into an io.StringIO: the trace and the
    raw CSV text the engine wrote."""
    sink = io.StringIO()
    trace = run(sim, record=sink)
    return trace, sink.getvalue()


def mtcp_by_timeline(n: int, s_tcp: float, mu: float, rate: float, interval: float) -> int:
    """Maximum TCP packets in any half-open window of length `interval`,
    counted by enumerating burst emission times around one slot boundary.

    Bursts of n packets are spaced n*s_tcp/(mu-rate) apart; at the boundary
    an n-burst is followed n*s_tcp/mu later by an (n+1)-burst (the probing
    packet's cumulative ACK arrives at the back-to-back service spacing).
    """
    burst_gap = n * s_tcp / (mu - rate)
    boundary_gap = n * s_tcp / mu
    k = int(interval / burst_gap) + 3
    bursts = [(-i * burst_gap, n) for i in range(k, 0, -1)]
    bursts.append((0.0, n))
    bursts.append((boundary_gap, n + 1))
    bursts.extend((boundary_gap + i * burst_gap, n) for i in range(1, k + 1))

    best = 0
    for start, _ in bursts:
        total = sum(c for t, c in bursts if start <= t < start + interval)
        if total > best:
            best = total
    return best


def queue_by_slot_recursion(
    mu: float, tau: float, buf: float, s_tcp: float, rate: float, w_min: float, q_init: float, i: int
) -> float:
    """Queue occupancy at the start of slot i via the per-slot balance:

        Q(k+1) = Q(k) + RTT(k)*R + W(k)*S_tcp - mu*RTT(k),
        RTT(k) = 2*tau + Q(k)/mu,  W(k) = w_min + k - 1,  Q(1) = q_init.
    """
    q = q_init
    for k in range(1, i):
        rtt = 2.0 * tau + q / mu
        q = q + rtt * rate + (w_min + k - 1) * s_tcp - mu * rtt
    return q


def q_min_by_full_scan(net, cbr) -> tuple[float, int]:
    """(Q_min, c1) by the incremental scan of every slot start i in
    [1, ceil(c)], with ties (within float noise) to the smaller index:
    model.solve_q_min must return exactly this, without the whole scan."""
    a = cbr.alpha(net)
    qi = q_init(net, cbr)
    mid = (net.buf - net.bdp) / 2.0
    best, best_i = qi, 1
    decay, geom, build = 1.0, 0.0, 0.0
    for i in range(2, math.ceil(slots_per_cycle(net, cbr)) + 1):
        geom += decay
        decay *= a
        build += geom
        q = qi * decay + mid * (1.0 - decay) + net.s_tcp * (build - geom)
        if q < best - 1e-9 * max(1.0, abs(best)):
            best, best_i = q, i
    return best, best_i - 1


# The adaptive-sampling loops as they ran before the scalar kernels in
# teleqos.sampling: one row (or one flag) per iteration, numpy arithmetic
# per row. The kernels must reproduce them bit for bit.


def _left_to_right_sum(values) -> float:
    # the order sum() added floats in before Python 3.12, which switched to
    # compensated summation; the pinned digests were computed in this order
    total = 0
    for v in values:
        total += v
    return total


def filtered_noise_by_rows(amplitude: float, seed: int, duration: float) -> np.ndarray:
    """The filtered-noise trace: a one-pole lowpass updated one (3,) row at a time."""
    n = int(round(duration / HAPTIC_TICK))
    rng = np.random.default_rng(seed)
    out = np.zeros((n, 3))
    innov = 0.02
    noise = rng.standard_normal((n, 3))
    y = np.zeros(3)
    for i in range(n):
        y = (1.0 - innov) * y + innov * noise[i]
        out[i] = y
    scale = np.max(np.abs(out), axis=0)
    scale[scale == 0] = 1.0
    out *= amplitude / scale
    return out


def deadband_by_rows(samples, k: float) -> np.ndarray:
    """Significance flags with per-row generator sums over any number of axes."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = len(pts)
    flags = np.zeros(n, dtype=bool)
    if n == 0:
        return flags
    rows = pts.tolist()
    flags[0] = True
    ref = rows[0]
    ref_sq = _left_to_right_sum(v * v for v in ref)
    k_sq = k * k
    eps_sq = ZERO_REF_EPS * ZERO_REF_EPS
    for i in range(1, n):
        x = rows[i]
        if ref_sq <= eps_sq:
            sig = _left_to_right_sum(v * v for v in x) > eps_sq
        else:
            d_sq = _left_to_right_sum((a - b) * (a - b) for a, b in zip(x, ref))
            sig = d_sq >= k_sq * ref_sq
        if sig:
            flags[i] = True
            ref = x
            ref_sq = _left_to_right_sum(v * v for v in ref)
    return flags


def mux_by_ticks(flags, video_rate: float, header: float) -> list[tuple[float, str, float, float]]:
    """(time, kind, header_bytes, video_bytes) of each multiplexed packet."""
    per_tick = video_rate * HAPTIC_TICK
    chunk_limit = CHUNK_TICKS * per_tick
    packets = []
    pending = 0.0
    for i, sig in enumerate(flags):
        t = i * HAPTIC_TICK
        if sig:
            if pending > 0:
                packets.append((t, "chunk", header, pending))
                pending = 0.0
            packets.append((t, "significant", header, per_tick))
        else:
            pending += per_tick
            if pending >= chunk_limit - 1e-9:
                packets.append((t, "chunk", header, pending))
                pending = 0.0
    if pending > 0:
        packets.append((len(flags) * HAPTIC_TICK, "chunk", header, pending))
    return packets


def rates_by_windows(packets, window: float, ends) -> list[float]:
    """The byte rate of the packets with time in [g - window, g), for each
    window end g. The packets are (time, size) pairs of whole-byte sizes, so
    every window sum is exact in any order."""
    packets = sorted(packets)
    times = [t for t, _ in packets]
    sizes = [size for _, size in packets]
    return [sum(sizes[bisect_left(times, g - window):bisect_left(times, g)]) / window
            for g in ends]


# The event engine as it ran before its loop was folded into run(): every
# pending event waits in one heap keyed (time, event kind, flow, insertion
# counter), and one handler per kind consumes it. Queue admission and the
# TCP state machine are shared with teleqos.simulator (the unit tests cover
# them); the event order, metrics, cycle segmentation and trace lines are
# its own. The engine in teleqos.simulator must agree with it byte for byte.

EV_LINK_DONE, EV_ARRIVE, EV_DELIVER, EV_ACK, EV_RTO = range(5)


@dataclass
class HeapRun:
    """What the single-heap engine measured: the metrics, cycles and end
    census that run() returns in a Trace, under the same names, and the
    trace text that run() writes to its sink."""

    metrics: dict[str, FlowMetrics]
    cycles: list[CycleRecord]
    csv: str
    in_flight_end: dict[str, int]


def _ns(seconds: float) -> int:
    return int(round(seconds * 1e9))


class _HeapEngine:
    def __init__(self, sim):
        cfg, net = sim.config, sim.config.net
        self.duration_ns = _ns(cfg.duration)
        self.warmup_ns = _ns(cfg.effective_warmup)
        self.ns_per_byte = 1e9 / net.mu
        self.tau_ns = _ns(net.tau)
        self.queue = DropTailQueue(int(net.buf), net.mu)
        self.heap: list = []
        self.counter = 0
        self.lines = ["time_ns,event,flow,seq,size_bytes,queue_bytes,cwnd_pkts\n"]

        self.names = [f.name for f in cfg.flows]
        self.metrics = [FlowMetrics(flow=name) for name in self.names]

        self.tcp_flow = next((i for i, s in enumerate(sim.sources) if s.kind == "tcp"), None)
        self.tcp: TcpSource | None = None
        self.rcv: TcpReceiver | None = None
        if self.tcp_flow is not None:
            self.tcp = TcpSource(sim.sources[self.tcp_flow].size, net.n_ack)
            self.rcv = TcpReceiver(net.n_ack)
            self.tcp_breakdown = {"tcp-data": self.tcp.size}
        # the arrival stream of each open-loop flow; None for the TCP flow,
        # whose packets enter through _emit_tcp
        self.arrivals = [
            None if i == self.tcp_flow else s.arrivals(i) for i, s in enumerate(sim.sources)
        ]
        # the delay of each flow's latest post-warmup delivery, for jitter
        self.last_delay: dict[int, float] = {}

        # cycle segmentation at TCP queue-overflow drops; drops closer than
        # one worst-case RTT belong to the same overflow event
        self.merge_gap_ns = _ns(2 * net.tau + net.buf / net.mu)
        self.last_tcp_drop_ns: int | None = None
        self.cycles: list[CycleRecord] = []
        self.cur_cycle: CycleRecord | None = None

    # -- helpers ----------------------------------------------------------

    def _push(self, t: int, kind: int, sub: int, payload) -> None:
        self.counter += 1
        heappush(self.heap, (t, kind, sub, self.counter, payload))

    def _push_arrival(self, flow: int) -> None:
        """Schedule the next packet of an open-loop flow, if it falls in the run."""
        pkt = next(self.arrivals[flow], None)
        if pkt is not None and pkt[0] <= self.duration_ns:
            self._push(pkt[0], EV_ARRIVE, flow, pkt)

    def _record(self, t, code, flow, seq, size, occ=None):
        if occ is None:
            occ = self.queue.occupancy(t)
        cw = f"{self.tcp.cwnd:.3f}" if flow == self.tcp_flow else ""
        self.lines.append(f"{t},{REC_EVENTS[code]},{self.names[flow]},{seq},{size},{occ},{cw}\n")

    def _note_queue(self, t: int) -> int:
        occ = self.queue.occupancy(t)
        cyc = self.cur_cycle
        if cyc is not None:
            cyc.q_min = min(cyc.q_min, occ)
            cyc.q_max = max(cyc.q_max, occ)
        return occ

    def _start_service(self, t: int) -> None:
        pkt = self.queue.start_next(t)
        self._push(t + int(pkt[3] * self.ns_per_byte + 0.5), EV_LINK_DONE, 0, None)

    def _tcp_drop(self, t: int) -> None:
        if self.last_tcp_drop_ns is not None and t - self.last_tcp_drop_ns <= self.merge_gap_ns:
            self.cur_cycle.losses += 1
        else:
            cyc = self.cur_cycle
            if cyc is not None and cyc.start_ns >= self.warmup_ns:
                cyc.end_ns = t
                self.cycles.append(cyc)
            occ = self.queue.occupancy(t)
            self.cur_cycle = CycleRecord(
                start_ns=t, end_ns=t, q_min=occ, q_max=occ, w_min=self.tcp.cwnd, losses=1,
                flow_delay_min={}, flow_delay_max={},
            )
        self.last_tcp_drop_ns = t

    def _emit_tcp(self, t: int, sends: list[int]) -> None:
        tcp = self.tcp
        for seq in sends:
            self._record(t, REC_SEND, self.tcp_flow, seq, tcp.size)
            pkt = (t, self.tcp_flow, seq, tcp.size, self.tcp_breakdown)
            self._push(t, EV_ARRIVE, self.tcp_flow, pkt)

    # -- event handlers ----------------------------------------------------

    def _handle_arrive(self, t: int, pkt) -> None:
        _created, flow, seq, size, breakdown = pkt
        m = self.metrics[flow]
        m.created_total += 1
        pw = t >= self.warmup_ns
        if pw:
            m.created += 1
        if self.arrivals[flow] is not None:
            self._push_arrival(flow)
            self._record(t, REC_SEND, flow, seq, size)

        if self.queue.offer(pkt, self.queue.occupancy(t)):
            occ = self._note_queue(t)
            self._record(t, REC_ENQ, flow, seq, size, occ)
            if self.queue.in_service is None:
                self._start_service(t)
        else:
            m.dropped_total += 1
            if pw:
                m.dropped += 1
                for tag, nbytes in breakdown.items():
                    m.media_bytes[tag] = m.media_bytes.get(tag, 0.0) + nbytes
                    m.media_dropped_bytes[tag] = m.media_dropped_bytes.get(tag, 0.0) + nbytes
            self._record(t, REC_DROP, flow, seq, size)
            if flow == self.tcp_flow:
                self._tcp_drop(t)

    def _handle_link_done(self, t: int) -> None:
        pkt = self.queue.in_service
        self.queue.in_service = None
        occ = self._note_queue(t)
        self._record(t, REC_DEQ, pkt[1], pkt[2], pkt[3], occ)
        self._push(t + self.tau_ns, EV_DELIVER, pkt[1], pkt)
        if self.queue.packets:
            self._start_service(t)

    def _handle_deliver(self, t: int, pkt) -> None:
        created, flow, seq, size, breakdown = pkt
        m = self.metrics[flow]
        m.delivered_total += 1
        self._record(t, REC_DELIV, flow, seq, size)
        if t >= self.warmup_ns:
            m.delivered += 1
            for tag, nbytes in breakdown.items():
                m.media_bytes[tag] = m.media_bytes.get(tag, 0.0) + nbytes
            delay = (t - created) / 1e9
            if m.min_delay is None or delay < m.min_delay:
                m.min_delay = delay
            if m.max_delay is None or delay > m.max_delay:
                m.max_delay = delay
            last = self.last_delay.get(flow)
            if last is not None:
                m.max_positive_jitter = max(m.max_positive_jitter, delay - last)
            self.last_delay[flow] = delay
            cyc = self.cur_cycle
            if cyc is not None:
                name = self.names[flow]
                cyc.flow_delay_min[name] = min(cyc.flow_delay_min.get(name, delay), delay)
                cyc.flow_delay_max[name] = max(cyc.flow_delay_max.get(name, delay), delay)

        if flow == self.tcp_flow:
            ack = self.rcv.on_data(seq)
            if ack is not None:
                self._push(t + self.tau_ns, EV_ACK, flow, ack)

    def _handle_ack(self, t: int, ack_seq: int) -> None:
        tcp = self.tcp
        before = tcp.cwnd
        self._record(t, REC_ACK, self.tcp_flow, ack_seq, ACK_SIZE)
        sends = tcp.on_ack(ack_seq, t)
        if tcp.cwnd != before:
            self._record(t, REC_WIN, self.tcp_flow, ack_seq, 0)
        cyc = self.cur_cycle
        if cyc is not None and tcp.cwnd < cyc.w_min:
            cyc.w_min = tcp.cwnd
        self._emit_tcp(t, sends)

    # -- main loop ----------------------------------------------------------

    def execute(self) -> HeapRun:
        if self.duration_ns > 0:
            for flow, arrivals in enumerate(self.arrivals):
                if arrivals is not None:
                    self._push_arrival(flow)
            if self.tcp is not None:
                self._emit_tcp(0, self.tcp._new_sends())
                self._push(RTO_NS, EV_RTO, 0, None)

        heap = self.heap
        while heap and heap[0][0] <= self.duration_ns:
            t, kind, _sub, _cnt, payload = heappop(heap)
            if kind == EV_ARRIVE:
                self._handle_arrive(t, payload)
            elif kind == EV_LINK_DONE:
                self._handle_link_done(t)
            elif kind == EV_DELIVER:
                self._handle_deliver(t, payload)
            elif kind == EV_ACK:
                self._handle_ack(t, payload)
            else:  # EV_RTO
                self._emit_tcp(t, self.tcp.on_timeout(t))
                if t + RTO_NS <= self.duration_ns:
                    self._push(t + RTO_NS, EV_RTO, 0, None)

        # census of packets still inside the system
        names = self.names
        in_flight = {name: 0 for name in names}
        for pkt in self.queue.packets:
            in_flight[names[pkt[1]]] += 1
        if self.queue.in_service is not None:
            in_flight[names[self.queue.in_service[1]]] += 1
        for _t, kind, _sub, _cnt, payload in heap:
            if kind == EV_DELIVER:
                in_flight[names[payload[1]]] += 1

        return HeapRun(
            metrics=dict(zip(names, self.metrics)),
            cycles=self.cycles,
            csv="".join(self.lines),
            in_flight_end=in_flight,
        )


def run_by_single_heap(sim) -> HeapRun:
    """Run a built Simulator for its scenario's duration on the single-heap
    engine; metrics cover events past the scenario's effective warmup."""
    return _HeapEngine(sim).execute()
