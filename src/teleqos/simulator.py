"""Deterministic packet-level discrete-event simulator of a single droptail
bottleneck shared by one TCP NewReno source and any number of CBR or
adaptive-sampled sources.

Topology: all sources feed directly into the bottleneck ingress queue
(byte capacity B, droptail); the link serves it FIFO at rate mu and
delivers after a one-way propagation delay tau; the TCP receiver returns
cumulative ACKs (every n-th packet) over an uncongested reverse path with
the same tau. The clock is integer nanoseconds and the engine contains no
randomness, so identical scenarios produce byte-identical traces.

`run()` is the engine: one function owns the event loop, its metrics and
its loss-cycle state; it simulates the scenario's `duration` and measures
after its `effective_warmup`. It raises SimulationError rather than return
a trace when a post-condition breaks: a flow's conservation ledger does not
balance, the queue exceeds its capacity, or the link idles with packets
waiting.

Pending events live in five places. Arrivals at the queue (the next
packet of each open-loop source and TCP packets just sent) wait in a heap
keyed (time, flow id, sequence). The link holds every packet for at least
1 ns, so completions strictly increase; each delivery follows its
completion by tau and each ACK its delivery by tau, so deliveries and ACKs
wait in two FIFO delay lines (deques) already in time order. The one
pending link completion and the retransmission timer are plain times.
The loop takes the earliest head of the five; at equal timestamps the
order is link completion, then queue arrival (lowest flow id, then
sequence), then delivery, then ACK, then the timer. A source's
transmission enters the queue at the same instant it is emitted
(infinite-bandwidth access links).
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush, heapreplace
from itertools import count, repeat

from . import sampling
from .scenario import FlowSpec, ScenarioConfig

ACK_SIZE = 40
RTO_NS = 1_000_000_000  # minimal idle-timer retransmit, avoids deadlock only

# trace record event names, indexed by code
REC_EVENTS = ("send", "enqueue", "drop", "dequeue", "deliver", "ack", "window-change")
REC_SEND, REC_ENQ, REC_DROP, REC_DEQ, REC_DELIV, REC_ACK, REC_WIN = range(7)


class ConfigError(ValueError):
    pass


class SimulationError(RuntimeError):
    pass


class InsufficientCycles(RuntimeError):
    pass


class UnknownFlow(KeyError):
    pass


def _ns(seconds: float) -> int:
    return int(round(seconds * 1e9))


# --------------------------------------------------------------------------
# queue


class DropTailQueue:
    """Byte-capacity FIFO in front of a fixed-rate link.

    The packet at the head serializes onto the link continuously, so the
    occupancy at time t is the waiting bytes plus the not-yet-serialized
    remainder of the packet in service; a packet is admitted iff it fits
    whole within the capacity at its arrival instant, and is never
    partially dropped. This keeps every admitted packet's queueing delay
    at exactly occupancy/mu, so delays can never exceed tau + B/mu.
    """

    __slots__ = (
        "capacity", "waiting_bytes", "packets",
        "in_service", "service_start_ns", "bytes_per_ns",
    )

    def __init__(self, capacity: int, mu: float = 0.0):
        self.capacity = capacity
        self.waiting_bytes = 0
        self.packets: deque = deque()
        self.in_service = None
        self.service_start_ns = 0
        self.bytes_per_ns = mu / 1e9

    def occupancy(self, t: int) -> int:
        """Waiting bytes plus the not-yet-serialized bytes of the packet in
        service at time t."""
        pkt = self.in_service
        if pkt is None:
            return self.waiting_bytes
        size = pkt[2]
        serialized = int((t - self.service_start_ns) * self.bytes_per_ns)
        return self.waiting_bytes + (size - serialized if serialized < size else 0)

    def offer(self, pkt, t: int = 0) -> bool:
        """Admit pkt iff it fits whole; drops are per-packet, never partial."""
        if self.occupancy(t) + pkt[2] > self.capacity:
            return False
        self.waiting_bytes += pkt[2]
        self.packets.append(pkt)
        return True

    def start_next(self, t: int):
        """Move the head waiting packet into service; returns it."""
        pkt = self.packets.popleft()
        self.waiting_bytes -= pkt[2]
        self.in_service = pkt
        self.service_start_ns = t
        return pkt

    def finish_service(self):
        pkt = self.in_service
        self.in_service = None
        return pkt


# --------------------------------------------------------------------------
# TCP NewReno source and receiver

SS, CA, FR = "slow-start", "congestion-avoidance", "fast-recovery"


class TcpSource:
    """TCP NewReno sender, packet-granular.

    Congestion avoidance grows the window by one packet per window's worth
    of cumulative-ACK equivalents; each ACK triggers replacement packets
    (n per cumulative ACK, n+1 when the window increments, the extra being
    the probing packet). The third duplicate ACK triggers fast retransmit;
    recovery uses window inflation (+1 per further duplicate ACK, new data
    once the inflated window exceeds the flight size) and partial-ACK
    retransmissions, and ends at the ACK covering the recover point with
    the window halved.
    """

    __slots__ = (
        "size", "max_burst", "cwnd", "ssthresh", "phase", "next_seq",
        "high_ack", "dup_count", "recover", "ack_credits", "last_progress_ns",
    )

    def __init__(self, size: int, n_ack: int = 1):
        self.size = size
        # at most n compensating packets plus one probing packet leave per
        # ACK arrival; this is the congestion-avoidance transmission pattern
        # and doubles as the recovery-exit burst limiter the RFC calls for
        self.max_burst = n_ack + 1
        self.cwnd = 2.0
        self.ssthresh = math.inf
        self.phase = SS
        self.next_seq = 1
        self.high_ack = 0
        self.dup_count = 0
        self.recover = 0
        self.ack_credits = 0.0
        self.last_progress_ns = 0

    @property
    def outstanding(self) -> int:
        return self.next_seq - 1 - self.high_ack

    def _new_sends(self, budget: int | None = None) -> list[int]:
        """Sequence numbers of the new packets the window admits now."""
        sends = []
        if budget is None:
            budget = self.max_burst
        limit = math.floor(self.cwnd + 1e-9)
        while self.outstanding < limit and len(sends) < budget:
            sends.append(self.next_seq)
            self.next_seq += 1
        return sends

    def on_ack(self, ack_seq: int, now_ns: int) -> list[int]:
        """Process one cumulative ACK; returns the sequence numbers to emit now."""
        if ack_seq > self.next_seq - 1:
            return []  # malformed: acknowledges data never sent
        if ack_seq > self.high_ack:
            newly = ack_seq - self.high_ack
            self.high_ack = ack_seq
            self.dup_count = 0
            self.last_progress_ns = now_ns
            if self.phase == FR:
                if ack_seq >= self.recover:
                    # full ACK: leave recovery with the window halved
                    self.cwnd = self.ssthresh
                    self.phase = CA
                    self.ack_credits = 0.0
                    return self._new_sends()
                # partial ACK: the next hole was also lost; retransmit it,
                # deflate the inflated window by the amount acknowledged
                self.cwnd = max(self.ssthresh, self.cwnd - newly + 1.0)
                return [self.high_ack + 1] + self._new_sends(self.max_burst - 1)
            if self.phase == SS:
                self.cwnd += newly
                if self.cwnd >= self.ssthresh:
                    self.phase = CA
                    self.ack_credits = 0.0
            else:
                self.ack_credits += newly
                if self.ack_credits >= self.cwnd - 1e-9:
                    self.ack_credits -= self.cwnd
                    self.cwnd += 1.0
            return self._new_sends()

        # duplicate ACK
        self.dup_count += 1
        if self.phase == FR:
            self.cwnd += 1.0  # inflation: each dup signals a departure
            return self._new_sends()
        if self.dup_count == 3 and self.outstanding > 0:
            self.ssthresh = max(self.cwnd / 2.0, 2.0)
            self.recover = self.next_seq - 1
            self.phase = FR
            self.cwnd = self.ssthresh + 3.0
            return [self.high_ack + 1]
        return []

    def on_timeout(self, now_ns: int) -> list[int]:
        if self.outstanding == 0 or now_ns - self.last_progress_ns < RTO_NS:
            return []
        self.last_progress_ns = now_ns
        return [self.high_ack + 1]


class TcpReceiver:
    """Delayed-ACK receiver: one cumulative ACK per n in-order data packets;
    out-of-order and gap-filling arrivals are acknowledged immediately."""

    __slots__ = ("n_ack", "rcv_next", "pending", "ooo")

    def __init__(self, n_ack: int):
        self.n_ack = n_ack
        self.rcv_next = 1
        self.pending = 0
        self.ooo: set[int] = set()

    def on_data(self, seq: int) -> int | None:
        """Returns the cumulative ACK sequence to emit, or None."""
        if seq == self.rcv_next:
            self.rcv_next += 1
            filled = False
            while self.rcv_next in self.ooo:
                self.ooo.discard(self.rcv_next)
                self.rcv_next += 1
                filled = True
            if filled:
                self.pending = 0
                return self.rcv_next - 1
            self.pending += 1
            if self.pending >= self.n_ack:
                self.pending = 0
                return self.rcv_next - 1
            return None
        if seq > self.rcv_next:
            self.ooo.add(seq)
        self.pending = 0
        return self.rcv_next - 1  # duplicate (or old-segment) ACK


# --------------------------------------------------------------------------
# metrics containers


@dataclass
class FlowMetrics:
    """Post-warmup metrics for one flow (counts, delays, jitter, loss)."""

    flow: str
    created: int = 0
    delivered: int = 0
    dropped: int = 0
    min_delay: float | None = None
    max_delay: float | None = None
    max_positive_jitter: float = 0.0
    media_bytes: dict = field(default_factory=dict)
    media_dropped_bytes: dict = field(default_factory=dict)
    last_delay: float | None = None  # of the latest post-warmup delivery, for jitter
    created_total: int = 0
    delivered_total: int = 0
    dropped_total: int = 0

    @property
    def loss_fraction(self) -> float:
        seen = self.delivered + self.dropped
        return self.dropped / seen if seen else 0.0

    @property
    def media_loss(self) -> dict[str, float]:
        out = {}
        for tag, total in self.media_bytes.items():
            out[tag] = self.media_dropped_bytes.get(tag, 0.0) / total if total else 0.0
        return out


@dataclass
class CycleRecord:
    """One steady-state cycle, delimited by queue-overflow TCP loss events.

    The engine fills in the record while the cycle runs; end_ns is set when
    the next loss event closes it. Per-flow delays are keyed by flow name.
    """

    start_ns: int
    end_ns: int
    q_min: int
    q_max: int
    w_min: float
    losses: int
    flow_delay_min: dict
    flow_delay_max: dict

    @property
    def period(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


@dataclass
class CycleStats:
    """Aggregated per-cycle statistics from extract_cycles."""

    cycles: list[CycleRecord]
    q_min_mean: float
    q_max_mean: float
    period_mean: float
    stationary: bool  # cycle-to-cycle q_min within 10% of the mean

    def observed_d_min(self, flow: str) -> float:
        """Mean over cycles of the per-cycle minimum delay of `flow`, seconds."""
        return _cycle_mean([c.flow_delay_min for c in self.cycles], flow)

    def observed_d_max(self, flow: str) -> float:
        """Mean over cycles of the per-cycle maximum delay of `flow`, seconds."""
        return _cycle_mean([c.flow_delay_max for c in self.cycles], flow)


def _cycle_mean(per_cycle: list[dict], flow: str) -> float:
    vals = [delays[flow] for delays in per_cycle if flow in delays]
    if not vals:
        raise UnknownFlow(flow)
    return sum(vals) / len(vals)


@dataclass
class Trace:
    """Simulation output: metrics, cycle data and (with record=True) the raw
    trace as CSV lines, each ending in a newline, written by run()."""

    config: ScenarioConfig
    metrics: dict[str, FlowMetrics]
    cycles: list[CycleRecord]
    records: list[str] | None
    queue_min_pw: int | None
    queue_max_pw: int | None
    in_flight_end: dict[str, int]

    def to_csv(self) -> str:
        """Raw trace as CSV (requires record=True at run time)."""
        if self.records is None:
            raise SimulationError("trace was run without record=True")
        return "".join(["time_ns,event,flow,seq,size_bytes,queue_bytes,cwnd_pkts\n", *self.records])


def extract_cycles(trace: Trace) -> CycleStats:
    """Per-cycle queue statistics; requires >= 3 post-warmup loss events."""
    if len(trace.cycles) < 2:
        n = len(trace.cycles) + 1 if trace.cycles else 0
        raise InsufficientCycles(
            f"need >= 3 TCP loss events past warmup, got {n}"
        )
    cycles = trace.cycles
    q_mins = [c.q_min for c in cycles]
    q_mean = sum(q_mins) / len(q_mins)
    stationary = all(abs(q - q_mean) <= 0.10 * q_mean for q in q_mins) if q_mean > 0 else False
    return CycleStats(
        cycles=cycles,
        q_min_mean=q_mean,
        q_max_mean=sum(c.q_max for c in cycles) / len(cycles),
        period_mean=sum(c.period for c in cycles) / len(cycles),
        stationary=stationary,
    )


# --------------------------------------------------------------------------
# simulator construction


@dataclass(frozen=True)
class _Source:
    """One traffic source. Open-loop sources (cbr, telehaptic, adaptive)
    follow a fixed arrival stream; the TCP source is closed-loop and has none."""

    flow: int
    kind: str
    size: int = 0
    gap_ns: int = 0
    phase_ns: int = 0
    schedule: tuple | None = None  # adaptive: ((t_ns, size, breakdown), ...) before the phase

    def arrivals(self) -> Iterator[tuple[int, int, dict]]:
        """A fresh time-ordered iterator of an open-loop source's
        (t_ns, size, breakdown) arrivals; breakdown maps media to bytes."""
        if self.schedule is not None:
            return ((t + self.phase_ns, size, brk) for t, size, brk in self.schedule)
        breakdown = {"haptic" if self.kind == "telehaptic" else "cbr-cross": self.size}
        return zip(count(self.phase_ns, self.gap_ns), repeat(self.size), repeat(breakdown))


@dataclass(frozen=True)
class Simulator:
    """A validated scenario bound to concrete sources; the adaptive
    schedules cover the scenario's duration, which run() executes."""

    config: ScenarioConfig
    sources: tuple[_Source, ...]


def _adaptive_schedule(flow: FlowSpec, duration: float, seed: int) -> tuple:
    spec = flow.signal if flow.signal.seed else replace(flow.signal, seed=seed)
    samples = sampling.synth_haptic_trace(spec, duration)
    flags = sampling.deadband_filter(samples, flow.deadband)
    packets = sampling.vh_mux(flags, flow.video_rate, flow.header)
    # packets of one make-up (kind, header, video bytes) share one size and
    # one breakdown dict, as the packets of a cbr source do
    makeups: dict[tuple, tuple[int, dict]] = {}
    sched = []
    for p in packets:
        if p.time < duration:
            makeup = makeups.get(p[1:])
            if makeup is None:
                makeup = makeups[p[1:]] = (p.size, p.breakdown)
            sched.append((_ns(p.time), *makeup))
    return tuple(sched)


def build_simulator(config: ScenarioConfig) -> Simulator:
    """Validate the scenario and materialize its traffic sources for the
    scenario's duration.

    Raises ConfigError with a field-level message; in particular the
    aggregate CBR-like rate (including the realized mean rate of adaptive
    flows) must stay below the link capacity when a TCP source is present.
    """
    sources: list[_Source] = []
    adaptive_mean = 0.0
    # the link holds every packet for at least one clock tick (the engine's
    # service time), so completions, deliveries and ACKs strictly increase
    ns_per_byte = 1e9 / config.net.mu
    for idx, flow in enumerate(config.flows):
        if flow.kind == "tcp":
            src = _Source(idx, "tcp", size=int(round(config.net.s_tcp)))
            sizes = [src.size]
        elif flow.kind in ("cbr", "telehaptic"):
            src = _Source(
                idx, flow.kind,
                size=int(round(flow.packet)),
                gap_ns=_ns(flow.gap),
                phase_ns=_ns(flow.phase),
            )
            sizes = [src.size]
        else:  # adaptive
            sched = _adaptive_schedule(flow, max(config.duration, 1e-3), config.seed)
            src = _Source(idx, "adaptive", phase_ns=_ns(flow.phase), schedule=sched)
            sizes = [size for _, size, _ in sched]
            if config.duration > 0 and sizes:
                adaptive_mean += sum(sizes) / config.duration
        sources.append(src)
        if sizes and int(min(sizes) * ns_per_byte + 0.5) < 1:
            raise ConfigError(
                f"flow {flow.name!r}: a {min(sizes)} B packet takes "
                f"under 1 ns on the link; the nanosecond clock needs at least 1 ns"
            )

    if any(src.kind == "tcp" for src in sources):
        total = config.fixed_cbr_rate + adaptive_mean
        if total >= config.net.mu:
            raise ConfigError(
                f"flows: aggregate CBR rate {total:.6g} B/s (incl. adaptive mean) "
                f">= link capacity {config.net.mu:.6g} B/s with a TCP source present"
            )
    return Simulator(config, tuple(sources))


# --------------------------------------------------------------------------
# the event loop


def run(sim: Simulator, record: bool = False) -> Trace:
    """Execute the simulation deterministically for the scenario's duration.

    Metrics cover only events past the scenario's effective warmup; the
    raw trace (record=True, one CSV line per event) covers everything.
    Raises SimulationError if the link idles while packets wait, the queue
    exceeds its capacity, or a flow's packets do not balance at the end.
    """
    cfg, net = sim.config, sim.config.net
    duration_ns, warmup_ns, tau_ns = _ns(cfg.duration), _ns(cfg.effective_warmup), _ns(net.tau)
    ns_per_byte = 1e9 / net.mu
    # TCP drops closer than one worst-case RTT belong to the same overflow
    # event; each new event closes the running loss cycle and opens the next
    merge_gap_ns = _ns(2 * net.tau + net.buf / net.mu)

    queue = DropTailQueue(int(round(net.buf)), net.mu)
    offer, occupancy = queue.offer, queue.occupancy
    start_next, finish_service = queue.start_next, queue.finish_service
    waiting = queue.packets
    capacity = queue.capacity
    names = [f.name for f in cfg.flows]
    metrics = [FlowMetrics(flow=name) for name in names]
    tcp_id = next((src.flow for src in sim.sources if src.kind == "tcp"), -1)
    tcp = rcv = tcp_breakdown = None
    if tcp_id >= 0:
        tcp = TcpSource(sim.sources[tcp_id].size, net.n_ack)
        rcv = TcpReceiver(net.n_ack)
        tcp_breakdown = {"tcp-data": tcp.size}
    records: list[str] | None = [] if record else None
    rec = None
    if records is not None:
        labels = [[f"{event},{name}" for name in names] for event in REC_EVENTS]
        cwnd_text: dict[float, str] = {}
        add_line = records.append

        def rec(t, code, flow, seq, size, occ):
            # TCP rows carry the window as it stands; other rows leave it empty
            cwnd = ""
            if flow == tcp_id:
                w = tcp.cwnd
                cwnd = cwnd_text.get(w)
                if cwnd is None:
                    cwnd = cwnd_text[w] = f"{w:.3f}"
            add_line(f"{t},{labels[code][flow]},{seq},{size},{occ},{cwnd}\n")

    # the next arrival of each open-loop flow and the TCP packets sent
    # but not yet queued, as (t, flow, seq, size, breakdown); no two
    # entries share (t, flow, seq), so the payload is never compared
    heap: list = []
    deliveries: deque = deque()  # (t, pkt): completion + tau, FIFO
    acks: deque = deque()  # (t, ack_seq): delivery + tau, FIFO
    never = duration_ns + 1
    link_t = never  # completion of the packet in service
    rto_t = never
    streams = [None if src.flow == tcp_id else src.arrivals() for src in sim.sources]
    q_min_pw = q_max_pw = None
    last_tcp_drop = None
    cyc = None  # the loss cycle in progress
    cycles: list[CycleRecord] = []  # closed cycles that started past the warmup

    def emit_tcp(t, sends):
        for seq in sends:
            if rec:
                rec(t, REC_SEND, tcp_id, seq, tcp.size, occupancy(t))
            heappush(heap, (t, tcp_id, seq, tcp.size, tcp_breakdown))

    if duration_ns > 0:
        for flow, stream in enumerate(streams):
            nxt = next(stream, None) if stream is not None else None
            if nxt is not None:
                heappush(heap, (nxt[0], flow, 0, nxt[1], nxt[2]))
        if tcp is not None:
            emit_tcp(0, tcp._new_sends())
            rto_t = RTO_NS

    while True:
        # the earliest of the five heads; strict < leaves a tie to the
        # first kind in the order link completion, arrival, delivery,
        # ACK, RTO
        t = link_t
        kind = 0
        if heap and heap[0][0] < t:
            t = heap[0][0]
            kind = 1
        if deliveries and deliveries[0][0] < t:
            t = deliveries[0][0]
            kind = 2
        if acks and acks[0][0] < t:
            t = acks[0][0]
            kind = 3
        if rto_t < t:
            t = rto_t
            kind = 4
        if t > duration_ns:
            break

        if kind < 2:
            if kind == 0:  # link completion
                pkt = finish_service()
                link_t = never
                deliveries.append((t + tau_ns, pkt))
                code = REC_DEQ
            else:  # arrival at the queue
                _, flow, seq, size, breakdown = heap[0]
                stream = streams[flow]
                nxt = next(stream, None) if stream is not None else None
                if nxt is not None:
                    heapreplace(heap, (nxt[0], flow, seq + 1, nxt[1], nxt[2]))
                else:
                    heappop(heap)
                m = metrics[flow]
                m.created_total += 1
                pw = t >= warmup_ns
                if pw:
                    m.created += 1
                if rec and stream is not None:
                    rec(t, REC_SEND, flow, seq, size, occupancy(t))
                pkt = (flow, seq, size, t, breakdown)
                code = REC_ENQ
                if not offer(pkt, t):
                    m.dropped_total += 1
                    if pw:
                        m.dropped += 1
                        for tag, nbytes in breakdown.items():
                            m.media_bytes[tag] = m.media_bytes.get(tag, 0.0) + nbytes
                            m.media_dropped_bytes[tag] = (
                                m.media_dropped_bytes.get(tag, 0.0) + nbytes
                            )
                    if rec:
                        rec(t, REC_DROP, flow, seq, size, occupancy(t))
                    if flow == tcp_id:
                        if last_tcp_drop is not None and t - last_tcp_drop <= merge_gap_ns:
                            cyc.losses += 1
                        else:
                            if cyc is not None and cyc.start_ns >= warmup_ns:
                                cyc.end_ns = t
                                cycles.append(cyc)
                            occ = occupancy(t)
                            cyc = CycleRecord(
                                start_ns=t, end_ns=t, q_min=occ, q_max=occ,
                                w_min=tcp.cwnd, losses=1,
                                flow_delay_min={}, flow_delay_max={},
                            )
                        last_tcp_drop = t
                    pkt = None
            if pkt is not None:  # the queue gained or lost a packet
                occ = occupancy(t)
                if occ > capacity:
                    raise SimulationError("queue occupancy exceeded capacity")
                if t >= warmup_ns:
                    if q_min_pw is None or occ < q_min_pw:
                        q_min_pw = occ
                    if q_max_pw is None or occ > q_max_pw:
                        q_max_pw = occ
                if cyc is not None:
                    if occ < cyc.q_min:
                        cyc.q_min = occ
                    if occ > cyc.q_max:
                        cyc.q_max = occ
                if rec:
                    rec(t, code, pkt[0], pkt[1], pkt[2], occ)
                if waiting and queue.in_service is None:
                    link_t = t + int(start_next(t)[2] * ns_per_byte + 0.5)

        elif kind == 2:  # delivery at the receiver
            flow, seq, size, created, breakdown = deliveries.popleft()[1]
            m = metrics[flow]
            m.delivered_total += 1
            if rec:
                rec(t, REC_DELIV, flow, seq, size, occupancy(t))
            if t >= warmup_ns:
                m.delivered += 1
                for tag, nbytes in breakdown.items():
                    m.media_bytes[tag] = m.media_bytes.get(tag, 0.0) + nbytes
                delay = (t - created) / 1e9
                if m.min_delay is None or delay < m.min_delay:
                    m.min_delay = delay
                if m.max_delay is None or delay > m.max_delay:
                    m.max_delay = delay
                if m.last_delay is not None:
                    jit = delay - m.last_delay
                    if jit > m.max_positive_jitter:
                        m.max_positive_jitter = jit
                m.last_delay = delay
                if cyc is not None:
                    name = names[flow]
                    cur = cyc.flow_delay_min.get(name)
                    if cur is None or delay < cur:
                        cyc.flow_delay_min[name] = delay
                    cur = cyc.flow_delay_max.get(name)
                    if cur is None or delay > cur:
                        cyc.flow_delay_max[name] = delay
            if flow == tcp_id:
                ack = rcv.on_data(seq)
                if ack is not None:
                    acks.append((t + tau_ns, ack))

        elif kind == 3:  # ACK at the TCP sender
            ack_seq = acks.popleft()[1]
            before = tcp.cwnd
            if rec:
                rec(t, REC_ACK, tcp_id, ack_seq, ACK_SIZE, occupancy(t))
            sends = tcp.on_ack(ack_seq, t)
            if rec and tcp.cwnd != before:
                rec(t, REC_WIN, tcp_id, ack_seq, 0, occupancy(t))
            if cyc is not None and tcp.cwnd < cyc.w_min:
                cyc.w_min = tcp.cwnd
            emit_tcp(t, sends)

        else:  # RTO timer
            emit_tcp(t, tcp.on_timeout(t))
            rto_t = t + RTO_NS

        if waiting and queue.in_service is None:
            raise SimulationError(f"link idle at t = {t} ns with {len(waiting)} packets waiting")

    # census of packets still inside the system, then per-flow conservation
    in_flight = [0] * len(names)
    for pkt in waiting:
        in_flight[pkt[0]] += 1
    if queue.in_service is not None:
        in_flight[queue.in_service[0]] += 1
    for _t, pkt in deliveries:
        in_flight[pkt[0]] += 1
    for m, inside in zip(metrics, in_flight):
        if m.created_total != m.delivered_total + m.dropped_total + inside:
            raise SimulationError(
                f"flow {m.flow}: {m.created_total} packets created, but "
                f"{m.delivered_total} delivered + {m.dropped_total} dropped "
                f"+ {inside} in flight"
            )

    return Trace(
        config=cfg,
        metrics=dict(zip(names, metrics)),
        cycles=cycles,
        records=records,
        queue_min_pw=q_min_pw,
        queue_max_pw=q_max_pw,
        in_flight_end=dict(zip(names, in_flight)),
    )
