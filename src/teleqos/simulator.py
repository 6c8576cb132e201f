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
wait in FIFO delay lines (deques) already in time order. The one
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
from typing import TextIO

from .scenario import FlowSpec, ScenarioConfig, ScenarioSemanticError

ACK_SIZE = 40
RTO_NS = 1_000_000_000  # minimal idle-timer retransmit, avoids deadlock only

# the trace record format: its event names and its header
REC_EVENTS = ("send", "enqueue", "drop", "dequeue", "deliver", "ack", "window-change")
REC_HEADER = "time_ns,event,flow,seq,size_bytes,queue_bytes,cwnd_pkts\n"
# lines joined into one string at a time while recording and written to
# the sink (a block may run a few lines over, since it is checked once per
# event), so a recording run holds at most one block of the trace
REC_BLOCK = 16384


class SimulationError(RuntimeError):
    pass


class InsufficientCycles(RuntimeError):
    pass


class UnknownFlow(KeyError):
    pass


def _ns(seconds: float) -> int:
    return int(round(seconds * 1e9))


def _check_clock(what: str, seconds: float) -> None:
    """Reject a time the engine's integer clock cannot hold: below 2^63 ns,
    as the int64 schedules of adaptive flows need, like packet sizes."""
    if not seconds * 1e9 < 2**63:
        raise ScenarioSemanticError(
            f"{what} = {seconds:g} s exceeds the nanosecond clock's limit "
            f"of 2^63 ns (about 292 years)"
        )


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
    Of a packet record the queue reads only the size, at index 3.
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
        size = pkt[3]
        serialized = int((t - self.service_start_ns) * self.bytes_per_ns)
        return self.waiting_bytes + (size - serialized if serialized < size else 0)

    def offer(self, pkt, occ: int) -> bool:
        """Admit pkt iff it fits whole on top of occ, the occupancy at its
        arrival instant; drops are per-packet, never partial."""
        if occ + pkt[3] > self.capacity:
            return False
        self.waiting_bytes += pkt[3]
        self.packets.append(pkt)
        return True

    def start_next(self, t: int):
        """Move the head waiting packet into service; returns it."""
        pkt = self.packets.popleft()
        self.waiting_bytes -= pkt[3]
        self.in_service = pkt
        self.service_start_ns = t
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
            if self.phase == SS:  # only before the first loss: ssthresh is still inf
                self.cwnd += newly
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
    """Simulation output: metrics, cycle data and the end census. The raw
    trace is not kept here; run(sim, record=sink) writes it to the sink as
    it goes."""

    metrics: dict[str, FlowMetrics]
    cycles: list[CycleRecord]
    in_flight_end: dict[str, int]

    @staticmethod
    def to_csv(lines: list[str], out: TextIO) -> str:
        """Join lines into one block of the raw trace, write the block to
        out and clear lines; returns the block. run() writes every block
        through this function, which it looks up when it starts. The name
        is kept for perfbench's `simulator.to_csv` span, which times these
        writes and sums the returned lengths into `simulator.trace_bytes`,
        until a benchmark change renames that span (ROADMAP item 1)."""
        block = "".join(lines)
        out.write(block)
        lines.clear()
        return block


def extract_cycles(trace: Trace) -> CycleStats:
    """Per-cycle queue statistics; requires >= 2 loss cycles that started
    past the warmup and were closed by the next loss event."""
    if len(trace.cycles) < 2:
        raise InsufficientCycles(
            f"need >= 2 complete loss cycles past warmup, got {len(trace.cycles)}"
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

    kind: str
    size: int = 0
    gap_ns: int = 0
    phase_ns: int = 0
    schedule: tuple | None = None  # adaptive: _adaptive_schedule's five columns, times before the phase

    def arrivals(self, flow: int) -> Iterator[tuple[int, int, int, int, dict]]:
        """A fresh time-ordered iterator of an open-loop source's packets as
        flow `flow`: the (t_ns, flow, seq, size, breakdown) records run()
        carries to delivery, seq from 0; breakdown maps media to bytes."""
        if self.schedule is not None:  # an adaptive source
            times, sizes, significant, video, header = self.schedule
            # a memoryview yields each column's Python values without a list of them
            breakdowns = ({"haptic" if sig else "header": header, "video": v}
                          for sig, v in zip(memoryview(significant), memoryview(video)))
            return zip(map(self.phase_ns.__add__, memoryview(times)), repeat(flow), count(),
                       memoryview(sizes), breakdowns)
        breakdown = {"haptic" if self.kind == "telehaptic" else "cbr-cross": self.size}
        return zip(count(self.phase_ns, self.gap_ns), repeat(flow), count(),
                   repeat(self.size), repeat(breakdown))


@dataclass(frozen=True)
class Simulator:
    """A validated scenario bound to concrete sources; the adaptive
    schedules cover the scenario's duration, which run() executes."""

    config: ScenarioConfig
    sources: tuple[_Source, ...]


def _adaptive_schedule(flow: FlowSpec, duration: float, seed: int) -> tuple:
    """The adaptive flow's packets within the duration as columns: int64
    emission times (ns) and sizes (B), the multiplexer's significance flags
    and video bytes, then the header every packet carries."""
    # numpy and sampling load only for a scenario that synthesizes a signal
    import numpy as np

    from . import sampling

    spec = flow.signal if flow.signal.seed else replace(flow.signal, seed=seed)
    samples = sampling.synth_haptic_trace(spec, duration)
    flags = sampling.deadband_filter(samples, flow.deadband)
    stream = sampling.vh_mux(flags, flow.video_rate, flow.header)
    times = stream.tick * sampling.HAPTIC_TICK
    keep = times < duration
    t_ns = np.rint(times[keep] * 1e9).astype(np.int64)
    header, video = stream.header_bytes, stream.video_bytes[keep]
    sizes = np.rint(header + video)
    if not sizes.max() < 2**63:
        raise ScenarioSemanticError(
            f"flow {flow.name!r}: video_rate {flow.video_rate:g} B/s and header {header:g} B "
            f"make a {sizes.max():g} B packet; packet sizes must stay below 2^63 B"
        )
    sizes = sizes.astype(np.int64)
    return t_ns, sizes, stream.significant[keep], video, header


def build_simulator(config: ScenarioConfig) -> Simulator:
    """Validate the scenario and materialize its traffic sources for the
    scenario's duration.

    Raises ScenarioSemanticError with a field-level message; in particular,
    every time the engine converts to its nanosecond clock must stay below
    2^63 ns, the link must hold each packet and each fixed-rate gap must
    last at least 1 ns, and when a TCP source is present, n_ack must be 1
    or 2 and the aggregate CBR-like rate (including the realized mean rate
    of adaptive flows) must stay below the link capacity.
    """
    net = config.net
    # before anything is synthesized; the warmup lies within the duration,
    # and run()'s loss-cycle merge gap, 2 tau + buf/mu, bounds each delay
    _check_clock("duration", config.duration)
    _check_clock("tau", net.tau)
    _check_clock("2 tau + buf/mu", 2 * net.tau + net.buf / net.mu)
    sources: list[_Source] = []
    # the link holds every packet for at least one clock tick (the engine's
    # service time), so completions, deliveries and ACKs strictly increase
    ns_per_byte = 1e9 / net.mu
    for flow in config.flows:
        _check_clock(f"flow {flow.name!r}: phase", flow.phase)
        if flow.kind == "tcp":
            src = _Source("tcp", size=int(round(net.s_tcp)))
            smallest = largest = src.size
        elif flow.kind in ("cbr", "telehaptic"):
            _check_clock(f"flow {flow.name!r}: gap", flow.gap)
            src = _Source(
                flow.kind,
                size=int(round(flow.packet)),
                gap_ns=_ns(flow.gap),
                phase_ns=_ns(flow.phase),
            )
            # packets one instant apart would never let the clock advance
            if src.gap_ns < 1:
                raise ScenarioSemanticError(
                    f"flow {flow.name!r}: gap {flow.gap:g} s rounds to 0 ns; "
                    f"the nanosecond clock needs at least 1 ns between packets"
                )
            smallest = largest = src.size
        else:  # adaptive; the first sample is always sent, so sizes is never empty
            sched = _adaptive_schedule(flow, max(config.duration, 1e-3), config.seed)
            src = _Source("adaptive", phase_ns=_ns(flow.phase), schedule=sched)
            sizes = sched[1]
            smallest, largest = int(sizes.min()), int(sizes.max())
        sources.append(src)
        _check_clock(f"flow {flow.name!r}: the link time of a {largest} B packet",
                     largest / net.mu)
        if int(smallest * ns_per_byte + 0.5) < 1:
            raise ScenarioSemanticError(
                f"flow {flow.name!r}: a {smallest} B packet takes "
                f"under 1 ns on the link; the nanosecond clock needs at least 1 ns"
            )

    if any(src.kind == "tcp" for src in sources):
        if net.n_ack > 2:
            raise ScenarioSemanticError(
                f"n_ack = {net.n_ack} with a TCP source: the receiver has no "
                f"delayed-ACK timer, and RFC 5681 section 4.2 asks for an ACK at least "
                f"every second full-sized segment"
            )
        # each adaptive flow's realized mean rate, from its bytes summed as
        # Python ints: an int64 sum of the sizes could wrap around
        adaptive_mean = 0.0
        if config.duration > 0:
            for src in sources:
                if src.schedule is not None:
                    adaptive_mean += sum(memoryview(src.schedule[1])) / config.duration
        total = config.fixed_cbr_rate + adaptive_mean
        if total >= net.mu:
            raise ScenarioSemanticError(
                f"flows: aggregate CBR rate {total:.6g} B/s (incl. adaptive mean) "
                f">= link capacity {net.mu:.6g} B/s with a TCP source present"
            )
    return Simulator(config, tuple(sources))


# --------------------------------------------------------------------------
# the event loop


def run(sim: Simulator, record: TextIO | None = None) -> Trace:
    """Execute the simulation deterministically for the scenario's duration.

    Metrics cover only events past the scenario's effective warmup. With
    record, a text sink such as an open file or an io.StringIO, the run
    writes the raw trace to it as it goes: REC_HEADER, then one CSV line per
    event with the queue occupancy after it, covering the warmup too. Each
    line is formatted where its event happens, and every REC_BLOCK lines
    are joined and written as one block, so the run holds at most one block
    of the trace, whatever its length; a zero-length run writes just the
    header. A falsy record (None, False) records nothing.
    A packet is the one record its source's iterator yields (TCP's in the
    same layout); the heap, queue, link and delivery line pass it on.
    Raises SimulationError if the link idles while packets wait, the queue
    exceeds its capacity, or a flow's packets do not balance at the end.
    """
    cfg, net = sim.config, sim.config.net
    duration_ns, warmup_ns, tau_ns = _ns(cfg.duration), _ns(cfg.effective_warmup), _ns(net.tau)
    ns_per_byte = 1e9 / net.mu
    # TCP drops closer than one worst-case RTT belong to the same overflow
    # event; each new event closes the running loss cycle and opens the next
    merge_gap_ns = _ns(2 * net.tau + net.buf / net.mu)

    queue = DropTailQueue(int(net.buf), net.mu)  # floored: occupancy never exceeds B
    offer, occupancy = queue.offer, queue.occupancy
    start_next = queue.start_next
    waiting = queue.packets
    capacity = queue.capacity
    names = [f.name for f in cfg.flows]
    metrics = [FlowMetrics(flow=name) for name in names]
    tcp_id = next((i for i, src in enumerate(sim.sources) if src.kind == "tcp"), -1)
    tcp = rcv = tcp_breakdown = None
    if tcp_id >= 0:
        tcp = TcpSource(sim.sources[tcp_id].size, net.n_ack)
        rcv = TcpReceiver(net.n_ack)
        tcp_breakdown = {"tcp-data": tcp.size}
    recording = bool(record)  # the loop tests a bool, not the sink
    if recording:
        to_csv = Trace.to_csv
        block = [REC_HEADER]
        add_line = block.append
        # each event's "event,flow" label, by flow
        send_lbl, enq_lbl, drop_lbl, deq_lbl, deliv_lbl, ack_lbl, win_lbl = (
            [f"{event},{name}" for name in names] for event in REC_EVENTS
        )
        # the window column by flow: TCP rows carry the window as it
        # stands, other rows leave it empty
        cwnds = [""] * len(names)
        if tcp is not None:
            cwnds[tcp_id] = f"{tcp.cwnd:.3f}"

    # the next arrival of each open-loop flow and the TCP packets sent
    # but not yet queued, as packet records; no two records share
    # (t, flow, seq), so the payload is never compared
    heap: list = []
    deliveries: deque = deque()  # packets past the link, FIFO
    delivery_t: deque = deque()  # their delivery times: completion + tau
    acks: deque = deque()  # (t, ack_seq): delivery + tau, FIFO
    never = duration_ns + 1
    link_t = never  # completion of the packet in service
    rto_t = never
    streams = [None if i == tcp_id else src.arrivals(i) for i, src in enumerate(sim.sources)]
    # each flow's latest post-warmup delay; inf makes the first jitter -inf
    last_delay = [math.inf] * len(names)
    last_tcp_drop = None
    cyc = None  # the loss cycle in progress
    cycles: list[CycleRecord] = []  # closed cycles that started past the warmup

    def emit_tcp(t, sends):
        if recording and sends:
            occ = occupancy(t)  # a burst leaves at one instant
            label, cwnd = send_lbl[tcp_id], cwnds[tcp_id]
            for seq in sends:
                add_line(f"{t},{label},{seq},{tcp.size},{occ},{cwnd}\n")
        for seq in sends:
            heappush(heap, (t, tcp_id, seq, tcp.size, tcp_breakdown))

    if duration_ns > 0:
        for stream in streams:
            nxt = next(stream, None) if stream is not None else None
            if nxt is not None:
                heappush(heap, nxt)
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
        if delivery_t and delivery_t[0] < t:
            t = delivery_t[0]
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
                pkt = queue.in_service
                queue.in_service = None
                link_t = never
                deliveries.append(pkt)
                delivery_t.append(t + tau_ns)
                occ = queue.waiting_bytes
            else:  # arrival at the queue
                stream = streams[heap[0][1]]
                nxt = next(stream, None) if stream is not None else None
                pkt = heappop(heap) if nxt is None else heapreplace(heap, nxt)
                _, flow, seq, size, breakdown = pkt
                m = metrics[flow]
                m.created_total += 1
                pw = t >= warmup_ns
                if pw:
                    m.created += 1
                # one read serves the send row, the admission test, the
                # drop row and a new loss cycle
                occ = occupancy(t)
                if recording and stream is not None:
                    add_line(f"{t},{send_lbl[flow]},{seq},{size},{occ},{cwnds[flow]}\n")
                if offer(pkt, occ):
                    occ += size
                else:
                    m.dropped_total += 1
                    if pw:
                        m.dropped += 1
                        for tag, nbytes in breakdown.items():
                            m.media_bytes[tag] = m.media_bytes.get(tag, 0.0) + nbytes
                            m.media_dropped_bytes[tag] = (
                                m.media_dropped_bytes.get(tag, 0.0) + nbytes
                            )
                    if recording:
                        add_line(f"{t},{drop_lbl[flow]},{seq},{size},{occ},{cwnds[flow]}\n")
                    if flow == tcp_id:
                        if last_tcp_drop is not None and t - last_tcp_drop <= merge_gap_ns:
                            cyc.losses += 1
                        else:
                            if cyc is not None and cyc.start_ns >= warmup_ns:
                                cyc.end_ns = t
                                cycles.append(cyc)
                            cyc = CycleRecord(
                                start_ns=t, end_ns=t, q_min=occ, q_max=occ,
                                w_min=tcp.cwnd, losses=1,
                                flow_delay_min={}, flow_delay_max={},
                            )
                        last_tcp_drop = t
                    pkt = None
            if pkt is not None:  # the queue gained or lost a packet; occ is its new occupancy
                if occ > capacity:
                    raise SimulationError("queue occupancy exceeded capacity")
                if cyc is not None:
                    if occ < cyc.q_min:
                        cyc.q_min = occ
                    if occ > cyc.q_max:
                        cyc.q_max = occ
                if recording:
                    flow = pkt[1]
                    label = (enq_lbl if kind else deq_lbl)[flow]
                    add_line(f"{t},{label},{pkt[2]},{pkt[3]},{occ},{cwnds[flow]}\n")
                if waiting and queue.in_service is None:
                    link_t = t + int(start_next(t)[3] * ns_per_byte + 0.5)

        elif kind == 2:  # delivery at the receiver
            created, flow, seq, size, breakdown = deliveries.popleft()
            delivery_t.popleft()
            m = metrics[flow]
            m.delivered_total += 1
            if recording:
                add_line(f"{t},{deliv_lbl[flow]},{seq},{size},{occupancy(t)},{cwnds[flow]}\n")
            if t >= warmup_ns:
                m.delivered += 1
                for tag, nbytes in breakdown.items():
                    m.media_bytes[tag] = m.media_bytes.get(tag, 0.0) + nbytes
                delay = (t - created) / 1e9
                if m.min_delay is None or delay < m.min_delay:
                    m.min_delay = delay
                if m.max_delay is None or delay > m.max_delay:
                    m.max_delay = delay
                jit = delay - last_delay[flow]
                if jit > m.max_positive_jitter:
                    m.max_positive_jitter = jit
                last_delay[flow] = delay
                if cyc is not None:
                    name = names[flow]
                    if delay < cyc.flow_delay_min.get(name, math.inf):
                        cyc.flow_delay_min[name] = delay
                    if delay > cyc.flow_delay_max.get(name, -math.inf):
                        cyc.flow_delay_max[name] = delay
            if flow == tcp_id:
                ack = rcv.on_data(seq)
                if ack is not None:
                    acks.append((t + tau_ns, ack))

        elif kind == 3:  # ACK at the TCP sender
            ack_seq = acks.popleft()[1]
            before = tcp.cwnd
            if recording:
                occ = occupancy(t)
                add_line(f"{t},{ack_lbl[tcp_id]},{ack_seq},{ACK_SIZE},{occ},{cwnds[tcp_id]}\n")
            sends = tcp.on_ack(ack_seq, t)
            w = tcp.cwnd
            if recording and w != before:
                # only an ACK changes the window: this row and every later
                # TCP row carry the new one
                cwnds[tcp_id] = cwnd = f"{w:.3f}"
                add_line(f"{t},{win_lbl[tcp_id]},{ack_seq},0,{occ},{cwnd}\n")
            if cyc is not None and w < cyc.w_min:
                cyc.w_min = w
            emit_tcp(t, sends)

        else:  # RTO timer
            emit_tcp(t, tcp.on_timeout(t))
            rto_t = t + RTO_NS

        if waiting and queue.in_service is None:
            raise SimulationError(f"link idle at t = {t} ns with {len(waiting)} packets waiting")
        if recording and len(block) >= REC_BLOCK:
            to_csv(block, record)

    # census of packets still inside the system, then per-flow conservation
    in_flight = [0] * len(names)
    for pkt in (*waiting, *deliveries):
        in_flight[pkt[1]] += 1
    if queue.in_service is not None:
        in_flight[queue.in_service[1]] += 1
    for m, inside in zip(metrics, in_flight):
        if m.created_total != m.delivered_total + m.dropped_total + inside:
            raise SimulationError(
                f"flow {m.flow}: {m.created_total} packets created, but "
                f"{m.delivered_total} delivered + {m.dropped_total} dropped "
                f"+ {inside} in flight"
            )

    if recording:
        to_csv(block, record)
    return Trace(
        metrics=dict(zip(names, metrics)),
        cycles=cycles,
        in_flight_end=dict(zip(names, in_flight)),
    )
