"""Deterministic packet-level discrete-event simulator of a single droptail
bottleneck shared by one TCP NewReno source and any number of CBR or
adaptive-sampled sources.

Topology: all sources feed directly into the bottleneck ingress queue
(byte capacity B, droptail); the link serves it FIFO at rate mu and
delivers after a one-way propagation delay tau; the TCP receiver returns
cumulative ACKs (every n-th packet) over an uncongested reverse path with
the same tau. The clock is integer nanoseconds and the engine contains no
randomness, so identical scenarios produce byte-identical traces.

Event ordering at equal timestamps: link completions, then queue
arrivals (lowest flow id, then sequence), then deliveries, then ACK
processing. A source's transmission enters the queue at the same instant
it is emitted (infinite-bandwidth access links).
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count, repeat

from . import sampling
from .scenario import FlowSpec, ScenarioConfig

ACK_SIZE = 40
RTO_NS = 1_000_000_000  # minimal idle-timer retransmit, avoids deadlock only

# event kinds, in tie-break order
EV_LINK_DONE = 0
EV_ARRIVE = 1
EV_DELIVER = 2
EV_ACK = 3
EV_RTO = 4

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

    def service_remaining(self, t: int) -> int:
        if self.in_service is None:
            return 0
        size = self.in_service[2]
        serialized = int((t - self.service_start_ns) * self.bytes_per_ns)
        return size - serialized if serialized < size else 0

    def occupancy(self, t: int) -> int:
        return self.waiting_bytes + self.service_remaining(t)

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

    @property
    def busy(self) -> bool:
        return self.in_service is not None


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
        "flow", "size", "max_burst", "cwnd", "ssthresh", "phase", "next_seq",
        "high_ack", "dup_count", "recover", "ack_credits", "last_progress_ns",
    )

    def __init__(self, flow: int, size: int, n_ack: int = 1):
        self.flow = flow
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

    def _new_sends(self, budget: int | None = None) -> list[tuple[int, bool]]:
        sends = []
        if budget is None:
            budget = self.max_burst
        limit = math.floor(self.cwnd + 1e-9)
        while self.outstanding < limit and len(sends) < budget:
            sends.append((self.next_seq, False))
            self.next_seq += 1
        return sends

    def initial_sends(self) -> list[tuple[int, bool]]:
        return self._new_sends()

    def on_ack(self, ack_seq: int, now_ns: int) -> list[tuple[int, bool]]:
        """Process one cumulative ACK; returns (seq, is_retransmit) to emit now."""
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
                return [(self.high_ack + 1, True)] + self._new_sends(self.max_burst - 1)
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
            return [(self.high_ack + 1, True)]
        return []

    def on_timeout(self, now_ns: int) -> list[tuple[int, bool]]:
        if self.outstanding == 0 or now_ns - self.last_progress_ns < RTO_NS:
            return []
        self.last_progress_ns = now_ns
        return [(self.high_ack + 1, True)]


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
    w_min_mean: float
    period_mean: float
    losses_per_cycle: float
    stationary: bool  # cycle-to-cycle q_min within 10% of the mean

    def observed_d_min(self, flow: str) -> float:
        """Mean over cycles of the per-cycle minimum delay of `flow`, seconds."""
        vals = [c.flow_delay_min[flow] for c in self.cycles if flow in c.flow_delay_min]
        if not vals:
            raise UnknownFlow(flow)
        return sum(vals) / len(vals)

    def observed_d_max(self, flow: str) -> float:
        vals = [c.flow_delay_max[flow] for c in self.cycles if flow in c.flow_delay_max]
        if not vals:
            raise UnknownFlow(flow)
        return sum(vals) / len(vals)


@dataclass
class Trace:
    """Simulation output: metrics, cycle data and (optionally) raw records."""

    config: ScenarioConfig
    duration: float
    warmup: float
    metrics: dict[str, FlowMetrics]
    cycles: list[CycleRecord]
    records: list | None
    queue_min_pw: int | None
    queue_max_pw: int | None
    work_violations: int
    in_flight_end: dict[str, int]
    tcp_flow: str | None

    def to_csv(self) -> str:
        """Raw trace as CSV (requires record=True at run time)."""
        if self.records is None:
            raise SimulationError("trace was run without record=True")
        lines = ["time_ns,event,flow,seq,size_bytes,queue_bytes,cwnd_pkts"]
        names = [f.name for f in self.config.flows]
        for t, code, flow, seq, size, occ, cwnd in self.records:
            cw = f"{cwnd:.3f}" if cwnd is not None else ""
            lines.append(f"{t},{REC_EVENTS[code]},{names[flow]},{seq},{size},{occ},{cw}")
        return "\n".join(lines) + "\n"


def extract_cycles(trace: Trace, min_cycles: int = 2) -> CycleStats:
    """Per-cycle queue statistics; requires >= 3 post-warmup loss events."""
    if trace.tcp_flow is None or len(trace.cycles) < max(min_cycles, 2):
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
        w_min_mean=sum(c.w_min for c in cycles) / len(cycles),
        period_mean=sum(c.period for c in cycles) / len(cycles),
        losses_per_cycle=sum(c.losses for c in cycles) / len(cycles),
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
    media: str
    size: int = 0
    gap_ns: int = 0
    phase_ns: int = 0
    schedule: tuple | None = None  # adaptive: ((t_ns, size, breakdown), ...) before the phase

    def arrivals(self) -> Iterator[tuple[int, int, dict | None]]:
        """A fresh time-ordered iterator of an open-loop source's
        (t_ns, size, breakdown) arrivals."""
        if self.schedule is not None:
            return ((t + self.phase_ns, size, brk) for t, size, brk in self.schedule)
        return zip(count(self.phase_ns, self.gap_ns), repeat(self.size), repeat(None))


@dataclass(frozen=True)
class Simulator:
    """A validated scenario bound to concrete sources; run() executes it for
    at most `horizon` seconds, the span the adaptive schedules cover."""

    config: ScenarioConfig
    sources: tuple[_Source, ...]
    tcp_flow: int | None
    horizon: float


def _adaptive_schedule(flow: FlowSpec, duration: float, seed: int) -> tuple:
    sig_seed = flow.signal.seed if flow.signal.seed else seed
    spec = sampling.SignalSpec(
        kind=flow.signal.kind, amplitude=flow.signal.amplitude, seed=sig_seed
    )
    samples = sampling.synth_haptic_trace(spec, duration)
    flags = sampling.deadband_filter(samples, flow.deadband)
    packets = sampling.vh_mux(flags, flow.video_rate, flow.header)
    return tuple((_ns(p.time), p.size, p.breakdown) for p in packets if p.time < duration)


def build_simulator(config: ScenarioConfig, duration: float | None = None) -> Simulator:
    """Validate the scenario and materialize its traffic sources for a
    horizon of `duration` seconds (default: the scenario's duration).

    Raises ConfigError with a field-level message; in particular the
    aggregate CBR-like rate (including the realized mean rate of adaptive
    flows) must stay below the link capacity when a TCP source is present.
    """
    horizon = duration if duration is not None else config.duration
    if horizon < 0:
        raise ConfigError("duration: must be >= 0")
    sources: list[_Source] = []
    tcp_flow = None
    adaptive_mean = 0.0
    for idx, flow in enumerate(config.flows):
        if flow.kind == "tcp":
            tcp_flow = idx
            size = int(round(flow.packet if flow.packet else config.net.s_tcp))
            sources.append(_Source(idx, "tcp", "tcp-data", size=size))
        elif flow.kind in ("cbr", "telehaptic"):
            media = "haptic" if flow.kind == "telehaptic" else "cbr-cross"
            sources.append(
                _Source(
                    idx, flow.kind, media,
                    size=int(round(flow.packet)),
                    gap_ns=_ns(flow.gap),
                    phase_ns=_ns(flow.phase),
                )
            )
        else:  # adaptive
            sched = _adaptive_schedule(flow, max(horizon, 1e-3), config.seed)
            sources.append(_Source(idx, "adaptive", "haptic", phase_ns=_ns(flow.phase), schedule=sched))
            if horizon > 0 and sched:
                adaptive_mean += sum(s for _, s, _ in sched) / horizon

    if tcp_flow is not None:
        total = config.fixed_cbr_rate + adaptive_mean
        if total >= config.net.mu:
            raise ConfigError(
                f"flows: aggregate CBR rate {total:.6g} B/s (incl. adaptive mean) "
                f">= link capacity {config.net.mu:.6g} B/s with a TCP source present"
            )
    return Simulator(config, tuple(sources), tcp_flow, horizon)


# --------------------------------------------------------------------------
# the event loop


class _Engine:
    def __init__(self, sim: Simulator, duration: float, warmup: float, record: bool):
        cfg = sim.config
        self.sim = sim
        self.duration_ns = _ns(duration)
        self.warmup_ns = _ns(warmup)
        self.ns_per_byte = 1e9 / cfg.net.mu
        self.tau_ns = _ns(cfg.net.tau)
        self.queue = DropTailQueue(int(round(cfg.net.buf)), cfg.net.mu)
        self.heap: list = []
        self.counter = 0
        self.records: list | None = [] if record else None
        self.work_violations = 0

        self.names = [f.name for f in cfg.flows]
        self.flow_media = [s.media for s in sim.sources]
        self.metrics = [FlowMetrics(flow=name) for name in self.names]
        self.queue_min_pw: int | None = None
        self.queue_max_pw: int | None = None

        self.tcp: TcpSource | None = None
        self.rcv: TcpReceiver | None = None
        if sim.tcp_flow is not None:
            self.tcp = TcpSource(sim.tcp_flow, sim.sources[sim.tcp_flow].size, cfg.net.n_ack)
            self.rcv = TcpReceiver(cfg.net.n_ack)
        # the arrival stream of each open-loop flow; None for the TCP flow,
        # whose packets enter through _emit_tcp
        self.arrivals = [
            None if s.flow == sim.tcp_flow else s.arrivals() for s in sim.sources
        ]

        # cycle segmentation at TCP queue-overflow drops; drops closer than
        # one worst-case RTT belong to the same overflow event
        self.merge_gap_ns = _ns(2 * cfg.net.tau + cfg.net.buf / cfg.net.mu)
        self.last_tcp_drop_ns: int | None = None
        self.cycles: list[CycleRecord] = []
        self.cur_cycle: CycleRecord | None = None

    # -- helpers ----------------------------------------------------------

    def _push(self, t: int, kind: int, sub: int, payload) -> None:
        self.counter += 1
        heappush(self.heap, (t, kind, sub, self.counter, payload))

    def _push_arrival(self, flow: int, seq: int) -> None:
        """Schedule the next packet of an open-loop flow, if it falls in the run."""
        nxt = next(self.arrivals[flow], None)
        if nxt is not None and nxt[0] <= self.duration_ns:
            t, size, breakdown = nxt
            self._push(t, EV_ARRIVE, flow, (flow, seq, size, t, breakdown))

    def _record(self, t, code, flow, seq, size, occ):
        if self.records is not None:
            cwnd = self.tcp.cwnd if (self.tcp and flow == self.tcp.flow) else None
            self.records.append((t, code, flow, seq, size, occ, cwnd))

    def _note_queue(self, t: int) -> int:
        occ = self.queue.occupancy(t)
        if occ > self.queue.capacity:
            raise SimulationError("queue occupancy exceeded capacity")
        if t >= self.warmup_ns:
            if self.queue_min_pw is None or occ < self.queue_min_pw:
                self.queue_min_pw = occ
            if self.queue_max_pw is None or occ > self.queue_max_pw:
                self.queue_max_pw = occ
        cyc = self.cur_cycle
        if cyc is not None:
            if occ < cyc.q_min:
                cyc.q_min = occ
            if occ > cyc.q_max:
                cyc.q_max = occ
        return occ

    def _start_service(self, t: int) -> None:
        pkt = self.queue.start_next(t)
        self._push(t + int(pkt[2] * self.ns_per_byte + 0.5), EV_LINK_DONE, 0, None)

    def _close_cycle(self, t: int) -> None:
        cyc = self.cur_cycle
        if cyc is not None and cyc.start_ns >= self.warmup_ns:
            cyc.end_ns = t
            self.cycles.append(cyc)
        occ = self.queue.occupancy(t)
        self.cur_cycle = CycleRecord(
            start_ns=t, end_ns=t, q_min=occ, q_max=occ,
            w_min=self.tcp.cwnd if self.tcp else 0.0, losses=1,
            flow_delay_min={}, flow_delay_max={},
        )

    def _tcp_drop(self, t: int) -> None:
        if self.last_tcp_drop_ns is not None and t - self.last_tcp_drop_ns <= self.merge_gap_ns:
            if self.cur_cycle is not None:
                self.cur_cycle.losses += 1
        else:
            self._close_cycle(t)
        self.last_tcp_drop_ns = t

    def _emit_tcp(self, t: int, sends: list[tuple[int, bool]]) -> None:
        tcp = self.tcp
        for seq, _retx in sends:
            pkt = (tcp.flow, seq, tcp.size, t, None)
            self._record(t, REC_SEND, tcp.flow, seq, tcp.size, self.queue.occupancy(t))
            self._push(t, EV_ARRIVE, tcp.flow, pkt)

    # -- event handlers ----------------------------------------------------

    def _handle_arrive(self, t: int, pkt) -> None:
        flow, seq, size, _created, breakdown = pkt
        m = self.metrics[flow]
        m.created_total += 1
        pw = t >= self.warmup_ns
        if pw:
            m.created += 1
        if self.arrivals[flow] is not None:
            self._push_arrival(flow, seq + 1)
            self._record(t, REC_SEND, flow, seq, size, self.queue.occupancy(t))

        if self.queue.offer(pkt, t):
            occ = self._note_queue(t)
            self._record(t, REC_ENQ, flow, seq, size, occ)
            if not self.queue.busy:
                self._start_service(t)
        else:
            m.dropped_total += 1
            if pw:
                m.dropped += 1
                for tag, nbytes in (breakdown or {self.flow_media[flow]: size}).items():
                    m.media_bytes[tag] = m.media_bytes.get(tag, 0.0) + nbytes
                    m.media_dropped_bytes[tag] = m.media_dropped_bytes.get(tag, 0.0) + nbytes
            self._record(t, REC_DROP, flow, seq, size, self.queue.occupancy(t))
            if self.tcp is not None and flow == self.tcp.flow:
                self._tcp_drop(t)

    def _handle_link_done(self, t: int) -> None:
        pkt = self.queue.finish_service()
        occ = self._note_queue(t)
        self._record(t, REC_DEQ, pkt[0], pkt[1], pkt[2], occ)
        self._push(t + self.tau_ns, EV_DELIVER, pkt[0], pkt)
        if self.queue.packets:
            self._start_service(t)

    def _handle_deliver(self, t: int, pkt) -> None:
        flow, seq, size, created, breakdown = pkt
        m = self.metrics[flow]
        m.delivered_total += 1
        self._record(t, REC_DELIV, flow, seq, size, self.queue.occupancy(t))
        if t >= self.warmup_ns:
            m.delivered += 1
            for tag, nbytes in (breakdown or {self.flow_media[flow]: size}).items():
                m.media_bytes[tag] = m.media_bytes.get(tag, 0.0) + nbytes
            delay_ns = t - created
            delay = delay_ns / 1e9
            if m.min_delay is None or delay < m.min_delay:
                m.min_delay = delay
            if m.max_delay is None or delay > m.max_delay:
                m.max_delay = delay
            if m.last_delay is not None:
                jit = delay - m.last_delay
                if jit > m.max_positive_jitter:
                    m.max_positive_jitter = jit
            m.last_delay = delay
            cyc = self.cur_cycle
            if cyc is not None:
                name = self.names[flow]
                cur = cyc.flow_delay_min.get(name)
                if cur is None or delay < cur:
                    cyc.flow_delay_min[name] = delay
                cur = cyc.flow_delay_max.get(name)
                if cur is None or delay > cur:
                    cyc.flow_delay_max[name] = delay

        if self.rcv is not None and flow == self.tcp.flow:
            ack = self.rcv.on_data(seq)
            if ack is not None:
                self._push(t + self.tau_ns, EV_ACK, flow, ack)

    def _handle_ack(self, t: int, ack_seq: int) -> None:
        tcp = self.tcp
        before = tcp.cwnd
        self._record(t, REC_ACK, tcp.flow, ack_seq, ACK_SIZE, self.queue.occupancy(t))
        sends = tcp.on_ack(ack_seq, t)
        if tcp.cwnd != before:
            self._record(t, REC_WIN, tcp.flow, ack_seq, 0, self.queue.occupancy(t))
        cyc = self.cur_cycle
        if cyc is not None and tcp.cwnd < cyc.w_min:
            cyc.w_min = tcp.cwnd
        self._emit_tcp(t, sends)

    # -- main loop ----------------------------------------------------------

    def execute(self) -> Trace:
        if self.duration_ns > 0:
            for flow, arrivals in enumerate(self.arrivals):
                if arrivals is not None:
                    self._push_arrival(flow, 0)
            if self.tcp is not None:
                self._emit_tcp(0, self.tcp.initial_sends())
                self._push(RTO_NS, EV_RTO, 0, None)

        heap = self.heap
        duration_ns = self.duration_ns
        while heap:
            if heap[0][0] > duration_ns:
                break
            t, kind, sub, _cnt, payload = heappop(heap)
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
                nxt = t + RTO_NS
                if nxt <= duration_ns:
                    self._push(nxt, EV_RTO, 0, None)
            if self.queue.packets and not self.queue.busy:
                self.work_violations += 1

        # census of packets still inside the system, for conservation checks
        names = self.names
        in_flight = {name: 0 for name in names}
        for pkt in self.queue.packets:
            in_flight[names[pkt[0]]] += 1
        if self.queue.in_service is not None:
            in_flight[names[self.queue.in_service[0]]] += 1
        for t, kind, _sub, _cnt, payload in heap:
            if kind == EV_DELIVER:
                in_flight[names[payload[0]]] += 1

        tcp_flow = self.sim.tcp_flow
        return Trace(
            config=self.sim.config,
            duration=self.duration_ns / 1e9,
            warmup=self.warmup_ns / 1e9,
            metrics={names[i]: m for i, m in enumerate(self.metrics)},
            cycles=self.cycles,
            records=self.records,
            queue_min_pw=self.queue_min_pw,
            queue_max_pw=self.queue_max_pw,
            work_violations=self.work_violations,
            in_flight_end=in_flight,
            tcp_flow=names[tcp_flow] if tcp_flow is not None else None,
        )


def run(
    sim: Simulator,
    duration: float | None = None,
    warmup: float | None = None,
    record: bool = False,
) -> Trace:
    """Execute the simulation deterministically.

    duration/warmup default to the scenario's run settings; metrics cover
    only events past the warmup, raw records (record=True) cover everything.
    The duration may not exceed the horizon the simulator was built for.
    """
    cfg = sim.config
    if duration is None:
        duration = cfg.duration
    if warmup is None:
        warmup = cfg.effective_warmup if duration == cfg.duration else min(
            cfg.effective_warmup, duration
        )
    if duration < 0 or warmup < 0 or warmup > duration:
        raise ConfigError("run: need duration >= warmup >= 0")
    if duration > sim.horizon:
        raise ConfigError(
            f"run: duration {duration:g} s exceeds the simulator's horizon "
            f"{sim.horizon:g} s; build it with build_simulator(config, {duration:g})"
        )
    return _Engine(sim, duration, warmup, record).execute()
