"""Closed-form model of a TCP flow sharing a droptail bottleneck with CBR traffic.

A single long-lived TCP NewReno flow plus aggregate CBR traffic of rate R
on a link of capacity mu with one-way propagation delay tau and a byte
queue of capacity B settles into a periodic cycle: the congestion window
grows by one packet per round trip ("slot") until the queue overflows,
the source halves its window during fast retransmit/fast recovery, and
the cycle repeats. With alpha = R/mu the cycle is characterized by

    W_min  = (B + 2*mu*tau) * (1 - alpha) / (2 * S_tcp)
    Q_init = (B + 2*mu*tau) * (1 + alpha) / 2 - 2*mu*tau
    c      = W_min + 1                      (slots per cycle)

and the queue occupancy at the start of slot i evolves as

    Q(i) = Q_init * alpha^(i-1)
         + (B - 2*mu*tau) * (1 - alpha^(i-1)) / 2
         + S_tcp * sum_{j=0}^{i-3} (i-2-j) * alpha^j      (empty sum for i <= 2)

which is unimodal over a cycle: it first drains for c1 slots down to
Q_min and then builds back up to B. CBR packet delay then ranges over
[tau + Q_min/mu, tau + B/mu], and the worst positive jitter follows from
the largest ACK-triggered TCP burst that can land between two consecutive
CBR packets.

Everything here is a pure function of value types; bytes and seconds
throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ScenarioError(ValueError):
    """A configuration teleqos cannot analyze or run."""


class ScenarioSemanticError(ScenarioError):
    """A well-formed configuration whose values are inconsistent or out of range."""


class InvalidParams(ScenarioSemanticError):
    """Raised when inputs violate a model precondition."""


class SlotIndexError(IndexError):
    """Raised when a slot index lies outside [1, ceil(c)]."""


# --------------------------------------------------------------------------
# domain types


def _require_finite(params) -> None:
    """Raise InvalidParams naming the first non-finite field of a value type."""
    for name, value in vars(params).items():
        if not math.isfinite(value):
            raise InvalidParams(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class NetworkParams:
    """Bottleneck link and TCP source parameters.

    mu:    link capacity, bytes/second
    tau:   one-way propagation delay, seconds
    buf:   queue capacity B, bytes
    s_tcp: TCP packet size, bytes
    n_ack: cumulative-ACK factor (receiver ACKs every n-th packet)
    """

    mu: float
    tau: float
    buf: float
    s_tcp: float
    n_ack: int = 1

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.mu <= 0:
            raise InvalidParams(f"link capacity must be positive, got {self.mu}")
        if self.tau < 0:
            raise InvalidParams(f"propagation delay must be >= 0, got {self.tau}")
        if self.buf <= 0:
            raise InvalidParams(f"queue capacity must be positive, got {self.buf}")
        if self.s_tcp <= 0:
            raise InvalidParams(f"TCP packet size must be positive, got {self.s_tcp}")
        if self.n_ack < 1:
            raise InvalidParams(f"cumulative-ACK factor must be >= 1, got {self.n_ack}")

    @property
    def bdp(self) -> float:
        """Bandwidth-delay product 2*mu*tau, bytes."""
        return 2.0 * self.mu * self.tau


@dataclass(frozen=True)
class CbrAggregate:
    """Aggregate CBR traffic rate R (bytes/second) seen by the TCP source."""

    rate_total: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.rate_total < 0:
            raise InvalidParams(f"CBR rate must be >= 0, got {self.rate_total}")

    def alpha(self, net: NetworkParams) -> float:
        """Load ratio R/mu; must be < 1 for a sustainable TCP flow."""
        a = self.rate_total / net.mu
        if a >= 1.0:
            raise InvalidParams(
                f"aggregate CBR rate {self.rate_total} B/s >= link capacity {net.mu} B/s"
            )
        return a


@dataclass(frozen=True)
class CycleSolution:
    """Steady-state cycle characterization of the queue/window sawtooth."""

    w_min: float   # minimum congestion window, packets (real-valued)
    q_init: float  # occupancy at the start of congestion avoidance, bytes
    c: float       # slots per cycle (real-valued)
    c1: int        # slots in the draining region
    q_min: float   # minimum occupancy over the cycle, bytes
    q_max: float   # maximum occupancy, always the queue capacity, bytes

    def __post_init__(self) -> None:
        if not (self.q_min <= self.q_init + 1e-9 <= self.q_max + 1e-9):
            raise InvalidParams(
                f"inconsistent cycle: q_min={self.q_min} q_init={self.q_init} q_max={self.q_max}"
            )
        if not (0 <= self.c1 <= self.c):
            raise InvalidParams(f"drain slot count {self.c1} outside [0, {self.c}]")


@dataclass(frozen=True)
class HapticFlowSpec:
    """One telehaptic CBR stream plus the CBR cross-traffic it shares the link with.

    rate_h * gap_h must equal pkt_h: a CBR stream emits exactly one packet
    per inter-packet gap.
    """

    rate_h: float     # telehaptic rate, bytes/second
    gap_h: float      # telehaptic inter-packet gap, seconds
    pkt_h: float      # telehaptic packet size, bytes
    rate_cross: float  # CBR cross-traffic rate, bytes/second
    pkt_cross: float   # CBR cross-traffic packet size, bytes

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.rate_h <= 0 or self.gap_h <= 0 or self.pkt_h <= 0:
            raise InvalidParams("telehaptic rate, gap and packet size must be positive")
        if self.rate_cross < 0:
            raise InvalidParams("cross-traffic rate must be >= 0")
        if self.rate_cross > 0 and self.pkt_cross <= 0:
            raise InvalidParams("cross-traffic packet size must be positive")
        if not math.isclose(self.rate_h * self.gap_h, self.pkt_h, rel_tol=1e-6):
            raise InvalidParams(
                f"rate_h*gap_h = {self.rate_h * self.gap_h:.6g} B does not match "
                f"pkt_h = {self.pkt_h:.6g} B (one packet per gap)"
            )

    @property
    def rate_total(self) -> float:
        return self.rate_h + self.rate_cross


@dataclass(frozen=True)
class MediaQos:
    """QoS limits for one media type: delay/jitter in seconds, loss as a fraction."""

    delay: float
    jitter: float
    loss: float

    def __post_init__(self) -> None:
        _require_finite(self)


@dataclass(frozen=True)
class QosSpec:
    """Per-media QoS limits; defaults are the telehaptic requirements."""

    haptic: MediaQos = MediaQos(delay=0.030, jitter=0.010, loss=0.10)
    audio: MediaQos = MediaQos(delay=0.150, jitter=0.030, loss=0.01)
    video: MediaQos = MediaQos(delay=0.400, jitter=0.030, loss=0.01)

    def __post_init__(self) -> None:
        for media, limits in vars(self).items():
            for key, value in vars(limits).items():
                if value < 0:
                    raise InvalidParams(f"{media}_{key} must be >= 0, got {value}")


@dataclass(frozen=True)
class AvMuxSpec:
    """Audio/video multiplexing parameters.

    s_a: audio frame size, bytes
    s_m: per-packet audio/video fragment size, bytes
    f_v: video frame rate, 1/second
    """

    s_a: float
    s_m: float
    f_v: float

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.s_a <= 0 or self.s_m <= 0 or self.f_v <= 0:
            raise InvalidParams("mux parameters must be positive")


@dataclass(frozen=True)
class ValidityFlags:
    """Independent model-validity conditions. R < mu is no flag: it is
    qos_check's stability condition, and CbrAggregate.alpha rejects R >= mu.

    full_utilization: B > 2*mu*tau (the queue never empties)
    single_loss:      R <= 0.65*mu (empirical region where exactly one
                      packet is lost per cycle; d_min is unreliable
                      outside it, d_max stays accurate)
    """

    full_utilization: bool
    single_loss: bool


@dataclass
class ConditionResult:
    """One compliance condition verdict. passed=None means not evaluated."""

    name: str
    passed: bool | None
    hard: bool = True
    value: float | None = None
    limit: float | None = None
    note: str = ""
    unit: str = ""  # of value and limit: "s", "B", "B/s", or "" for a fraction


@dataclass
class ComplianceReport:
    """Ordered per-condition verdicts plus the model-validity flags."""

    conditions: list[ConditionResult]
    validity: ValidityFlags

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.conditions if c.hard and c.passed is not None)

    def condition(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


# --------------------------------------------------------------------------
# cycle characterization


def w_min(net: NetworkParams, cbr: CbrAggregate) -> float:
    """Minimum congestion window over a cycle, packets (real-valued)."""
    a = cbr.alpha(net)
    return (net.buf + net.bdp) * (1.0 - a) / (2.0 * net.s_tcp)


def q_init(net: NetworkParams, cbr: CbrAggregate) -> float:
    """Queue occupancy at the start of congestion avoidance, bytes.

    Equals buf - w_min*s_tcp (the overflow drains exactly one window's
    worth of TCP data during recovery); both forms agree identically.
    """
    a = cbr.alpha(net)
    return (net.buf + net.bdp) * (1.0 + a) / 2.0 - net.bdp


def slots_per_cycle(net: NetworkParams, cbr: CbrAggregate) -> float:
    """Number of congestion-avoidance slots per cycle, real-valued (= w_min + 1)."""
    return w_min(net, cbr) + 1.0


def queue_at_slot(net: NetworkParams, cbr: CbrAggregate, i: int) -> float:
    """Queue occupancy at the start of slot i (1-based), bytes.

    Valid for 1 <= i <= ceil(slots_per_cycle); the summation term is empty
    for i <= 2, and Q(1) = q_init.
    """
    last = math.ceil(slots_per_cycle(net, cbr))
    if not 1 <= i <= last:
        raise SlotIndexError(f"slot index {i} outside [1, {last}]")
    a = cbr.alpha(net)
    decay = a ** (i - 1)
    build = sum((i - 2 - j) * a**j for j in range(i - 2))
    return q_init(net, cbr) * decay + (net.buf - net.bdp) * (1.0 - decay) / 2.0 + net.s_tcp * build


def solve_q_min(net: NetworkParams, cbr: CbrAggregate) -> tuple[float, int]:
    """Minimum queue occupancy over a cycle and the drain slot count c1.

    Q(.) is unimodal over a cycle, so the minimum is found by scanning the
    integer slot starts i in [1, ceil(c)]; c1 = argmin - 1, ties broken
    toward the smaller slot index. The scan uses an incremental update of
    the same closed form evaluated by queue_at_slot. Since q_init >= mid =
    (B - 2*mu*tau)/2, Q(i) >= mid + S_tcp * sum_{j<i-2} (i-2-j) alpha^j, a
    floor that only grows with i; the scan stops once the floor reaches the
    bar a new minimum must pass, a few slots past the minimum instead of
    all ceil(c), which grows with the buffer.
    """
    a = cbr.alpha(net)
    qi = q_init(net, cbr)
    mid = (net.buf - net.bdp) / 2.0
    last = math.ceil(slots_per_cycle(net, cbr))

    best = qi
    best_i = 1
    decay = 1.0   # alpha^(i-1)
    geom = 0.0    # sum_{j=0}^{i-2} alpha^j
    build = 0.0   # sum_{j=0}^{i-3} (i-2-j) alpha^j
    for i in range(2, last + 1):
        # advancing i by one adds one geometric prefix to the build-up sum
        geom += decay
        decay *= a
        build += geom
        rise = net.s_tcp * (build - geom)
        q = qi * decay + mid * (1.0 - decay) + rise
        # ties (within float noise) go to the smaller slot index
        bar = best - 1e-9 * max(1.0, abs(best))
        if q < bar:
            best = q
            best_i = i
        elif mid + rise >= bar:  # the floor: no later slot gets under the bar
            break
    return best, best_i - 1


def solve_cycle(net: NetworkParams, cbr: CbrAggregate) -> CycleSolution:
    """Full steady-state cycle characterization (Q_max is the queue capacity)."""
    qm, c1 = solve_q_min(net, cbr)
    return CycleSolution(
        w_min=w_min(net, cbr),
        q_init=q_init(net, cbr),
        c=slots_per_cycle(net, cbr),
        c1=c1,
        q_min=qm,
        q_max=net.buf,
    )


# --------------------------------------------------------------------------
# delay and jitter bounds


def delay_bounds(net: NetworkParams, cbr: CbrAggregate) -> tuple[float, float]:
    """(d_min, d_max) end-to-end delay bounds for CBR packets, seconds.

    d_min = tau + Q_min/mu and d_max = tau + B/mu; the upper bound does not
    depend on the CBR rate at all.
    """
    qm, _ = solve_q_min(net, cbr)
    return net.tau + qm / net.mu, net.tau + net.buf / net.mu


def m_tcp_max(net: NetworkParams, cbr: CbrAggregate, interval: float) -> int:
    """Maximum TCP packets transmittable within a window of length `interval`.

    The source transmits n-packet bursts spaced n*S_tcp/(mu-R) apart, except
    at a slot boundary where an n-burst and an (n+1)-burst arrive only
    n*S_tcp/mu apart (the cumulative ACK of a probing packet follows its
    predecessor at the back-to-back service spacing). Hence

        m_tcp = n + 1 + n * (1 + floor((T - n*S/mu) / (n*S/(mu-R)))) * [T > n*S/mu]
    """
    if not 0 < interval < math.inf:
        raise InvalidParams(f"interval must be positive and finite, got {interval}")
    cbr.alpha(net)  # validates R < mu
    n = net.n_ack
    boundary_gap = n * net.s_tcp / net.mu
    if interval <= boundary_gap:
        return n + 1
    burst_gap = n * net.s_tcp / (net.mu - cbr.rate_total)
    extra = 1 + math.floor((interval - boundary_gap) / burst_gap)
    return n + 1 + n * extra


def cbr_jitter_max(net: NetworkParams, cbr: CbrAggregate, t_cbr: float) -> float:
    """Worst positive inter-packet delay increase for a CBR stream, seconds.

    (m_tcp*S_tcp + R*T_cbr - mu*T_cbr) / mu: the largest TCP burst plus the
    stream's own traffic injected between two consecutive packets, minus the
    drain over that gap. May be <= 0, meaning no positive jitter.
    """
    m = m_tcp_max(net, cbr, t_cbr)
    return (m * net.s_tcp + cbr.rate_total * t_cbr) / net.mu - t_cbr


def haptic_jitter_max(net: NetworkParams, h: HapticFlowSpec) -> float:
    """Worst positive jitter for the telehaptic stream under mixed cross-traffic.

    Between two telehaptic packets the queue can additionally absorb
    m_cross = ceil(R_cross*T_h/S_cross) cross-traffic packets, so

        jitter = (m_tcp*S_tcp + m_cross*S_cross + R_h*T_h) / mu - T_h

    where m_tcp is evaluated at the aggregate CBR rate R_h + R_cross.
    With no cross traffic this reduces exactly to cbr_jitter_max.
    """
    agg = CbrAggregate(h.rate_total)
    m_tcp = m_tcp_max(net, agg, h.gap_h)
    m_cross = math.ceil(h.rate_cross * h.gap_h / h.pkt_cross) if h.rate_cross > 0 else 0
    injected = m_tcp * net.s_tcp + m_cross * h.pkt_cross + h.rate_h * h.gap_h
    return injected / net.mu - h.gap_h


def av_delay_bounds(mux: AvMuxSpec, t_h: float, haptic_deadline: float) -> tuple[float, float]:
    """Worst-case audio and video frame delays given a met haptic deadline.

    One s_m-byte audio/video fragment rides along with every telehaptic
    packet (audio strictly prioritized), so an s_a-byte audio frame takes
    s_a/s_m packet gaps to trickle out; a video frame is bounded by its own
    frame interval:

        d_aud = deadline + (s_a/s_m) * T_h
        d_vid = deadline + 1/f_v
    """
    if not 0 < t_h < math.inf:
        raise InvalidParams(f"inter-packet gap must be positive and finite, got {t_h}")
    if not math.isfinite(haptic_deadline):
        raise InvalidParams(f"haptic deadline must be finite, got {haptic_deadline}")
    if haptic_deadline < 0:
        raise InvalidParams(f"haptic deadline must be >= 0, got {haptic_deadline}")
    d_aud = haptic_deadline + (mux.s_a / mux.s_m) * t_h
    d_vid = haptic_deadline + 1.0 / mux.f_v
    return d_aud, d_vid


SINGLE_LOSS_LOAD_LIMIT = 0.65  # empirical upper bound on R/mu for one loss per cycle


def validity_check(net: NetworkParams, cbr: CbrAggregate) -> ValidityFlags:
    """Evaluate the two model-validity conditions (flags, never failures)."""
    return ValidityFlags(
        full_utilization=net.buf > net.bdp,
        single_loss=cbr.rate_total <= SINGLE_LOSS_LOAD_LIMIT * net.mu,
    )


# --------------------------------------------------------------------------
# compliance


def _under(name: str, value: float, limit: float, unit: str, hard: bool = True,
           note: str = "") -> ConditionResult:
    """The verdict of a closed-form condition: value strictly below limit."""
    return ConditionResult(name, passed=value < limit, hard=hard, value=value, limit=limit,
                           note=note, unit=unit)


def qos_check(
    net: NetworkParams,
    h: HapticFlowSpec,
    qos: QosSpec | None = None,
    mux: AvMuxSpec | None = None,
) -> ComplianceReport:
    """Evaluate the analytic QoS sufficiency conditions for a telehaptic flow.

    Conditions, in order: CBR aggregate below capacity; worst haptic delay
    tau + B/mu under the haptic delay limit; worst haptic jitter under the
    jitter limit; telehaptic packets smaller than TCP packets (a loss-risk
    warning, not a hard failure); audio and video worst-case delays under
    their limits (evaluated when mux parameters are given). Packet loss has
    no closed form here; simulation fills those verdicts in.
    """
    qos = qos or QosSpec()
    flags = validity_check(net, CbrAggregate(h.rate_total))
    stability = _under("stability", h.rate_total, net.mu, "B/s",
                       note="aggregate CBR rate below link capacity")
    conditions = [stability, _under("haptic_delay", net.tau + net.buf / net.mu, qos.haptic.delay, "s")]
    if stability.passed:
        conditions.append(_under("haptic_jitter", haptic_jitter_max(net, h), qos.haptic.jitter, "s"))
    else:
        conditions.append(
            ConditionResult("haptic_jitter", passed=None, note="not evaluated: unstable configuration")
        )
    # "small relative to the TCP packets": comparable sizes (e.g. 566 B vs
    # 578 B) must raise the flag, so the threshold is half the TCP size
    conditions.append(_under(
        "packet_size", h.pkt_h, 0.5 * net.s_tcp, "B", hard=False,
        note="telehaptic packets comparable to TCP packets risk droptail losses",
    ))
    if mux is not None:
        d_aud, d_vid = av_delay_bounds(mux, h.gap_h, qos.haptic.delay)
        conditions += [_under("audio_delay", d_aud, qos.audio.delay, "s"),
                       _under("video_delay", d_vid, qos.video.delay, "s")]
    return ComplianceReport(conditions=conditions, validity=flags)
