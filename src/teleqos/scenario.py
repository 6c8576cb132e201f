"""Scenario configuration: sectioned key=value text with mandatory unit suffixes.

Format::

    [network]
    mu = 6 Mbps
    tau = 8 ms
    buf = 14 kB
    s_tcp = 578 B
    n_ack = 1

    [flow.media]            # one section per traffic source
    kind = telehaptic       # tcp | cbr | telehaptic | adaptive
    rate = 1.096 Mbps
    packet = 137 B
    gap = 1 ms

    [qos]                   # optional per-media limit overrides
    haptic_delay = 30 ms

    [mux]                   # optional audio/video multiplexing parameters
    s_a = 160 B
    s_m = 58 B
    f_v = 25 Hz

    [run]
    duration = 60 s
    warmup = 20 s
    seed = 1

Dimensioned values must carry a unit suffix; loss limits and the deadband
fraction are dimensionless and written bare (or with %). Unknown keys and
duplicate sections are rejected with the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources

from . import units
from .model import AvMuxSpec, MediaQos, NetworkParams, QosSpec
from .sampling import DEFAULT_HEADER, SignalSpec

FLOW_KINDS = ("tcp", "cbr", "telehaptic", "adaptive")


class ScenarioError(ValueError):
    pass


class ScenarioParseError(ScenarioError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ScenarioSemanticError(ScenarioError):
    pass


@dataclass(frozen=True)
class FlowSpec:
    """One traffic source.

    Fixed-rate kinds (cbr, telehaptic) need rate and packet; gap defaults
    to packet/rate. Adaptive flows are driven by a deadband-filtered
    synthetic signal multiplexed with video; each of their packets carries
    a positive header (default DEFAULT_HEADER). TCP flows send s_tcp-byte
    packets from the network parameters and start at time 0. A key the
    flow's kind does not use is rejected rather than ignored.
    """

    name: str
    kind: str
    rate: float | None = None       # bytes/second
    packet: float | None = None     # bytes
    gap: float | None = None        # seconds
    phase: float = 0.0              # seconds
    deadband: float | None = None
    video_rate: float | None = None  # bytes/second
    header: float | None = None     # bytes; adaptive default DEFAULT_HEADER
    signal: SignalSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in FLOW_KINDS:
            raise ScenarioSemanticError(f"flow {self.name!r}: unknown kind {self.kind!r}")
        for key in ("rate", "packet", "gap", "phase", "video_rate", "header"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ScenarioSemanticError(f"flow {self.name!r}: {key} must be finite, got {value}")
        if self.phase < 0:
            raise ScenarioSemanticError(f"flow {self.name!r}: phase must be >= 0")
        # a key the kind does not use is an error, never silently ignored
        unused = ("rate", "packet", "gap") if self.kind in ("tcp", "adaptive") else ()
        if self.kind != "adaptive":
            unused += ("deadband", "video_rate", "header", "signal")
        if self.kind == "tcp" and self.phase:
            unused += ("phase",)
        for key in unused:
            if getattr(self, key) is not None:
                raise ScenarioSemanticError(f"flow {self.name!r}: a {self.kind} flow takes no {key}")
        if self.kind in ("cbr", "telehaptic"):
            if self.rate is None or self.rate <= 0:
                raise ScenarioSemanticError(f"flow {self.name!r}: needs a positive rate")
            if self.packet is None or self.packet <= 0:
                raise ScenarioSemanticError(f"flow {self.name!r}: needs a positive packet size")
            gap = self.gap if self.gap is not None else self.packet / self.rate
            object.__setattr__(self, "gap", gap)
            if abs(self.rate * gap - self.packet) > 1e-6 * self.packet:
                raise ScenarioSemanticError(
                    f"flow {self.name!r}: rate*gap = {self.rate * gap:.6g} B "
                    f"does not equal the packet size {self.packet:.6g} B"
                )
        elif self.kind == "adaptive":
            if self.deadband is None or not 0 < self.deadband < 1:
                raise ScenarioSemanticError(
                    f"flow {self.name!r}: adaptive flows need deadband in (0, 1)"
                )
            if self.video_rate is None or self.video_rate <= 0:
                raise ScenarioSemanticError(
                    f"flow {self.name!r}: adaptive flows need a positive video_rate"
                )
            if self.header is None:
                object.__setattr__(self, "header", DEFAULT_HEADER)
            if self.header <= 0:
                raise ScenarioSemanticError(f"flow {self.name!r}: header must be positive")
            if self.signal is None:
                object.__setattr__(self, "signal", SignalSpec())


def default_warmup(duration: float) -> float:
    """Warmup to discard when none is configured: 10% of the run, at least
    20 s, never more than half the run."""
    return min(max(0.1 * duration, 20.0), 0.5 * duration)


@dataclass(frozen=True)
class ScenarioConfig:
    net: NetworkParams
    flows: tuple[FlowSpec, ...]
    qos: QosSpec = QosSpec()
    mux: AvMuxSpec | None = None
    duration: float = 60.0
    warmup: float | None = None
    seed: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.duration) or (
            self.warmup is not None and not math.isfinite(self.warmup)
        ):
            raise ScenarioSemanticError("duration and warmup must be finite")
        if self.duration < 0:
            raise ScenarioSemanticError("duration must be >= 0")
        if self.warmup is not None and not 0 <= self.warmup <= self.duration:
            raise ScenarioSemanticError("warmup must lie within [0, duration]")
        names = [f.name for f in self.flows]
        if len(set(names)) != len(names):
            raise ScenarioSemanticError("duplicate flow names")
        if sum(1 for f in self.flows if f.kind == "tcp") > 1:
            raise ScenarioSemanticError("at most one TCP source is supported")
        if any(f.kind == "tcp" for f in self.flows):
            fixed = self.fixed_cbr_rate
            if fixed >= self.net.mu:
                raise ScenarioSemanticError(
                    f"aggregate CBR rate {fixed:.6g} B/s must stay below the link "
                    f"capacity {self.net.mu:.6g} B/s when a TCP source is present"
                )

    @property
    def fixed_cbr_rate(self) -> float:
        """Aggregate rate of the fixed-rate (cbr/telehaptic) flows, bytes/s."""
        return sum(f.rate for f in self.flows if f.kind in ("cbr", "telehaptic"))

    @property
    def effective_warmup(self) -> float:
        return self.warmup if self.warmup is not None else default_warmup(self.duration)

    def flow(self, name: str) -> FlowSpec:
        for f in self.flows:
            if f.name == name:
                return f
        raise KeyError(name)

    def with_flow_rate(self, name: str, rate: float) -> "ScenarioConfig":
        """Copy with one fixed-rate flow's rate replaced (gap kept, packet rescaled)."""
        flows = []
        for f in self.flows:
            if f.name == name:
                if f.kind not in ("cbr", "telehaptic"):
                    raise ScenarioSemanticError(f"flow {name!r} has no fixed rate to sweep")
                flows.append(replace(f, rate=rate, packet=f.packet, gap=f.packet / rate))
            else:
                flows.append(f)
        return replace(self, flows=tuple(flows))


# --------------------------------------------------------------------------
# parsing

_NETWORK_KEYS = {"mu", "tau", "buf", "s_tcp", "n_ack"}
_FLOW_KEYS = {
    "kind", "rate", "packet", "gap", "phase",
    "deadband", "video_rate", "header", "signal", "amplitude", "signal_seed",
}
_QOS_KEYS = {
    f"{media}_{metric}"
    for media in ("haptic", "audio", "video")
    for metric in ("delay", "jitter", "loss")
}
_MUX_KEYS = {"s_a", "s_m", "f_v"}
_RUN_KEYS = {"duration", "warmup", "seed"}


def _split_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: dict[str, tuple[str, int]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioParseError(lineno, f"malformed section header {raw.strip()!r}")
            name = line[1:-1].strip()
            if not name:
                raise ScenarioParseError(lineno, "empty section name")
            if name in sections:
                raise ScenarioParseError(lineno, f"duplicate section [{name}]")
            current = {}
            sections[name] = current
            continue
        if "=" not in line:
            raise ScenarioParseError(lineno, f"expected key = value, got {raw.strip()!r}")
        if current is None:
            raise ScenarioParseError(lineno, "key outside of any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ScenarioParseError(lineno, f"expected key = value, got {raw.strip()!r}")
        if key in current:
            raise ScenarioParseError(lineno, f"duplicate key {key!r}")
        current[key] = (value, lineno)
    return sections


def _take(
    body: dict[str, tuple[str, int]],
    key: str,
    parser,
    *,
    required: bool = False,
    default=None,
    section: str = "",
):
    if key not in body:
        if required:
            raise ScenarioSemanticError(f"[{section}] is missing required key {key!r}")
        return default
    value, lineno = body.pop(key)
    try:
        return parser(value)
    except ValueError as exc:
        raise ScenarioParseError(lineno, f"{key}: {exc}") from None


def _reject_unknown(section: str, body: dict[str, tuple[str, int]], allowed: set[str]) -> None:
    for key, (_, lineno) in body.items():
        if key not in allowed:
            raise ScenarioParseError(lineno, f"unknown key {key!r} in section [{section}]")


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text; raises ScenarioParseError (with line number) on
    malformed input and ScenarioSemanticError on inconsistent configurations."""
    sections = _split_sections(text)

    if "network" not in sections:
        raise ScenarioSemanticError("missing [network] section")
    body = sections.pop("network")
    _reject_unknown("network", body, _NETWORK_KEYS)
    net = NetworkParams(
        mu=_take(body, "mu", units.parse_rate, required=True, section="network"),
        tau=_take(body, "tau", units.parse_time, required=True, section="network"),
        buf=_take(body, "buf", units.parse_size, required=True, section="network"),
        s_tcp=_take(body, "s_tcp", units.parse_size, required=True, section="network"),
        n_ack=_take(body, "n_ack", _parse_int, default=1),
    )

    flows: list[FlowSpec] = []
    for name in [s for s in sections if s.startswith("flow.")]:
        body = sections.pop(name)
        _reject_unknown(name, body, _FLOW_KEYS)
        flow_name = name[len("flow."):]
        if not flow_name:
            raise ScenarioSemanticError("flow section needs a name: [flow.NAME]")
        kind = _take(body, "kind", str, required=True, section=name)
        signal_kind = _take(body, "signal", str, default=None)
        amplitude = _take(body, "amplitude", float, default=None)
        signal_seed = _take(body, "signal_seed", _parse_int, default=None)
        signal = None
        if signal_kind is not None or amplitude is not None or signal_seed is not None:
            signal = SignalSpec(
                kind=signal_kind or "contact-burst",
                amplitude=amplitude if amplitude is not None else 1.0,
                seed=signal_seed if signal_seed is not None else 0,
            )
        flows.append(
            FlowSpec(
                name=flow_name,
                kind=kind,
                rate=_take(body, "rate", units.parse_rate, default=None),
                packet=_take(body, "packet", units.parse_size, default=None),
                gap=_take(body, "gap", units.parse_time, default=None),
                phase=_take(body, "phase", units.parse_time, default=0.0),
                deadband=_take(body, "deadband", units.parse_fraction, default=None),
                video_rate=_take(body, "video_rate", units.parse_rate, default=None),
                header=_take(body, "header", units.parse_size, default=None),
                signal=signal,
            )
        )
    if not flows:
        raise ScenarioSemanticError("at least one [flow.NAME] section is required")

    qos = QosSpec()
    if "qos" in sections:
        body = sections.pop("qos")
        _reject_unknown("qos", body, _QOS_KEYS)
        limits = {}
        for media in ("haptic", "audio", "video"):
            base = getattr(qos, media)
            limits[media] = MediaQos(
                delay=_take(body, f"{media}_delay", units.parse_time, default=base.delay),
                jitter=_take(body, f"{media}_jitter", units.parse_time, default=base.jitter),
                loss=_take(body, f"{media}_loss", units.parse_fraction, default=base.loss),
            )
        qos = QosSpec(**limits)

    mux = None
    if "mux" in sections:
        body = sections.pop("mux")
        _reject_unknown("mux", body, _MUX_KEYS)
        mux = AvMuxSpec(
            s_a=_take(body, "s_a", units.parse_size, required=True, section="mux"),
            s_m=_take(body, "s_m", units.parse_size, required=True, section="mux"),
            f_v=_take(body, "f_v", units.parse_freq, required=True, section="mux"),
        )

    duration, warmup, seed = 60.0, None, 1
    if "run" in sections:
        body = sections.pop("run")
        _reject_unknown("run", body, _RUN_KEYS)
        duration = _take(body, "duration", units.parse_time, default=60.0)
        warmup = _take(body, "warmup", units.parse_time, default=None)
        seed = _take(body, "seed", _parse_int, default=1)

    for leftover in sections:
        raise ScenarioSemanticError(f"unknown section [{leftover}]")

    return ScenarioConfig(
        net=net, flows=tuple(flows), qos=qos, mux=mux,
        duration=duration, warmup=warmup, seed=seed,
    )


# --------------------------------------------------------------------------
# rendering (canonical, parse(render(c)) == c exactly)


def render_scenario(config: ScenarioConfig) -> str:
    lines = ["[network]"]
    lines.append(f"mu = {units.format_rate(config.net.mu)}")
    lines.append(f"tau = {units.format_time(config.net.tau)}")
    lines.append(f"buf = {units.format_size(config.net.buf)}")
    lines.append(f"s_tcp = {units.format_size(config.net.s_tcp)}")
    lines.append(f"n_ack = {config.net.n_ack}")

    for f in config.flows:
        lines.append("")
        lines.append(f"[flow.{f.name}]")
        lines.append(f"kind = {f.kind}")
        if f.rate is not None:
            lines.append(f"rate = {units.format_rate(f.rate)}")
        if f.packet is not None:
            lines.append(f"packet = {units.format_size(f.packet)}")
        if f.gap is not None:
            lines.append(f"gap = {units.format_time(f.gap)}")
        if f.phase:
            lines.append(f"phase = {units.format_time(f.phase)}")
        if f.deadband is not None:
            lines.append(f"deadband = {units.format_fraction(f.deadband)}")
        if f.video_rate is not None:
            lines.append(f"video_rate = {units.format_rate(f.video_rate)}")
        if f.header not in (None, DEFAULT_HEADER):
            lines.append(f"header = {units.format_size(f.header)}")
        if f.signal is not None:
            lines.append(f"signal = {f.signal.kind}")
            lines.append(f"amplitude = {f.signal.amplitude!r}")
            lines.append(f"signal_seed = {f.signal.seed}")

    default_qos = QosSpec()
    if config.qos != default_qos:
        lines.append("")
        lines.append("[qos]")
        for media in ("haptic", "audio", "video"):
            mq = getattr(config.qos, media)
            lines.append(f"{media}_delay = {units.format_time(mq.delay)}")
            lines.append(f"{media}_jitter = {units.format_time(mq.jitter)}")
            lines.append(f"{media}_loss = {units.format_fraction(mq.loss)}")

    if config.mux is not None:
        lines.append("")
        lines.append("[mux]")
        lines.append(f"s_a = {units.format_size(config.mux.s_a)}")
        lines.append(f"s_m = {units.format_size(config.mux.s_m)}")
        lines.append(f"f_v = {units.format_freq(config.mux.f_v)}")

    lines.append("")
    lines.append("[run]")
    lines.append(f"duration = {units.format_time(config.duration)}")
    if config.warmup is not None:
        lines.append(f"warmup = {units.format_time(config.warmup)}")
    lines.append(f"seed = {config.seed}")
    lines.append("")
    return "\n".join(lines)


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def baseline_text() -> str:
    """The bundled reference scenario (medium-speed shared link)."""
    return resources.files("teleqos.configs").joinpath("baseline.scn").read_text()
