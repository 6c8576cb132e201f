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

The tables below (``_NETWORK``, ``_FLOW``, ...) are the format's single
statement of each key and its unit: parsing, the unknown-key check and
rendering walk them, and each section's dataclass sets the required keys.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields, replace
from importlib import resources
from numbers import Real
from typing import Any, Callable, NamedTuple

from . import units
from .model import AvMuxSpec, NetworkParams, QosSpec, ScenarioError, ScenarioSemanticError

FLOW_KINDS = ("tcp", "cbr", "telehaptic", "adaptive")
DEFAULT_HEADER = 87.0   # header + haptic payload of a significant packet, bytes


class ScenarioParseError(ScenarioError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InvalidSignalSpec(ScenarioSemanticError):
    pass


@dataclass(frozen=True)
class SignalSpec:
    """Synthetic 3-axis force signal description; reproducible given seed.

    kind: 'sum-of-sinusoids' | 'filtered-noise' | 'contact-burst'
    """

    kind: str = "contact-burst"
    amplitude: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("sum-of-sinusoids", "filtered-noise", "contact-burst"):
            raise InvalidSignalSpec(f"unknown signal kind {self.kind!r}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise InvalidSignalSpec("amplitude must be finite and >= 0")
        if self.seed < 0:
            raise InvalidSignalSpec(f"signal seed must be >= 0, got {self.seed}")


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
        for key, value in vars(self).items():
            if isinstance(value, Real) and not math.isfinite(value):
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
        if not 0 <= self.duration < math.inf:
            raise ScenarioSemanticError(f"duration must be finite and >= 0, got {self.duration}")
        if self.warmup is not None and not 0 <= self.warmup <= self.duration:
            raise ScenarioSemanticError(
                f"warmup must lie within [0, duration], got warmup {self.warmup} "
                f"and duration {self.duration}"
            )
        if self.seed < 0:
            raise ScenarioSemanticError(f"seed must be >= 0, got {self.seed}")
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
        """The configured warmup, else 10% of the run, at least 20 s and never
        more than half the run."""
        if self.warmup is not None:
            return self.warmup
        return min(max(0.1 * self.duration, 20.0), 0.5 * self.duration)


# --------------------------------------------------------------------------
# the format: one table per section, key -> codec


class _Codec(NamedTuple):
    """How a key's value is read and written; None or `omit` is not written.
    The key sets the dataclass field of its own name, or `field` if given."""

    parse: Callable[[str], Any]
    format: Callable[[Any], str]
    omit: Any = None
    field: str | None = None


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


_RATE, _TIME, _SIZE, _FREQ, _FRACTION = (_Codec(unit.parse, unit.format) for unit in (
    units.RATE, units.TIME, units.SIZE, units.FREQ, units.FRACTION))
_FLOAT = _Codec(float, repr)
_INT = _Codec(_parse_int, str)
_STR = _Codec(str, str)

_NETWORK = {"mu": _RATE, "tau": _TIME, "buf": _SIZE, "s_tcp": _SIZE, "n_ack": _INT}
_FLOW = {
    "kind": _STR, "rate": _RATE, "packet": _SIZE, "gap": _TIME, "phase": _TIME._replace(omit=0.0),
    "deadband": _FRACTION, "video_rate": _RATE, "header": _SIZE._replace(omit=DEFAULT_HEADER),
}
# the [flow.*] keys that describe the flow's SignalSpec
_SIGNAL = {"signal": _STR._replace(field="kind"), "amplitude": _FLOAT,
           "signal_seed": _INT._replace(field="seed")}
# media -> the [qos] keys of its MediaQos: haptic_delay, haptic_jitter, ...
_QOS = {media: {f"{media}_{key}": codec._replace(field=key)
                for key, codec in (("delay", _TIME), ("jitter", _TIME), ("loss", _FRACTION))}
        for media in (f.name for f in fields(QosSpec))}
_MUX = {"s_a": _SIZE, "s_m": _SIZE, "f_v": _FREQ}
_RUN = {"duration": _TIME, "warmup": _TIME, "seed": _INT}
_SECTIONS = {"network": (_NETWORK,), "flow.*": (_FLOW, _SIGNAL), "qos": tuple(_QOS.values()),
             "mux": (_MUX,), "run": (_RUN,)}


# --------------------------------------------------------------------------
# parsing


def _read_sections(text: str) -> dict[str, list[dict]]:
    """Split the text into sections and parse each key by its section's
    tables: section -> one {field: value} dict per table."""
    sections: dict[str, list[dict]] = {}
    rows: dict[str, tuple[_Codec, dict]] | None = None
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
            tables = _SECTIONS.get("flow.*" if name.startswith("flow.") else name)
            if tables is None:
                raise ScenarioSemanticError(f"unknown section [{name}]")
            sections[name] = [{} for _ in tables]
            rows = {key: (codec, out) for table, out in zip(tables, sections[name])
                    for key, codec in table.items()}
            continue
        if "=" not in line:
            raise ScenarioParseError(lineno, f"expected key = value, got {raw.strip()!r}")
        if rows is None:
            raise ScenarioParseError(lineno, "key outside of any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ScenarioParseError(lineno, f"expected key = value, got {raw.strip()!r}")
        if key not in rows:
            raise ScenarioParseError(lineno, f"unknown key {key!r} in section [{name}]")
        codec, out = rows[key]
        if (codec.field or key) in out:
            raise ScenarioParseError(lineno, f"duplicate key {key!r}")
        try:
            out[codec.field or key] = codec.parse(value)
        except ValueError as exc:
            raise ScenarioParseError(lineno, f"{key}: {exc}") from None
    return sections


def _build(cls, section: str, values: dict):
    """cls(**values); a missing required key or cls's own check is a ScenarioSemanticError."""
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in values:
            raise ScenarioSemanticError(f"[{section}] is missing required key {f.name!r}")
    return cls(**values)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text; raises ScenarioParseError (with line number) on
    malformed input and ScenarioSemanticError, a value type's own error
    included, on inconsistent configurations."""
    sections = _read_sections(text)
    if "network" not in sections:
        raise ScenarioSemanticError("missing [network] section")
    net = _build(NetworkParams, "network", *sections["network"])

    flows: list[FlowSpec] = []
    for section in [s for s in sections if s.startswith("flow.")]:
        values, signal = sections[section]
        values.update(name=section[len("flow."):],
                      signal=_build(SignalSpec, section, signal) if signal else None)
        if not values["name"]:
            raise ScenarioSemanticError("flow section needs a name: [flow.NAME]")
        flows.append(_build(FlowSpec, section, values))
    if not flows:
        raise ScenarioSemanticError("at least one [flow.NAME] section is required")

    limits = sections.get("qos", [{} for _ in _QOS])
    qos = QosSpec(**{m: replace(getattr(QosSpec(), m), **lim) for m, lim in zip(_QOS, limits)})
    mux = _build(AvMuxSpec, "mux", *sections["mux"]) if "mux" in sections else None
    (run,) = sections.get("run", [{}])
    return ScenarioConfig(net=net, flows=tuple(flows), qos=qos, mux=mux, **run)


# --------------------------------------------------------------------------
# rendering (canonical, parse(render(c)) == c exactly)


def render_scenario(config: ScenarioConfig) -> str:
    sections = [("network", [(_NETWORK, config.net)])]
    sections += [(f"flow.{f.name}", [(_FLOW, f), (_SIGNAL, f.signal)]) for f in config.flows]
    if config.qos != QosSpec():
        sections.append(("qos", [(table, getattr(config.qos, m)) for m, table in _QOS.items()]))
    if config.mux is not None:
        sections.append(("mux", [(_MUX, config.mux)]))
    sections.append(("run", [(_RUN, config)]))
    lines = []
    for name, parts in sections:
        lines += ["", f"[{name}]"]
        for table, obj in parts:
            for key, codec in table.items():
                value = None if obj is None else getattr(obj, codec.field or key)
                if value is not None and value != codec.omit:
                    lines.append(f"{key} = {codec.format(value)}")
    return "\n".join(lines[1:] + [""])


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def baseline_text() -> str:
    """The bundled reference scenario (medium-speed shared link)."""
    return resources.files("teleqos.configs").joinpath("baseline.scn").read_text()
