"""Scenario config format: parsing, validation errors, canonical round-trip."""

import random
from dataclasses import replace

import pytest

from teleqos import (
    AvMuxSpec,
    FlowSpec,
    InvalidParams,
    MediaQos,
    NetworkParams,
    QosSpec,
    ScenarioConfig,
    ScenarioError,
    ScenarioParseError,
    ScenarioSemanticError,
    SignalSpec,
    baseline_text,
    parse_scenario,
    render_scenario,
)
from teleqos.sampling import EmptyStream, InvalidDeadband
from teleqos.scenario import DEFAULT_HEADER, InvalidSignalSpec
from teleqos.units import UnitError

MBPS = 1e6 / 8.0


def test_baseline_parses_to_reference_settings():
    cfg = parse_scenario(baseline_text())
    assert cfg.net.mu == 750000.0
    assert cfg.net.tau == 0.008
    assert cfg.net.buf == 14000.0
    assert cfg.net.s_tcp == 578.0
    assert cfg.net.n_ack == 1
    kinds = {f.name: f.kind for f in cfg.flows}
    assert kinds == {"media": "telehaptic", "bulk": "tcp", "cross": "cbr"}
    media = next(f for f in cfg.flows if f.name == "media")
    assert media.rate == pytest.approx(137000.0)
    assert media.packet == 137.0
    assert media.gap == 1e-3
    assert cfg.mux == AvMuxSpec(s_a=160.0, s_m=58.0, f_v=25.0)
    assert cfg.duration == 60.0 and cfg.warmup == 20.0 and cfg.seed == 1


def test_missing_unit_is_a_parse_error_with_line():
    text = baseline_text().replace("mu = 6 Mbps", "mu = 6")
    with pytest.raises(ScenarioParseError, match="line 5.*missing a unit suffix"):
        parse_scenario(text)


def test_duplicate_flow_section_rejected():
    text = baseline_text() + "\n[flow.media]\nkind = cbr\nrate = 1 Mbps\npacket = 100 B\n"
    with pytest.raises(ScenarioParseError, match="duplicate section"):
        parse_scenario(text)


def test_unknown_key_rejected_with_line():
    text = baseline_text().replace("tau = 8 ms", "tau = 8 ms\nfancyness = 11")
    with pytest.raises(ScenarioParseError, match="unknown key 'fancyness'"):
        parse_scenario(text)


def test_unknown_section_rejected():
    with pytest.raises(ScenarioSemanticError, match=r"unknown section \[wat\]"):
        parse_scenario(baseline_text() + "\n[wat]\nx = 1\n")


def test_overload_with_tcp_is_semantic_error():
    text = baseline_text().replace("rate = 1.904 Mbps", "rate = 5.2 Mbps")
    with pytest.raises(ScenarioSemanticError, match="below the link capacity"):
        parse_scenario(text)


def test_rate_gap_packet_consistency_enforced():
    text = baseline_text().replace("gap = 1 ms", "gap = 2 ms")
    with pytest.raises(ScenarioSemanticError, match="does not equal the packet size"):
        parse_scenario(text)


UNUSED_KEYS = [
    ("tcp", "packet = 1400 B"),
    ("tcp", "rate = 1 Mbps"),
    ("tcp", "gap = 1 ms"),
    ("tcp", "phase = 2 ms"),
    ("tcp", "deadband = 0.1"),
    ("tcp", "video_rate = 400 kbps"),
    ("tcp", "signal = contact-burst"),
    ("tcp", "header = 40 B"),
    ("adaptive", "rate = 1 Mbps"),
    ("adaptive", "packet = 137 B"),
    ("adaptive", "gap = 1 ms"),
    ("telehaptic", "deadband = 0.1"),
    ("telehaptic", "header = 40 B"),
    ("cbr", "video_rate = 400 kbps"),
    ("cbr", "amplitude = 2.0"),
    ("cbr", "header = 40 B"),
]


@pytest.mark.parametrize("kind, line", UNUSED_KEYS)
def test_flow_key_the_kind_ignores_is_rejected(kind, line):
    # the TCP packet size comes only from s_tcp, and no key is dropped silently
    body = {
        "tcp": "",
        "adaptive": "deadband = 0.1\nvideo_rate = 400 kbps\n",
        "telehaptic": "rate = 1.096 Mbps\npacket = 137 B\n",
        "cbr": "rate = 1 Mbps\npacket = 150 B\n",
    }[kind]
    text = (
        "[network]\nmu = 6 Mbps\ntau = 8 ms\nbuf = 14 kB\ns_tcp = 578 B\n"
        f"[flow.f]\nkind = {kind}\n{body}{line}\n"
    )
    key = "signal" if line.startswith("amplitude") else line.split()[0]
    with pytest.raises(ScenarioSemanticError, match=f"a {kind} flow takes no {key}$"):
        parse_scenario(text)


def test_adaptive_header_defaults_must_be_positive_and_round_trips(base_net):
    flow = dict(name="vh", kind="adaptive", deadband=0.1, video_rate=50e3)
    assert FlowSpec(**flow).header == DEFAULT_HEADER
    for bad in (0.0, -40.0):
        with pytest.raises(ScenarioSemanticError, match="header must be positive"):
            FlowSpec(**flow, header=bad)
    with pytest.raises(ScenarioSemanticError, match="a tcp flow takes no header$"):
        FlowSpec(name="bulk", kind="tcp", header=40.0)
    for header in (DEFAULT_HEADER, 40.0):
        cfg = ScenarioConfig(net=base_net, flows=(FlowSpec(**flow, header=header),))
        assert parse_scenario(render_scenario(cfg)) == cfg


def test_two_tcp_flows_rejected(base_net):
    with pytest.raises(ScenarioSemanticError, match="one TCP source"):
        ScenarioConfig(
            net=base_net,
            flows=(FlowSpec(name="a", kind="tcp"), FlowSpec(name="b", kind="tcp")),
        )


def test_qos_overrides():
    text = baseline_text() + "\n[qos]\nhaptic_delay = 25 ms\nvideo_loss = 2 %\n"
    cfg = parse_scenario(text)
    assert cfg.qos.haptic.delay == 0.025
    assert cfg.qos.video.loss == pytest.approx(0.02)
    assert cfg.qos.audio == QosSpec().audio


def random_config(rng: random.Random) -> ScenarioConfig:
    mu = rng.uniform(1.0, 30.0) * MBPS
    tau = rng.uniform(1e-4, 0.05)
    net = NetworkParams(
        mu=mu, tau=tau, buf=rng.uniform(2.2 * mu * tau, 9 * mu * tau),
        s_tcp=rng.uniform(100, 1500), n_ack=rng.choice((1, 2, 3)),
    )
    flows = [FlowSpec(name="bulk", kind="tcp")]
    rate = rng.uniform(0.01, 0.3) * mu
    pkt = rng.uniform(50, 600)
    flows.append(FlowSpec(name="media", kind="telehaptic", rate=rate, packet=pkt, gap=pkt / rate))
    if rng.random() < 0.5:
        crate = rng.uniform(0.01, 0.3) * mu
        flows.append(
            FlowSpec(name="cross", kind="cbr", rate=crate, packet=150.0,
                     phase=rng.choice((0.0, rng.uniform(0, 1e-3)))))
    if rng.random() < 0.5:
        flows.append(
            FlowSpec(name="vh", kind="adaptive", deadband=rng.uniform(0.01, 0.5),
                     video_rate=rng.uniform(1e3, 1e5),
                     signal=SignalSpec(kind="contact-burst", amplitude=rng.uniform(0.1, 5), seed=rng.randint(0, 99))))
    qos = QosSpec(haptic=MediaQos(rng.uniform(0.01, 0.1), rng.uniform(0.001, 0.02), rng.uniform(0.01, 0.2)))
    mux = AvMuxSpec(s_a=rng.uniform(50, 500), s_m=rng.uniform(10, 100), f_v=rng.choice((24.0, 25.0, 50.0))) \
        if rng.random() < 0.7 else None
    return ScenarioConfig(
        net=net, flows=tuple(flows), qos=qos, mux=mux,
        duration=rng.uniform(1, 500),
        warmup=rng.choice((None, 0.0, 0.5)),
        seed=rng.randint(0, 10**6),
    )


def test_render_parse_roundtrip_exact():
    rng = random.Random(77)
    for _ in range(250):
        cfg = random_config(rng)
        assert parse_scenario(render_scenario(cfg)) == cfg


def test_default_warmup_policy():
    cfg = parse_scenario(baseline_text().replace("warmup = 20 s", ""))
    assert cfg.warmup is None
    assert cfg.effective_warmup == 20.0  # min 20 s
    long = parse_scenario(baseline_text().replace("duration = 60 s", "duration = 500 s").replace("warmup = 20 s", ""))
    assert long.effective_warmup == 50.0  # 10% of the run
    short = parse_scenario(baseline_text().replace("duration = 60 s", "duration = 10 s").replace("warmup = 20 s", ""))
    assert short.effective_warmup == 5.0  # capped at half the run


def test_scenario_rejects_warmup_past_duration(base_scenario):
    with pytest.raises(ScenarioSemanticError, match="warmup"):
        replace(base_scenario, duration=1.0, warmup=2.0)


# every key of every section, rendered as the format pins it: canonical
# units, phase 0 and the default header left out, [qos] written in full
FULL_CONFIG = ScenarioConfig(
    net=NetworkParams(mu=750000.0, tau=0.008, buf=14000.0, s_tcp=578.0, n_ack=2),
    flows=(
        FlowSpec(name="cross", kind="cbr", rate=50000.0, packet=150.0, phase=0.0005),
        FlowSpec(name="media", kind="telehaptic", rate=137000.0, packet=137.0),
        FlowSpec(name="vh", kind="adaptive", deadband=0.1, video_rate=50000.0, header=40.0,
                 signal=SignalSpec(kind="filtered-noise", amplitude=2.5, seed=7)),
        FlowSpec(name="bulk", kind="tcp"),
    ),
    qos=QosSpec(haptic=MediaQos(delay=0.025, jitter=0.005, loss=0.05)),
    mux=AvMuxSpec(s_a=160.0, s_m=58.0, f_v=25.0),
    duration=30.0, warmup=5.0, seed=3,
)
FULL_TEXT = """\
[network]
mu = 750000.0 Bps
tau = 0.008 s
buf = 14000.0 B
s_tcp = 578.0 B
n_ack = 2

[flow.cross]
kind = cbr
rate = 50000.0 Bps
packet = 150.0 B
gap = 0.003 s
phase = 0.0005 s

[flow.media]
kind = telehaptic
rate = 137000.0 Bps
packet = 137.0 B
gap = 0.001 s

[flow.vh]
kind = adaptive
deadband = 0.1
video_rate = 50000.0 Bps
header = 40.0 B
signal = filtered-noise
amplitude = 2.5
signal_seed = 7

[flow.bulk]
kind = tcp

[qos]
haptic_delay = 0.025 s
haptic_jitter = 0.005 s
haptic_loss = 0.05
audio_delay = 0.15 s
audio_jitter = 0.03 s
audio_loss = 0.01
video_delay = 0.4 s
video_jitter = 0.03 s
video_loss = 0.01

[mux]
s_a = 160.0 B
s_m = 58.0 B
f_v = 25.0 Hz

[run]
duration = 30.0 s
warmup = 5.0 s
seed = 3
"""


def test_render_text_of_every_key_is_pinned():
    assert render_scenario(FULL_CONFIG) == FULL_TEXT
    assert parse_scenario(FULL_TEXT) == FULL_CONFIG


# one line per key, so a fault's line number is fixed
ERROR_BASE = """\
[network]
mu = 6 Mbps
tau = 8 ms
buf = 14 kB
s_tcp = 578 B
n_ack = 1

[flow.media]
kind = telehaptic
rate = 1.096 Mbps
packet = 137 B

[flow.vh]
kind = adaptive
deadband = 0.1
video_rate = 400 kbps
amplitude = 2.5

[qos]
haptic_delay = 25 ms

[mux]
s_a = 160 B
s_m = 58 B
f_v = 25 Hz

[run]
duration = 10 s
seed = 1
"""

SCENARIO_ERRORS = [
    # an unknown key in each section, reported on its line
    ("[network]", "[network]\nbogus = 1", ScenarioParseError,
     "line 2: unknown key 'bogus' in section [network]"),
    ("[flow.media]", "[flow.media]\nbogus = 1", ScenarioParseError,
     "line 9: unknown key 'bogus' in section [flow.media]"),
    ("[qos]", "[qos]\nbogus = 1", ScenarioParseError,
     "line 20: unknown key 'bogus' in section [qos]"),
    ("[mux]", "[mux]\nbogus = 1", ScenarioParseError,
     "line 23: unknown key 'bogus' in section [mux]"),
    ("[run]", "[run]\nbogus = 1", ScenarioParseError,
     "line 28: unknown key 'bogus' in section [run]"),
    ("[run]", "[flow]\nkind = tcp\n[run]", ScenarioSemanticError, "unknown section [flow]"),
    # each required key missing
    ("mu = 6 Mbps\n", "", ScenarioSemanticError, "[network] is missing required key 'mu'"),
    ("tau = 8 ms\n", "", ScenarioSemanticError, "[network] is missing required key 'tau'"),
    ("buf = 14 kB\n", "", ScenarioSemanticError, "[network] is missing required key 'buf'"),
    ("s_tcp = 578 B\n", "", ScenarioSemanticError, "[network] is missing required key 's_tcp'"),
    ("kind = telehaptic\n", "", ScenarioSemanticError, "[flow.media] is missing required key 'kind'"),
    ("s_a = 160 B\n", "", ScenarioSemanticError, "[mux] is missing required key 's_a'"),
    ("s_m = 58 B\n", "", ScenarioSemanticError, "[mux] is missing required key 's_m'"),
    ("f_v = 25 Hz\n", "", ScenarioSemanticError, "[mux] is missing required key 'f_v'"),
    # one malformed value per codec, reported on its line with its key
    ("mu = 6 Mbps", "mu = 6 furlongs", ScenarioParseError,
     "line 2: mu: rate value '6 furlongs' has unknown unit 'furlongs' "
     "(expected one of Bps, Gbps, MBps, Mbps, bps, kBps, kbps)"),
    ("tau = 8 ms", "tau = 8", ScenarioParseError,
     "line 3: tau: time value '8' is missing a unit suffix (expected one of ms, ns, s, us)"),
    ("buf = 14 kB", "buf = 14 kb", ScenarioParseError,
     "line 4: buf: size value '14 kb' has unknown unit 'kb' (expected one of B, MB, kB)"),
    ("f_v = 25 Hz", "f_v = 25 fps", ScenarioParseError,
     "line 25: f_v: frequency value '25 fps' has unknown unit 'fps' (expected one of Hz, kHz)"),
    ("deadband = 0.1", "deadband = 0.1 Hz", ScenarioParseError,
     "line 15: deadband: fraction value '0.1 Hz' has unknown unit 'Hz' (expected one of %)"),
    ("haptic_delay = 25 ms", "haptic_loss = lots", ScenarioParseError,
     "line 20: haptic_loss: cannot parse number in fraction value 'lots'"),
    ("n_ack = 1", "n_ack = two", ScenarioParseError,
     "line 6: n_ack: expected an integer, got 'two'"),
    ("seed = 1", "seed = 1.5", ScenarioParseError,
     "line 29: seed: expected an integer, got '1.5'"),
    ("amplitude = 2.5", "amplitude = loud", ScenarioParseError,
     "line 17: amplitude: could not convert string to float: 'loud'"),
]


@pytest.mark.parametrize("old, new, error, message", SCENARIO_ERRORS)
def test_scenario_error_names_section_key_and_line(old, new, error, message):
    parse_scenario(ERROR_BASE)
    assert old in ERROR_BASE
    with pytest.raises(error) as info:
        parse_scenario(ERROR_BASE.replace(old, new, 1))
    assert type(info.value) is error
    assert str(info.value) == message


def test_render_leaves_out_zero_phase_and_default_header(base_net):
    flows = (
        FlowSpec(name="cross", kind="cbr", rate=50000.0, packet=150.0),
        FlowSpec(name="vh", kind="adaptive", deadband=0.1, video_rate=50000.0),
    )
    text = render_scenario(ScenarioConfig(net=base_net, flows=flows))
    assert "phase" not in text and "header" not in text
    assert "signal = contact-burst\namplitude = 1.0\nsignal_seed = 0\n" in text


# a value type's own check raises its own class, a ScenarioSemanticError
VALUE_ERRORS = [
    ("mu = 6 Mbps", "mu = 0 Mbps", "link capacity must be positive, got 0.0", InvalidParams),
    ("buf = 14 kB", "buf = 0 B", "queue capacity must be positive, got 0.0", InvalidParams),
    ("n_ack = 1", "n_ack = 0", "cumulative-ACK factor must be >= 1, got 0", InvalidParams),
    ("f_v = 25 Hz", "f_v = 0 Hz", "mux parameters must be positive", InvalidParams),
    ("amplitude = 2.5", "signal = sawtooth", "unknown signal kind 'sawtooth'", InvalidSignalSpec),
    ("amplitude = 2.5", "amplitude = -1", "amplitude must be finite and >= 0", InvalidSignalSpec),
    ("haptic_delay = 25 ms", "haptic_delay = -25 ms", "haptic_delay must be >= 0, got -0.025",
     InvalidParams),
    ("haptic_delay = 25 ms", "audio_jitter = -1 ms", "audio_jitter must be >= 0, got -0.001",
     InvalidParams),
    ("haptic_delay = 25 ms", "video_loss = -1%", "video_loss must be >= 0, got -0.01",
     InvalidParams),
]


@pytest.mark.parametrize("old, new, message, error", VALUE_ERRORS)
def test_value_type_check_is_a_semantic_error(old, new, message, error):
    assert old in ERROR_BASE
    with pytest.raises(ScenarioSemanticError) as info:
        parse_scenario(ERROR_BASE.replace(old, new, 1))
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("error", [InvalidParams, InvalidSignalSpec, InvalidDeadband, EmptyStream])
def test_value_type_errors_derive_from_the_semantic_error(error):
    assert issubclass(error, ScenarioSemanticError)


def test_a_unit_error_is_no_scenario_error():
    # parse_scenario reports quantity syntax as a line-numbered ScenarioParseError
    assert not issubclass(UnitError, ScenarioError)


LAYOUT_ERRORS = [
    ("haptic_delay = 25 ms", "haptic_delay = 25 ms\nhaptic_delay = 30 ms", ScenarioParseError,
     "line 21: duplicate key 'haptic_delay'"),
    ("[network]\n", "seed = 1\n[network]\n", ScenarioParseError, "line 1: key outside of any [section]"),
    ("[mux]", "[mux", ScenarioParseError, "line 22: malformed section header '[mux'"),
    ("[mux]", "[ ]", ScenarioParseError, "line 22: empty section name"),
    ("s_a = 160 B", "s_a 160 B", ScenarioParseError, "line 23: expected key = value, got 's_a 160 B'"),
    ("s_a = 160 B", "s_a =", ScenarioParseError, "line 23: expected key = value, got 's_a ='"),
    ("[flow.media]", "[flow.]", ScenarioSemanticError, "flow section needs a name: [flow.NAME]"),
]


@pytest.mark.parametrize("old, new, error, message", LAYOUT_ERRORS)
def test_scenario_layout_error_is_reported(old, new, error, message):
    assert old in ERROR_BASE
    with pytest.raises(error) as info:
        parse_scenario(ERROR_BASE.replace(old, new, 1))
    assert type(info.value) is error
    assert str(info.value) == message


def test_scenario_without_network_or_flows_is_rejected():
    with pytest.raises(ScenarioSemanticError, match=r"^missing \[network\] section$"):
        parse_scenario("[run]\nseed = 1\n")
    with pytest.raises(ScenarioSemanticError, match=r"^at least one \[flow.NAME\] section is required$"):
        parse_scenario(ERROR_BASE.split("[flow.media]")[0])
