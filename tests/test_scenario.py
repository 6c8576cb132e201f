"""Scenario config format: parsing, validation errors, canonical round-trip."""

import random

import pytest

from teleqos import (
    AvMuxSpec,
    FlowSpec,
    MediaQos,
    NetworkParams,
    QosSpec,
    ScenarioConfig,
    ScenarioParseError,
    ScenarioSemanticError,
    SignalSpec,
    baseline_text,
    parse_scenario,
    render_scenario,
)
from teleqos.sampling import DEFAULT_HEADER

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
    media = cfg.flow("media")
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
