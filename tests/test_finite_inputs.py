"""Property tests of the input boundary: unit-suffixed quantities survive
render/parse exactly, and no non-finite number gets past parsing or into
the parameter types."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teleqos import (
    AvMuxSpec,
    CbrAggregate,
    FlowSpec,
    HapticFlowSpec,
    InvalidParams,
    MediaQos,
    NetworkParams,
    ScenarioConfig,
    ScenarioError,
    ScenarioSemanticError,
    SignalSpec,
    parse_scenario,
    render_scenario,
    units,
)
from teleqos.sampling import InvalidSignalSpec

MBPS = 1e6 / 8.0

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
# numbers float() accepts that are, or overflow to, nan or +-inf
non_finite_text = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e999"])

CODECS = (
    (units.parse_rate, units.format_rate, units.RATE_UNITS),
    (units.parse_time, units.format_time, units.TIME_UNITS),
    (units.parse_size, units.format_size, units.SIZE_UNITS),
    (units.parse_freq, units.format_freq, units.FREQ_UNITS),
    (units.parse_fraction, units.format_fraction, units.FRACTION_UNITS),
)
SUFFIXED = [(parse, suffix) for parse, _, table in CODECS for suffix in table]


@given(finite, st.sampled_from(CODECS))
def test_render_parse_roundtrip(value, codec):
    parse, render, _ = codec
    assert parse(render(value)) == value


@given(non_finite_text, st.sampled_from(SUFFIXED), st.sampled_from([" ", ""]))
def test_parse_rejects_non_finite(number, case, space):
    parse, suffix = case
    with pytest.raises(units.UnitError, match="finite"):
        parse(f"{number}{space}{suffix}".strip())


def test_parse_rejects_overflow_of_the_unit_multiplier():
    with pytest.raises(units.UnitError, match="finite"):
        units.parse_rate("1e308 Gbps")


@given(st.sampled_from(["mu", "tau", "buf", "s_tcp"]), non_finite)
def test_network_params_reject_non_finite(key, value):
    fields = dict(mu=6 * MBPS, tau=8e-3, buf=14000.0, s_tcp=578.0)
    fields[key] = value
    with pytest.raises(InvalidParams):
        NetworkParams(**fields)


# valid fields of each model value type besides NetworkParams
MODEL_TYPES = {
    CbrAggregate: dict(rate_total=3 * MBPS),
    HapticFlowSpec: dict(rate_h=137e3, gap_h=1e-3, pkt_h=137.0, rate_cross=1e5, pkt_cross=150.0),
    MediaQos: dict(delay=0.03, jitter=0.01, loss=0.1),
    AvMuxSpec: dict(s_a=160.0, s_m=58.0, f_v=25.0),
}


@given(st.sampled_from([(cls, key) for cls, kw in MODEL_TYPES.items() for key in kw]), non_finite)
def test_model_value_types_reject_non_finite(case, value):
    cls, key = case
    with pytest.raises(InvalidParams, match=f"^{key} must be finite"):
        cls(**dict(MODEL_TYPES[cls], **{key: value}))


FLOW_FIELDS = {
    "rate": dict(kind="cbr", rate=1000.0, packet=100.0, gap=0.1),
    "packet": dict(kind="cbr", rate=1000.0, packet=100.0, gap=0.1),
    "gap": dict(kind="cbr", rate=1000.0, packet=100.0, gap=0.1),
    "phase": dict(kind="cbr", rate=1000.0, packet=100.0, gap=0.1),
    "header": dict(kind="adaptive", deadband=0.1, video_rate=50000.0),
    "video_rate": dict(kind="adaptive", deadband=0.1, video_rate=50000.0),
}


@given(st.sampled_from(sorted(FLOW_FIELDS)), non_finite)
def test_flow_spec_rejects_non_finite(key, value):
    fields = dict(FLOW_FIELDS[key], name="f")
    fields[key] = value
    with pytest.raises(ScenarioSemanticError):
        FlowSpec(**fields)


@given(st.sampled_from(["duration", "warmup"]), non_finite)
def test_scenario_config_rejects_non_finite(key, value):
    net = NetworkParams(mu=6 * MBPS, tau=8e-3, buf=14000.0, s_tcp=578.0)
    fields = dict(duration=10.0, warmup=1.0)
    fields[key] = value
    with pytest.raises(ScenarioSemanticError):
        ScenarioConfig(net=net, flows=(FlowSpec(name="bulk", kind="tcp"),), **fields)


@given(non_finite)
def test_signal_amplitude_rejects_non_finite(value):
    with pytest.raises(InvalidSignalSpec):
        SignalSpec(amplitude=value)


@pytest.mark.parametrize("line", ["mu = nan Mbps", "tau = inf ms", "buf = 1e400 B"])
def test_scenario_text_rejects_non_finite(line):
    key = line.split()[0]
    text = (
        "[network]\nmu = 6 Mbps\ntau = 8 ms\nbuf = 14 kB\ns_tcp = 578 B\n"
        "[flow.bulk]\nkind = tcp\n"
    )
    text = "\n".join(line if l.startswith(f"{key} ") else l for l in text.splitlines())
    with pytest.raises(ScenarioError, match="finite"):
        parse_scenario(text)


@given(positive, positive, positive, positive, st.integers(1, 4), positive, positive)
def test_scenario_render_parse_roundtrip(mu, tau, buf, s_tcp, n_ack, duration, rate):
    net = NetworkParams(mu=mu, tau=tau, buf=buf, s_tcp=s_tcp, n_ack=n_ack)
    flows = (FlowSpec(name="media", kind="telehaptic", rate=rate, packet=137.0),)
    cfg = ScenarioConfig(net=net, flows=flows, duration=duration, warmup=duration / 2)
    assert parse_scenario(render_scenario(cfg)) == cfg
