"""The engine in teleqos.simulator against the single-heap reference engine
in oracles.py, over seeded random scenarios.

The rule: an engine change lands only if this oracle still agrees, byte for
byte on the raw trace, every queue occupancy included, exactly on the
metrics and the loss cycles, and its own census of the packets left inside
at the end with the engine's ledger. The scenarios mix n_ack 1 and 2,
aggregate fixed loads up to R/mu = 0.95, fractional buffers, adaptive
flows, and links with a whole number of nanoseconds per byte whose open-loop
gaps and phases are whole multiples of a service time, so that arrivals,
link completions, deliveries and ACKs fall on the same instant.

Two relations any correct engine keeps are checked on the same scenarios:
the trace does not depend on the warmup, and the trace of a run is a byte
prefix of the trace of a longer run (except where a filtered-noise signal
is scaled by its maximum over the whole run).
"""

import functools
import math
import random
from dataclasses import replace

import pytest
from oracles import assert_ledger_matches_rows, recorded, run_by_single_heap

from teleqos import FlowSpec, NetworkParams, ScenarioConfig, SignalSpec, build_simulator

MBPS = 1e6 / 8.0
NS_PER_BYTE = (1000, 1600, 2000, 4000)  # 8, 5, 4 and 2 Mbps
SIGNALS = ("sum-of-sinusoids", "filtered-noise", "contact-burst")


def _fixed_flow(rng, name, kind, load, mu, ns_per_byte, aligned):
    """A cbr or telehaptic flow carrying about `load` of the link; with
    `aligned`, its gap and phase are whole multiples of its service time."""
    packet = rng.choice((100.0, 137.0, 250.0)) if kind == "telehaptic" else 150.0
    if aligned:
        service = packet * ns_per_byte / 1e9
        gap = math.ceil(1 / load) * service  # at most `load`
        phase = rng.randrange(4) * service
    else:
        gap = packet / (load * mu)
        phase = rng.uniform(0.0, gap)
    return FlowSpec(name=name, kind=kind, rate=packet / gap, packet=packet, gap=gap, phase=phase)


def reference_scenario(seed: int) -> ScenarioConfig:
    rng = random.Random(seed)
    ns_per_byte = rng.choice(NS_PER_BYTE)
    mu = 1e9 / ns_per_byte
    tau = rng.choice((2e-3, 4e-3, 8e-3))
    buf = rng.uniform(1.0, 3.0) * 2 * mu * tau
    if seed % 4 == 0:
        buf = int(buf) + 0.5
    net = NetworkParams(mu=mu, tau=tau, buf=buf, s_tcp=rng.choice((400.0, 578.0, 1000.0)),
                        n_ack=1 + seed % 2)
    adaptive = seed % 3 == 0
    load = rng.choice((0.1, 0.3, 0.5)) if adaptive else rng.choice((0.2, 0.5, 0.8, 0.95))
    split = rng.uniform(0.2, 0.8)
    aligned = seed % 4 < 2
    flows = [
        FlowSpec(name="bulk", kind="tcp"),
        _fixed_flow(rng, "media", "telehaptic", load * split, mu, ns_per_byte, aligned),
        _fixed_flow(rng, "cross", "cbr", load * (1 - split), mu, ns_per_byte, aligned),
    ]
    if adaptive:
        flows.append(FlowSpec(
            name="vh", kind="adaptive", deadband=rng.choice((0.1, 0.2)),
            video_rate=rng.choice((0.2, 0.4)) * MBPS, phase=rng.uniform(0.0, 0.01),
            signal=SignalSpec(kind=rng.choice(SIGNALS)),
        ))
    return ScenarioConfig(net=net, flows=tuple(flows), duration=1.6, warmup=0.3, seed=seed)


def _first_difference(a: str, b: str) -> str:
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines())):
        if x != y:
            return f"line {i}: {x!r} != {y!r}"
    return f"{a.count(chr(10))} lines != {b.count(chr(10))} lines"


@pytest.mark.parametrize("seed", range(20))
def test_engine_matches_the_single_heap_reference(seed):
    sim = build_simulator(reference_scenario(seed))
    trace, text = recorded(sim)
    ref = run_by_single_heap(sim)
    if text != ref.csv:  # a plain assert would diff two long texts
        pytest.fail(_first_difference(text, ref.csv))
    assert trace.metrics == ref.metrics
    assert trace.cycles == ref.cycles
    assert ref.in_flight_end == {
        name: m.created_total - m.delivered_total - m.dropped_total
        for name, m in trace.metrics.items()
    }


@functools.cache
def _recorded_run(seed: int, duration: float, warmup: float):
    """A reference scenario's run, cut to duration and warmup, and its
    trace; the two relations below share the 0.5 s run without warmup."""
    cfg = replace(reference_scenario(seed), duration=duration, warmup=warmup)
    return recorded(build_simulator(cfg))


@pytest.mark.parametrize("seed", range(20))
def test_the_trace_does_not_depend_on_the_warmup(seed):
    # the warmup only decides which events the metrics count; the run-wide
    # counts still cover the rows recorded during it
    text = _recorded_run(seed, 0.5, 0.0)[1]
    trace, late_text = _recorded_run(seed, 0.5, 0.4)
    if text != late_text:
        pytest.fail(_first_difference(text, late_text))
    assert_ledger_matches_rows(trace, late_text)


@pytest.mark.parametrize("seed", range(20))
def test_a_run_is_a_byte_prefix_of_a_longer_run(seed):
    # a filtered-noise signal is scaled by its maximum over the whole run,
    # so its packets may change with the duration: the relation is asserted
    # without one, and its known failure on seed 6 is asserted too
    short, long = (_recorded_run(seed, duration, 0.0)[1] for duration in (0.5, 0.8))
    flows = reference_scenario(seed).flows
    if not any(f.kind == "adaptive" and f.signal.kind == "filtered-noise" for f in flows):
        assert long.startswith(short)
    elif seed == 6:
        assert not long.startswith(short)


def test_reference_scenarios_reach_the_cases_the_rule_is_about():
    configs = [reference_scenario(seed) for seed in range(20)]
    assert {c.net.n_ack for c in configs} == {1, 2}
    assert max(c.fixed_cbr_rate / c.net.mu for c in configs) >= 0.94
    assert sum(c.net.buf != int(c.net.buf) for c in configs) >= 5
    assert sum(any(f.kind == "adaptive" for f in c.flows) for c in configs) >= 5
    # ties between event kinds, counted over the first half second of the
    # aligned scenarios: a link completion and an open-loop arrival at one
    # instant, and a TCP delivery and an ACK at one instant
    arrival_ties = ack_ties = 0
    for seed in range(20):
        if seed % 4 < 2:
            cfg = replace(reference_scenario(seed), duration=0.5, warmup=0.0)
            events_at: dict[str, set] = {}
            for line in recorded(build_simulator(cfg))[1].splitlines()[1:]:
                t, event, flow = line.split(",")[:3]
                events_at.setdefault(t, set()).add(event if flow == "bulk" else "open-" + event)
            arrival_ties += sum({"dequeue", "open-send"} <= e or {"open-dequeue", "open-send"} <= e
                                for e in events_at.values())
            ack_ties += sum({"deliver", "ack"} <= e for e in events_at.values())
    assert arrival_ties >= 10 and ack_ties >= 10
