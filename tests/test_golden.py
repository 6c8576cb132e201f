"""Golden trace digests: the sha256 of the raw event trace of three short
runs, and of the loss-cycle table each run segments. Any change to the
engine's event order, arithmetic or record format shows up here; a
refactor that keeps these digests keeps the traces byte-identical and the
cycles (bounds, queue and window extremes, merged losses, per-flow delay
extremes) unchanged. A third set pins the adaptive sampling pipeline of
each signal kind: samples, significance flags and packet schedule."""

import hashlib
from dataclasses import replace

import pytest

from teleqos import (
    SignalSpec,
    baseline_text,
    build_simulator,
    deadband_filter,
    parse_scenario,
    run,
    synth_haptic_trace,
)

MBPS = 1e6 / 8.0

ADAPTIVE_FLOW = """
[flow.vh]
kind = adaptive
deadband = 0.1
video_rate = 400 kbps
signal = contact-burst
signal_seed = 7
"""


ADAPTIVE_ONLY = """
[network]
mu = 6 Mbps
tau = 8 ms
buf = 14 kB
s_tcp = 578 B

[flow.vh]
kind = adaptive
deadband = 0.1
video_rate = 400 kbps
signal = {kind}

[run]
duration = 20 s
seed = 1
"""


def baseline():
    return parse_scenario(baseline_text())


def adaptive_contact_burst():
    text = baseline_text().replace("rate = 1.904 Mbps", "rate = 1 Mbps")
    return parse_scenario(text + ADAPTIVE_FLOW)


def heavy_load_n_ack_2():
    # R/mu = 3.6 Mbps / 6 Mbps = 0.6, just inside the single-loss regime
    cfg = baseline().with_flow_rate("cross", 3.6 * MBPS - 1.096 * MBPS)
    return replace(cfg, net=replace(cfg.net, n_ack=2))


def five_seconds(name):
    """The golden scenario `name`, run for 5 s with a 1 s warmup."""
    return replace(GOLDEN[name][0](), duration=5.0, warmup=1.0)


GOLDEN = {
    "baseline": (baseline, "1db70f19e6d518e44af5a727ed34d902532bc5ef1b83ffeb011002777a9dc060"),
    "adaptive-contact-burst": (
        adaptive_contact_burst,
        "463da46f48dad3d8b5d955c2b55a51cc45e004b419c9d304b4893aa100cf661d",
    ),
    "n_ack-2-load-0.6": (
        heavy_load_n_ack_2,
        "87738c5801f19c5b53b308b0a4773e989f874c7039eaf1e08a6403c8a8001ffe",
    ),
}

# sha256 of each run's cycle table, one repr line per cycle (8 or 9 cycles
# of 2 to 4 merged TCP drops each)
GOLDEN_CYCLES = {
    "baseline": "a7af8ec712c42c66be52629c9bf7cd1c5814a01448e6d923cd37414e2773c575",
    "adaptive-contact-burst": "a38c3b2c0ce7f43964cad5f6ff6f09589794191560fd8f38de90260d127bf3e0",
    "n_ack-2-load-0.6": "f27eb59056270b88c2acf90e18083c6d7fa476935275b900655e56350ec38984",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace_digest(name):
    trace = run(build_simulator(five_seconds(name)), record=True)
    assert hashlib.sha256(trace.to_csv().encode()).hexdigest() == GOLDEN[name][1]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_cycle_digest(name):
    trace = run(build_simulator(five_seconds(name)))
    table = "".join(
        repr((
            c.start_ns, c.end_ns, c.q_min, c.q_max, c.w_min, c.losses,
            sorted(c.flow_delay_min.items()), sorted(c.flow_delay_max.items()),
        )) + "\n"
        for c in trace.cycles
    )
    assert hashlib.sha256(table.encode()).hexdigest() == GOLDEN_CYCLES[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_recording_does_not_change_results(name):
    # the queue occupancy of a raw record is read only when recording, so
    # both paths must agree on every metric, cycle and queue extreme
    sim = build_simulator(five_seconds(name))
    recorded = run(sim, record=True)
    assert recorded.metrics["media"].media_bytes
    assert replace(recorded, records=None) == run(sim, record=False)


# sha256 of each signal kind's 20 s adaptive stream (seed 1, deadband 0.1,
# 400 kbps video): the synthesized samples, their significance flags and
# the simulator's schedule, so a single flipped flag or packet shows
GOLDEN_STREAMS = {
    "contact-burst": "85cfe65c9ded1f8194f3d8f55a33dc473cdc8bcac14e0357f0bc0309890e6ed7",
    "filtered-noise": "39ee44b8b3b50cdf51eed27b72abc683533cd3cee340576397abcd82ed9f0136",
    "sum-of-sinusoids": "6265eab47fa517252056386a668f218a2199bd7dbf55dff2f0d0d84be74e4582",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_STREAMS))
def test_golden_adaptive_stream_digest(kind):
    h = hashlib.sha256()
    samples = synth_haptic_trace(SignalSpec(kind=kind, seed=1), 20.0)
    h.update(samples.tobytes())
    h.update(deadband_filter(samples, 0.1).tobytes())
    sim = build_simulator(parse_scenario(ADAPTIVE_ONLY.format(kind=kind)))
    for t, size, breakdown in sim.sources[0].schedule:
        h.update(repr((t, size, sorted(breakdown.items()))).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_STREAMS[kind]
