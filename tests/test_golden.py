"""Golden trace digests: the sha256 of the raw event trace of three short
runs. Any change to the engine's event order, arithmetic or record format
shows up here; a refactor that keeps these digests keeps the traces
byte-identical."""

import hashlib
from dataclasses import replace

import pytest

from teleqos import baseline_text, build_simulator, parse_scenario, run

MBPS = 1e6 / 8.0

ADAPTIVE_FLOW = """
[flow.vh]
kind = adaptive
deadband = 0.1
video_rate = 400 kbps
signal = contact-burst
signal_seed = 7
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trace_digest(name):
    make, digest = GOLDEN[name]
    trace = run(build_simulator(make(), 5.0), warmup=1.0, record=True)
    assert hashlib.sha256(trace.to_csv().encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_recording_does_not_change_results(name):
    # the queue occupancy of a raw record is read only when recording, so
    # both paths must agree on every metric, cycle and queue extreme
    sim = build_simulator(GOLDEN[name][0](), 5.0)
    recorded = run(sim, warmup=1.0, record=True)
    assert recorded.metrics["media"].media_bytes
    assert replace(recorded, records=None) == run(sim, warmup=1.0, record=False)
