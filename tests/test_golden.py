"""Golden trace digests: the sha256 of the raw event trace of three short
runs, and of the loss-cycle table each run segments. Any change to the
engine's event order, arithmetic or record format shows up here; a
refactor that keeps these digests keeps the traces byte-identical and the
cycles (bounds, queue and window extremes, merged losses, per-flow delay
extremes) unchanged. A third set pins the adaptive sampling pipeline of
each signal kind: samples, significance flags and packet schedule; a
fourth pins the text `teleqos --format csv rates` prints for each kind,
and a fifth the stdout and exit code of analyze, simulate and validate in
text and csv."""

import hashlib
from dataclasses import replace

import pytest
from oracles import recorded

from teleqos import (
    SignalSpec,
    baseline_text,
    build_simulator,
    deadband_filter,
    parse_scenario,
    run,
    synth_haptic_trace,
)
from teleqos.cli import main

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
    cfg = baseline()
    flows = tuple(replace(f, rate=3.6 * MBPS - 1.096 * MBPS, gap=None) if f.name == "cross" else f
                  for f in cfg.flows)  # gap None: packet/rate
    return replace(cfg, net=replace(cfg.net, n_ack=2), flows=flows)


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
    _, text = recorded(build_simulator(five_seconds(name)))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name][1]


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
    # every arrival reads the queue occupancy whether or not the run
    # records, and recording adds its own lines and reads on top; the
    # traces of both paths must be equal: every metric, cycle and census
    sim = build_simulator(five_seconds(name))
    trace, _ = recorded(sim)
    assert trace.metrics["media"].media_bytes
    assert trace == run(sim)


# sha256 of each signal kind's 20 s adaptive stream (seed 1, deadband 0.1,
# 400 kbps video): the synthesized samples, their significance flags and
# the packets the simulator's source yields, so a single flipped flag or
# packet shows
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
    for t, _, _, size, breakdown in sim.sources[0].arrivals(0):
        h.update(repr((t, size, sorted(breakdown.items()))).encode() + b"\n")
    assert h.hexdigest() == GOLDEN_STREAMS[kind]


# sha256 of `teleqos --format csv rates` on the same 20 s streams: the
# schedule's (time, size) pairs as the rate series reads them, and the text
GOLDEN_RATES = {
    "contact-burst": "b61f3659d9ef5def2fa671af5b9eec394bac01a9d9edc3058d22f7878f7d02df",
    "filtered-noise": "dc702bd43cdecc5a5318faa083d2811fb2beea6fc3d02ee3a314b65cfbd977a5",
    "sum-of-sinusoids": "b44ecf5777d5a96be5db0168ba2eef6c698c3ca29fcb55fc0a76c4518266876e",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_RATES))
def test_golden_rates_digest(kind, tmp_path, capsys):
    path = tmp_path / "adaptive.scn"
    path.write_text(ADAPTIVE_ONLY.format(kind=kind))
    assert main(["--format", "csv", "rates", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_RATES[kind]


# sha256 of the stdout, and the exit code, of every report format: analyze
# in text and csv on three scenarios (the baseline; no TCP and the cross
# flow at 5.5 Mbps, so R > mu fails stability with its note and skips
# haptic_jitter; the baseline with tight haptic limits), simulate for 25 s
# on the tight-limit scenario (its loss verdicts included) and a
# four-point validate sweep
TIGHT_QOS = """
[qos]
haptic_delay = 20 ms
haptic_jitter = 1 ms
haptic_loss = 0
"""

REPORT_SCENARIOS = {
    "baseline": baseline_text(),
    "no-tcp-overload": baseline_text().replace("[flow.bulk]\nkind = tcp\n", "")
                                      .replace("rate = 1.904 Mbps", "rate = 5.5 Mbps"),
    "tight-qos": baseline_text() + TIGHT_QOS,
}

REPORT_RUNS = {
    "analyze-baseline": ("baseline", ("analyze",)),
    "analyze-no-tcp-overload": ("no-tcp-overload", ("analyze",)),
    "analyze-tight-qos": ("tight-qos", ("analyze",)),
    "simulate-tight-qos": ("tight-qos", ("simulate", "--duration", "25")),
    "validate-baseline": ("baseline", ("validate", "--sweep", "R=2Mbps,5.5Mbps",
                                       "--duration", "8", "--warmup", "2")),
}

GOLDEN_REPORTS = {
    ("analyze-baseline", "csv"): (
        0, "67c6830f1eb5bc411d42994353e37e37373e82700516c159a0b93fd322282c0f"),
    ("analyze-baseline", "text"): (
        0, "0c4735387393209e724c2e717e7853363aea05889dbf9322556e98c7876660bd"),
    ("analyze-no-tcp-overload", "csv"): (
        1, "e732e5542db5bc4098ae554f036b397ff57322593f801a3f84f6efc7cd2e25d8"),
    ("analyze-no-tcp-overload", "text"): (
        1, "a9d075652380c43442c04bdb7bb7da6ebd5da628189e3c6ce040afc7eab64a06"),
    ("analyze-tight-qos", "csv"): (
        1, "1813ea28c1277ab669cbf5a2a41cc15d86cae94ce1a82f0373ef8ec1ae315b27"),
    ("analyze-tight-qos", "text"): (
        1, "490f8d087500aff47677a6a1b709b9b9f238de07627d654f474d1e1157050fb6"),
    ("simulate-tight-qos", "csv"): (
        1, "5fa0426dc0ae94237fdb46171b1288187b0bae9a77491ce608b5ac6047416708"),
    ("simulate-tight-qos", "text"): (
        1, "8925745205b3eb05d9d24d4efb968a736675902a92c1e8f17af0e770f49dc11a"),
    ("validate-baseline", "csv"): (
        0, "4adf58b0a4a27279449ca1b4bebadefd61c70d88f857d775f09415fbbebbfdaf"),
    ("validate-baseline", "text"): (
        0, "b2d9e0d8eadd25c6ba46f04ced539e6695442037406b1807fca86eb02f12f35c"),
}


@pytest.mark.parametrize("name, fmt", sorted(GOLDEN_REPORTS))
def test_golden_report_digest(name, fmt, tmp_path, capsys):
    scenario, (command, *options) = REPORT_RUNS[name]
    path = tmp_path / "scenario.scn"
    path.write_text(REPORT_SCENARIOS[scenario])
    code = main(["--format", fmt, command, "--config", str(path), *options])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_REPORTS[name, fmt]
