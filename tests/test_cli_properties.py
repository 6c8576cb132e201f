"""Property tests of the command line and of the library under it: whatever
arguments and scenario text reach `main`, it returns a documented exit
code, and it reports a failure in one `teleqos:` line, never a traceback;
whatever scenario text and sweep reach the library's entry points, the
only error they raise is a `ScenarioError`."""

import io
import re
from contextlib import redirect_stderr, redirect_stdout, suppress
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from teleqos import (
    ScenarioError,
    baseline_text,
    build_simulator,
    haptic_spec_of,
    parse_scenario,
    qos_check,
    run_validation,
)
from teleqos.cli import main

EXIT_CODES = {0, 1, 2, 3}

# the shipped scenario cut to a 1 s run, so that no command simulates or
# synthesizes more than a second
PLAIN = baseline_text().replace("duration = 60 s\nwarmup = 20 s", "duration = 1 s\nwarmup = 0.2 s")
# with an adaptive flow, which `rates` needs; the cross flow makes room for it
ADAPTIVE = PLAIN.replace("rate = 1.904 Mbps", "rate = 1 Mbps") + (
    "\n[flow.vh]\nkind = adaptive\ndeadband = 0.1\nvideo_rate = 400 kbps\n"
)
VALUE = re.compile(r"^(\w+ = )(-?[\d.]+)(.*)$", re.MULTILINE)
# numeric texts float() reads that no run window or scenario value may take
BAD_NUMBERS = ["nan", "inf", "-inf", "-1", "1e400", "0", "1e300"]
# a run window of at most 1 s, or a number that must be rejected
WINDOW = st.one_of(st.floats(0.0, 1.0).map(repr), st.sampled_from(BAD_NUMBERS))


def either(good: list, bad: list):
    """A good value or a bad one, each half of the time."""
    return st.one_of(st.sampled_from(good), st.sampled_from(bad))


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "plain.scn").write_text(PLAIN)
    (root / "adaptive.scn").write_text(ADAPTIVE)
    (root / "directory").mkdir()
    return root


@st.composite
def scenario_texts(draw):
    """ADAPTIVE or PLAIN, with one numeric value replaced by a bad number."""
    text = draw(st.sampled_from([PLAIN, ADAPTIVE]))
    m = draw(st.sampled_from(list(VALUE.finditer(text))))
    bad = draw(st.sampled_from(BAD_NUMBERS))
    return text[: m.start(2)] + bad + text[m.end(2):]


@st.composite
def paths(draw, root, *files):
    return str(root / draw(either(list(files), ["directory", "missing/file"])))


@st.composite
def argvs(draw, root):
    argv = []
    if draw(st.booleans()):
        argv.append(f"--format={draw(st.sampled_from(['csv', 'text']))}")
    if draw(st.booleans()):
        argv.append(f"--seed={draw(st.integers(-1, 2**33))}")
    command = draw(st.sampled_from(["analyze", "simulate", "validate", "rates"]))
    argv += [command, f"--config={draw(paths(root, 'plain.scn', 'adaptive.scn', 'mutant.scn'))}"]
    if draw(st.booleans()):
        argv.append(f"--out={draw(paths(root, 'out.txt'))}")
    if command in ("simulate", "validate"):
        for flag in ("--duration", "--warmup"):
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(WINDOW)}")
    if command == "simulate" and draw(st.booleans()):
        argv.append(f"--trace={draw(paths(root, 'trace.csv'))}")
    if command == "validate":
        argv.append("--sweep=" + draw(either(
            ["R=2Mbps,3Mbps", "mu=6Mbps"], ["R=nan Mbps", "R=inf Mbps", "R=-1 Mbps", "Z=1Mbps", "R="]
        )))
        argv.append("--nack=" + draw(either(["1", "2", "1,2"], ["0", "3", "x", ""])))
        argv.append(f"--jobs={draw(either([1], [0, -1]))}")  # never a process pool
    if command == "rates" and draw(st.booleans()):
        argv.append(f"--window={draw(either(['0.1', '0.01', '1e-9'], BAD_NUMBERS))}")
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_main_returns_a_documented_code_and_at_most_one_line(root, data):
    (root / "mutant.scn").write_text(data.draw(scenario_texts(), label="mutant"))
    argv = data.draw(argvs(root), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in EXIT_CODES
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("teleqos: ")), lines


# sweep values in B/s: zero, a rate below the telehaptic one, rates on both
# sides of the 6 Mbps link, and numbers no rate may take
SWEEP_VALUES = [0.0, 1.0, 125e3, 375e3, 750e3, 1e6, -1.0, float("inf"), float("nan"), 1e300]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=st.one_of(st.sampled_from([PLAIN, ADAPTIVE]), scenario_texts()), tcp=st.booleans(),
       var=st.sampled_from(["R", "mu"]),
       grid=st.lists(st.sampled_from(SWEEP_VALUES), min_size=1, max_size=3),
       nacks=st.lists(st.integers(0, 3), min_size=1, max_size=2),
       jobs=st.integers(-1, 2))
def test_library_raises_only_scenario_errors(text, tcp, var, grid, nacks, jobs):
    # a shipped scenario or a mutant, with or without its TCP flow; no engine run
    try:
        config = parse_scenario(text)
        if not tcp:
            config = replace(config, flows=tuple(f for f in config.flows if f.kind != "tcp"))
    except ScenarioError:
        return
    with suppress(ScenarioError):
        qos_check(config.net, haptic_spec_of(config), config.qos, config.mux)
    with suppress(ScenarioError):
        build_simulator(config)
    with suppress(ScenarioError):
        run_validation(config, var, grid, nack_grid=tuple(nacks), simulate=False, jobs=jobs)
