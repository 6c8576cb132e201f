"""Validation runner, report emission and the command-line interface."""

import concurrent.futures
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from oracles import recorded

import teleqos
from teleqos import (
    baseline_text,
    build_simulator,
    parse_scenario,
    run,
    simulator,
)
from teleqos.cli import main
from teleqos.model import (
    CbrAggregate,
    ConditionResult,
    InvalidParams,
    av_delay_bounds,
    cbr_jitter_max,
    m_tcp_max,
    qos_check,
)
from teleqos.scenario import ScenarioSemanticError
from teleqos.validation import (
    HUMAN_UNITS,
    VALIDATION_COLUMNS,
    compliance_from_simulation,
    emit_compliance,
    emit_validation,
    haptic_spec_of,
    run_validation,
)

MBPS = 1e6 / 8.0


@pytest.fixture
def base_cfg():
    return parse_scenario(baseline_text())


def test_run_validation_analytic_columns(base_cfg):
    grid = [r * MBPS for r in (1.096, 2, 3, 4, 5, 5.5)]
    rows = run_validation(base_cfg, "R", grid, nack_grid=(1,), simulate=False)
    assert len(rows) == 6
    assert [r.control for r in rows] == sorted(grid)
    for row in rows:
        assert row.dmax_a == pytest.approx(26.67e-3, abs=0.02e-3)
        assert row.dmin_s is None
    # single-loss flag flips above 0.65*mu = 3.9 Mbps
    assert [r.flags.single_loss for r in rows] == [True, True, True, False, False, False]


def test_run_validation_nack_sensitivity(base_cfg):
    rows = run_validation(base_cfg, "R", [3 * MBPS], nack_grid=(1, 2), simulate=False)
    assert [r.nack for r in rows] == [1, 2]


def test_mu_sweep(base_cfg):
    # heavy cross traffic (aggregate 7.996 Mbps) with the capacity as control
    cfg = replace(base_cfg, net=replace(base_cfg.net, mu=9 * MBPS, tau=1e-3))
    flows = tuple(replace(f, rate=6.9 * MBPS, gap=None) if f.name == "cross" else f
                  for f in cfg.flows)  # gap None: packet/rate
    cfg = replace(cfg, flows=flows)
    rows = run_validation(cfg, "mu", [9 * MBPS, 12 * MBPS], nack_grid=(2,), simulate=False)
    assert [round(r.jit_a * 1e3, 2) for r in rows] == [1.46, 1.62]


def test_emit_validation_csv_shape(base_cfg):
    grid = [r * MBPS for r in (1.096, 2, 3, 4, 5, 5.5)]
    rows = run_validation(base_cfg, "R", grid, nack_grid=(1,), simulate=False)
    text = emit_validation(rows, "csv")
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(VALIDATION_COLUMNS)
    assert len(lines) == 7
    assert all(len(line.split(",")) == 9 for line in lines)
    # emission is deterministic
    assert text == emit_validation(rows, "csv")


def test_emit_validation_empty():
    assert emit_validation([], "csv").strip() == ",".join(VALIDATION_COLUMNS)


def test_validation_csv_deterministic_end_to_end(base_cfg):
    grid = [3 * MBPS]
    a = emit_validation(run_validation(base_cfg, "R", grid, nack_grid=(1,),
                                       duration=8.0, warmup=2.0), "csv")
    b = emit_validation(run_validation(base_cfg, "R", grid, nack_grid=(1,),
                                       duration=8.0, warmup=2.0), "csv")
    assert a == b


def test_parallel_jobs_match_serial(base_cfg):
    grid = [r * MBPS for r in (2, 3, 4)]
    serial = run_validation(base_cfg, "R", grid, nack_grid=(1, 2), simulate=False)
    parallel = run_validation(base_cfg, "R", grid, nack_grid=(1, 2), simulate=False, jobs=3)
    assert serial == parallel


def test_parallel_jobs_match_serial_with_simulation(base_cfg):
    grid = [r * MBPS for r in (2, 3)]
    kwargs = dict(nack_grid=(1, 2), duration=4.0, warmup=1.0, simulate=True)
    serial = run_validation(base_cfg, "R", grid, jobs=1, **kwargs)
    parallel = run_validation(base_cfg, "R", grid, jobs=2, **kwargs)
    assert all(r.jit_s is not None and r.dmax_s is not None for r in serial)
    assert serial == parallel


def _no_run(*args, **kwargs):
    raise AssertionError("a scenario ran before its input errors were checked")


@pytest.mark.parametrize("jobs, tcp, error, message", [
    pytest.param(1, True, ScenarioSemanticError, "must stay below the link capacity", id="1"),
    pytest.param(2, True, ScenarioSemanticError, "must stay below the link capacity", id="2"),
    pytest.param(1, False, InvalidParams, "aggregate CBR rate", id="no-tcp-1"),
    pytest.param(2, False, InvalidParams, "aggregate CBR rate", id="no-tcp-2"),
])
def test_run_validation_checks_every_point_before_running_any(base_cfg, monkeypatch, jobs, tcp,
                                                              error, message):
    # the last R point overloads the link: it is rejected before the first
    # point simulates, in the serial path and in the pool (whose forked
    # workers inherit the patch) alike. With a TCP flow the scenario
    # rejects it; without one the simulator runs it, so the closed forms do
    if not tcp:
        base_cfg = replace(base_cfg, flows=tuple(f for f in base_cfg.flows if f.kind != "tcp"))
    monkeypatch.setattr(simulator, "run", _no_run)
    with pytest.raises(error, match=message):
        run_validation(base_cfg, "R", [2 * MBPS, 3 * MBPS, 6 * MBPS], nack_grid=(1, 2), jobs=jobs)


def _without_tcp(cfg):
    return replace(cfg, flows=tuple(f for f in cfg.flows if f.kind != "tcp"))


def _analyze(text):
    cfg = parse_scenario(text)
    return qos_check(cfg.net, haptic_spec_of(cfg), cfg.qos, cfg.mux)


# a library call outside parse_scenario meets a value type's own check,
# which is a ScenarioSemanticError by its class
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda cfg: run_validation(_without_tcp(cfg), "R", [2 * MBPS, 6 * MBPS],
                                            simulate=False),
                 "aggregate CBR rate 750000.0 B/s >= link capacity 750000.0 B/s", id="R-at-mu"),
    pytest.param(lambda cfg: run_validation(cfg, "mu", [0.0], simulate=False),
                 "link capacity must be positive, got 0.0", id="mu-0"),
    pytest.param(lambda cfg: run_validation(_without_tcp(cfg), "mu", [1.0], simulate=False),
                 "aggregate CBR rate 375000.0 B/s >= link capacity 1.0 B/s", id="mu-1Bps"),
    pytest.param(lambda cfg: run_validation(cfg, "R", [3 * MBPS], nack_grid=(0,), simulate=False),
                 "cumulative-ACK factor must be >= 1, got 0", id="nack-0"),
    pytest.param(lambda cfg: _analyze(baseline_text() + "\n[qos]\nhaptic_delay = -5 ms\n"),
                 "haptic_delay must be >= 0, got -0.005", id="negative-deadline"),
    pytest.param(lambda cfg: av_delay_bounds(cfg.mux, 1e-3, -0.005),
                 "haptic deadline must be >= 0, got -0.005", id="av-delay-bounds"),
    pytest.param(lambda cfg: run_validation(cfg, "R", [3 * MBPS], simulate=False, jobs=0),
                 "jobs must be >= 1, got 0", id="jobs-0"),
    *(pytest.param(lambda cfg, f=f, t=t: f(cfg.net, CbrAggregate(0.0), t),
                   f"interval must be positive and finite, got {t}", id=f"{f.__name__}-{t}")
      for f in (m_tcp_max, cbr_jitter_max) for t in (math.inf, math.nan)),
    pytest.param(lambda cfg: av_delay_bounds(cfg.mux, math.nan, 0.05),
                 "inter-packet gap must be positive and finite, got nan", id="av-gap-nan"),
    *(pytest.param(lambda cfg, d=d: av_delay_bounds(cfg.mux, 1e-3, d),
                   f"haptic deadline must be finite, got {d}", id=f"av-deadline-{d}")
      for d in (math.inf, math.nan)),
])
def test_library_reports_a_bad_value_as_a_semantic_error(base_cfg, call, message):
    with pytest.raises(ScenarioSemanticError) as info:
        call(base_cfg)
    assert str(info.value) == message


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_validation_builds_every_point_before_running_any(base_cfg, monkeypatch, jobs):
    # n_ack = 3 with a TCP source is the simulator's own rule: with
    # simulate on, it is rejected when the points are built, before the
    # n_ack = 1 points ahead of it run
    monkeypatch.setattr(simulator, "run", _no_run)
    with pytest.raises(ScenarioSemanticError, match="n_ack = 3 with a TCP source"):
        run_validation(base_cfg, "R", [2 * MBPS, 3 * MBPS], nack_grid=(1, 3), jobs=jobs)


def test_run_validation_builds_each_point_once(base_cfg, monkeypatch):
    built = []
    build = simulator.build_simulator
    monkeypatch.setattr(simulator, "build_simulator", lambda cfg: built.append(cfg) or build(cfg))
    rows = run_validation(base_cfg, "R", [3 * MBPS], nack_grid=(1, 2), duration=2.0, warmup=1.0)
    assert [cfg.net.n_ack for cfg in built] == [row.nack for row in rows] == [1, 2]


def test_run_validation_sizes_the_pool_by_the_points(base_cfg, monkeypatch):
    # a stand-in pool records the size asked for and runs each point here;
    # no worker process starts
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    grid = [r * MBPS for r in (2, 3, 4)]
    rows = run_validation(base_cfg, "R", grid, nack_grid=(1, 2), simulate=False, jobs=64)
    assert sizes == [6]
    assert rows == run_validation(base_cfg, "R", grid, nack_grid=(1, 2), simulate=False)
    # one point needs no pool at all
    run_validation(base_cfg, "R", [3 * MBPS], nack_grid=(1,), simulate=False, jobs=64)
    assert sizes == [6]


LATE_MEDIA = baseline_text().replace("[flow.media]\n", "[flow.media]\nphase = 100 s\n")


def test_validation_without_a_telehaptic_delivery(tmp_path, capsys, monkeypatch):
    # the telehaptic flow starts after the run ends: TCP still closes loss
    # cycles, but none holds a media delivery, so the row has no measured
    # delays or jitter, in the runner and through the CLI alike
    traces = []
    simulate = simulator.run
    monkeypatch.setattr(simulator, "run", lambda sim: traces.append(simulate(sim)) or traces[-1])
    cfg = parse_scenario(LATE_MEDIA)
    (row,) = run_validation(cfg, "R", [3 * MBPS], nack_grid=(1,), duration=30.0, warmup=10.0)
    assert len(traces[0].cycles) >= 2
    assert (row.dmin_s, row.dmax_s, row.jit_s) == (None, None, None)
    code = main(["--format", "csv", "validate", "--config", write_cfg(tmp_path, LATE_MEDIA),
                 "--sweep", "R=3Mbps", "--nack", "1", "--duration", "30", "--warmup", "10"])
    assert code == 0
    cells = capsys.readouterr().out.splitlines()[1].split(",")
    assert cells[:2] == ["3", "1"] and cells[3::2] == ["", "", ""]


def test_empty_measurement_window_gives_no_jitter(base_cfg):
    (row,) = run_validation(base_cfg, "R", [3 * MBPS], nack_grid=(1,), duration=1.0, warmup=1.0)
    assert row.jit_s is None and row.dmin_s is None and row.dmax_s is None


def test_compliance_from_simulation(base_cfg):
    cfg = replace(base_cfg, duration=6.0, warmup=2.0)
    report = compliance_from_simulation(cfg, run(build_simulator(cfg)))
    names = [c.name for c in report.conditions]
    assert names[:4] == ["stability", "haptic_delay", "haptic_jitter", "packet_size"]
    assert "haptic_loss" in names and "video_loss" in names
    text = emit_compliance(report, "text")
    assert "overall:" in text
    csv_text = emit_compliance(report, "csv")
    assert csv_text.splitlines()[0].startswith("condition,")


def test_every_condition_carries_a_unit_the_text_report_formats(base_cfg):
    # a report with mux and measured losses holds every kind of condition
    cfg = replace(base_cfg, duration=6.0, warmup=2.0)
    report = compliance_from_simulation(cfg, run(build_simulator(cfg)))
    assert {c.name: c.unit for c in report.conditions} == {
        "stability": "B/s", "haptic_delay": "s", "haptic_jitter": "s", "packet_size": "B",
        "audio_delay": "s", "video_delay": "s", "haptic_loss": "", "audio_loss": "", "video_loss": "",
    }
    assert {c.unit for c in report.conditions} <= set(HUMAN_UNITS)


def test_emit_compliance_formats_a_value_by_its_unit_not_its_name(base_cfg):
    report = qos_check(base_cfg.net, haptic_spec_of(base_cfg))
    report.conditions.append(
        ConditionResult("provisioning", passed=True, value=2.5 * MBPS, limit=4 * MBPS, unit="B/s")
    )
    assert "\nprovisioning   PASS  (2.5 Mbps vs limit 4 Mbps)\n" in emit_compliance(report, "text")


def test_a_loss_equal_to_its_limit_passes(base_cfg):
    # unlike the closed-form conditions, a loss verdict passes at equality:
    # 274 of 546,630 haptic bytes are dropped in this window
    cfg = replace(base_cfg, duration=6.0, warmup=2.0)
    trace = run(build_simulator(cfg))
    loss = compliance_from_simulation(cfg, trace).condition("haptic_loss").value
    assert loss > 0
    for limit, passed in ((loss, True), (math.nextafter(loss, 0.0), False)):
        qos = replace(cfg.qos, haptic=replace(cfg.qos.haptic, loss=limit))
        cond = compliance_from_simulation(replace(cfg, qos=qos), trace).condition("haptic_loss")
        assert (cond.value, cond.limit, cond.passed) == (loss, limit, passed)


def test_no_loss_passes_a_zero_limit(base_cfg):
    # with a 3 kB queue only TCP and cross packets are dropped in this window
    cfg = replace(base_cfg, duration=6.0, warmup=2.0, net=replace(base_cfg.net, buf=3000.0))
    cfg = replace(cfg, qos=replace(cfg.qos, haptic=replace(cfg.qos.haptic, loss=0.0)))
    cond = compliance_from_simulation(cfg, run(build_simulator(cfg))).condition("haptic_loss")
    assert (cond.value, cond.limit, cond.passed) == (0.0, 0.0, True)


# --------------------------------------------------------------------------
# CLI


def write_cfg(tmp_path, text):
    path = tmp_path / "scenario.scn"
    path.write_text(text)
    return str(path)


def test_cli_analyze_pass(tmp_path, capsys):
    path = write_cfg(tmp_path, baseline_text())
    code = main(["analyze", "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out


def test_cli_analyze_qos_fail(tmp_path, capsys):
    text = baseline_text().replace("tau = 8 ms", "tau = 15 ms").replace("buf = 14 kB", "buf = 45 kB")
    path = write_cfg(tmp_path, text)
    code = main(["analyze", "--config", path])
    out = capsys.readouterr().out
    assert code == 1
    assert "haptic_delay   FAIL" in out


@pytest.mark.parametrize("line, message", [
    ("haptic_delay = -5 ms", "haptic_delay must be >= 0, got -0.005"),
    ("haptic_jitter = -1 ms", "haptic_jitter must be >= 0, got -0.001"),
    ("haptic_loss = -1%", "haptic_loss must be >= 0, got -0.01"),
])
@pytest.mark.parametrize("mux", [True, False], ids=["mux", "no-mux"])
def test_cli_analyze_rejects_a_negative_qos_limit(tmp_path, capsys, line, message, mux):
    text = baseline_text() + f"\n[qos]\n{line}\n"
    if not mux:
        text = text.replace("[mux]\ns_a = 160 B\ns_m = 58 B\nf_v = 25 Hz\n", "")
        assert "[mux]" not in text
    assert main(["analyze", "--config", write_cfg(tmp_path, text)]) == 2
    assert capsys.readouterr() == ("", f"teleqos: {message}\n")


def test_cli_input_error(tmp_path, capsys):
    path = write_cfg(tmp_path, baseline_text().replace("mu = 6 Mbps", "mu = 6"))
    code = main(["analyze", "--config", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 5" in err


def test_cli_rejects_a_tcp_packet_size(tmp_path, capsys):
    # TCP packets are s_tcp bytes; a flow-level packet size is an input error
    text = baseline_text().replace("kind = tcp\n", "kind = tcp\npacket = 1400 B\n")
    path = write_cfg(tmp_path, text)
    assert main(["simulate", "--config", path, "--duration", "1"]) == 2
    assert "a tcp flow takes no packet" in capsys.readouterr().err


def test_cli_missing_file():
    assert main(["analyze", "--config", "/nonexistent.scn"]) == 2


def test_cli_directory_as_config_is_an_input_error(capsys):
    assert main(["analyze", "--config", "/"]) == 2
    assert capsys.readouterr().err == "teleqos: [Errno 21] Is a directory: '/'\n"


def test_cli_directory_as_out_is_an_input_error(tmp_path, capsys):
    path = write_cfg(tmp_path, baseline_text())
    assert main(["analyze", "--config", path, "--out", "/"]) == 2
    assert capsys.readouterr().err == "teleqos: [Errno 21] Is a directory: '/'\n"


def test_cli_engine_fault_has_its_own_exit_code(tmp_path, capsys, monkeypatch):
    # a link that never takes the head packet into service breaks a
    # post-condition of the engine, which is neither a QoS failure nor bad
    # input; the trace streamed so far is thrown away with its file
    monkeypatch.setattr(simulator.DropTailQueue, "start_next", lambda self, t: self.packets[0])
    path = write_cfg(tmp_path, baseline_text())
    trace_path = tmp_path / "events.csv"
    trace_path.write_bytes(b"an earlier trace\n")
    before = sorted(os.listdir(tmp_path))
    assert main(["simulate", "--config", path, "--duration", "0.5", "--warmup", "0",
                 "--trace", str(trace_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("teleqos: simulation failed: link idle at t = 0 ns")
    assert err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == before
    assert trace_path.read_bytes() == b"an earlier trace\n"


def test_cli_simulate_with_trace(tmp_path, capsys):
    path = write_cfg(tmp_path, baseline_text())
    trace_path = tmp_path / "events.csv"
    code = main(["simulate", "--config", path, "--duration", "5", "--warmup", "1",
                 "--trace", str(trace_path)])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert "media:" in out
    header = trace_path.read_text().splitlines()[0]
    assert header == "time_ns,event,flow,seq,size_bytes,queue_bytes,cwnd_pkts"
    # the file holds every block the engine wrote, in order, and no
    # temporary file is left beside it
    cfg = replace(parse_scenario(baseline_text()), duration=5.0, warmup=1.0)
    assert trace_path.read_bytes() == recorded(build_simulator(cfg))[1].encode()
    assert sorted(os.listdir(tmp_path)) == ["events.csv", "scenario.scn"]


# a run short enough for the tests of where --trace goes, with its warmup
SHORT_RUN = ["--duration", "1", "--warmup", "0.5"]


def _short_trace() -> bytes:
    cfg = replace(parse_scenario(baseline_text()), duration=1.0, warmup=0.5)
    return recorded(build_simulator(cfg))[1].encode()


def test_cli_simulate_trace_through_a_symlink_replaces_the_file_it_names(tmp_path, capsys):
    # the new trace takes the place of the file the link points to; the
    # link stays a link, and a file that has the name the temporary file
    # would first take is left alone
    path = write_cfg(tmp_path, baseline_text())
    target = tmp_path / "traces" / "events.csv"
    target.parent.mkdir()
    target.write_bytes(b"an earlier trace\n")
    squatter = target.parent / f".teleqos-{os.getpid()}-0.tmp"
    squatter.write_bytes(b"not ours\n")
    link = tmp_path / "latest.csv"
    link.symlink_to(target)
    assert main(["simulate", "--config", path, *SHORT_RUN, "--trace", str(link)]) in (0, 1)
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == _short_trace()
    assert squatter.read_bytes() == b"not ours\n"
    assert sorted(os.listdir(target.parent)) == [squatter.name, "events.csv"]


def test_perfbench_spans_see_every_block_of_the_streamed_trace(tmp_path, capsys, monkeypatch):
    # the benchmark times trace-cli by wrapping Trace.to_csv and the files
    # cli.py opens, and sums the lengths to_csv returns; a rename on either
    # side fails here instead of in a traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from spans import Tracer, call_counts, installed

    path = write_cfg(tmp_path, baseline_text())
    trace_path = tmp_path / "events.csv"
    tracer = Tracer()
    with installed(tracer):
        code = main(["simulate", "--config", path, "--duration", "2", "--warmup", "1",
                     "--trace", str(trace_path)])
    assert code in (0, 1)
    calls = call_counts(tracer.spans)
    assert calls["simulator.to_csv"] > 1 and calls["cli.write"] > 1
    assert tracer.counts["simulator.trace_bytes"] == trace_path.stat().st_size
    # the blocks reach the file while the engine runs
    to_csv = {i for i, span in enumerate(tracer.spans) if span.name == "simulator.to_csv"}
    assert any(span.name == "cli.write" and span.parent in to_csv for span in tracer.spans)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_cli_simulate_streams_its_trace_into_a_fifo(tmp_path, capsys):
    # a target that is not a regular file takes the stream as it comes,
    # with no file created beside it and nothing renamed over it
    path = write_cfg(tmp_path, baseline_text())
    fifo = tmp_path / "events.fifo"
    os.mkfifo(fifo)
    before = sorted(os.listdir(tmp_path))
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["simulate", "--config", path, *SHORT_RUN, "--trace", str(fifo)]) in (0, 1)
    reader.join(timeout=60)
    assert not reader.is_alive() and received == [_short_trace()]
    assert sorted(os.listdir(tmp_path)) == before and fifo.is_fifo()


@pytest.mark.parametrize("argv, window", [
    ([], (3.0, 1.0)),
    (["--duration", "2"], (2.0, 1.0)),
    (["--warmup", "0.5"], (3.0, 0.5)),
])
def test_cli_simulate_runs_the_scenario_window(tmp_path, capsys, monkeypatch, argv, window):
    # --duration and --warmup override the file's run window, which is
    # the default
    text = baseline_text().replace("duration = 60 s", "duration = 3 s")
    path = write_cfg(tmp_path, text.replace("warmup = 20 s", "warmup = 1 s"))
    built = []
    build = simulator.build_simulator
    monkeypatch.setattr(simulator, "build_simulator", lambda cfg: built.append(cfg) or build(cfg))
    assert main(["simulate", "--config", path, *argv]) == 0
    assert [(cfg.duration, cfg.warmup) for cfg in built] == [window]


def test_cli_simulate_checks_the_closed_forms_before_running(tmp_path, capsys, monkeypatch):
    # the closed forms take at most one cbr cross flow: a second one is an
    # input error reported before the run, not after it
    text = baseline_text() + "\n[flow.cross2]\nkind = cbr\nrate = 100 kbps\npacket = 150 B\n"
    monkeypatch.setattr(simulator, "run", _no_run)
    assert main(["simulate", "--config", write_cfg(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert "at most one CBR cross-traffic flow" in captured.err and captured.out == ""


@pytest.mark.parametrize("option", ["--trace", "--out"])
def test_cli_simulate_opens_its_outputs_before_running(tmp_path, capsys, monkeypatch, option):
    # an output path that cannot be opened is an input error, found before
    # anything is simulated
    monkeypatch.setattr(simulator, "run", _no_run)
    path = write_cfg(tmp_path, baseline_text())
    assert main(["simulate", "--config", path, option, str(tmp_path / "missing" / "o.csv")]) == 2
    assert "No such file or directory" in capsys.readouterr().err


ADAPTIVE_FLOW = (
    "\n[flow.vh]\nkind = adaptive\ndeadband = 0.1\nvideo_rate = 400 kbps\n"
    "signal = contact-burst\namplitude = 1.0\nsignal_seed = 7\n"
)


@pytest.mark.parametrize("command, work, argv", [
    ("validate", "run", ["--sweep", "R=2Mbps,3Mbps"]),
    ("rates", "build_simulator", []),
])
def test_cli_opens_out_before_its_work(tmp_path, capsys, monkeypatch, command, work, argv):
    # a sweep or a synthesized stream is not thrown away for a bad --out path
    monkeypatch.setattr(simulator, work, _no_run)
    text = baseline_text().replace("rate = 1.904 Mbps", "rate = 1 Mbps") + ADAPTIVE_FLOW
    path = write_cfg(tmp_path, text)
    out = str(tmp_path / "missing" / "o.txt")
    assert main([command, "--config", path, *argv, "--out", out]) == 2
    assert "No such file or directory" in capsys.readouterr().err


def test_cli_simulate_keeps_out_when_it_fails_after_its_run(tmp_path, capsys):
    # the shipped scenario warms up for 20 s, so a 20 s run measures
    # nothing: the error comes after the run and the report is not written
    out_path = tmp_path / "report.txt"
    out_path.write_text("an earlier report\n")
    path = write_cfg(tmp_path, baseline_text())
    assert main(["simulate", "--config", path, "--duration", "20", "--out", str(out_path)]) == 2
    assert "no haptic bytes" in capsys.readouterr().err
    assert out_path.read_text() == "an earlier report\n"


def test_cli_simulate_keeps_its_trace_when_it_fails_after_its_run(tmp_path, capsys):
    # a 1 ms run carries no haptic byte to judge: the run succeeds, the
    # compliance check after it fails, neither output is replaced and the
    # streamed trace leaves no file behind
    trace_path, out_path = tmp_path / "events.csv", tmp_path / "report.txt"
    trace_path.write_bytes(b"an earlier trace\n")
    out_path.write_bytes(b"an earlier report\n")
    path = write_cfg(tmp_path, baseline_text())
    before = sorted(os.listdir(tmp_path))
    argv = ["simulate", "--config", path, "--duration", "0.001", "--warmup", "0",
            "--trace", str(trace_path), "--out", str(out_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("teleqos: no haptic bytes measured") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == before
    assert trace_path.read_bytes() == b"an earlier trace\n"
    assert out_path.read_bytes() == b"an earlier report\n"


def test_cli_simulate_writes_its_report_to_out(tmp_path, capsys):
    path = write_cfg(tmp_path, baseline_text())
    argv = ["simulate", "--config", path, "--duration", "3", "--warmup", "1"]
    code = main(argv)
    printed = capsys.readouterr().out
    out_path = tmp_path / "report.txt"
    assert main([*argv, "--out", str(out_path)]) == code
    assert capsys.readouterr().out == ""
    assert out_path.read_text() == printed and "overall:" in printed


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_validate_rejects_jobs_below_one(tmp_path, capsys, monkeypatch, jobs):
    monkeypatch.setattr(simulator, "run", _no_run)
    path = write_cfg(tmp_path, baseline_text())
    assert main(["validate", "--config", path, "--sweep", "R=3Mbps", "--jobs", jobs]) == 2
    assert capsys.readouterr().err == f"teleqos: jobs must be >= 1, got {jobs}\n"


@pytest.mark.parametrize("argv, message", [
    (["--duration", "-1"], "duration must be finite and >= 0, got -1.0"),
    (["--warmup", "-1"], "warmup must lie within [0, duration], got warmup -1.0 and duration 60.0"),
    (["--duration", "10", "--warmup", "20"],
     "warmup must lie within [0, duration], got warmup 20.0 and duration 10.0"),
])
def test_cli_names_the_values_of_a_bad_run_window(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.setattr(simulator, "build_simulator", _no_run)
    path = write_cfg(tmp_path, baseline_text())
    assert main(["simulate", "--config", path, *argv]) == 2
    assert capsys.readouterr().err == f"teleqos: {message}\n"


SHIPPED = baseline_text()
NO_TCP = SHIPPED.replace("[flow.bulk]\nkind = tcp\n", "")
CLOCK = "exceeds the nanosecond clock's limit of 2^63 ns (about 292 years)"


@pytest.mark.parametrize("command, text, argv, message", [
    ("simulate", SHIPPED, ["--duration", "1e300"], f"duration = 1e+300 s {CLOCK}"),
    ("validate", SHIPPED, ["--duration", "1e300", "--sweep", "R=3Mbps"],
     f"duration = 1e+300 s {CLOCK}"),
    ("simulate", SHIPPED.replace("tau = 8 ms", "tau = 1e300 s"), [], f"tau = 1e+300 s {CLOCK}"),
    ("simulate", SHIPPED.replace("gap = 1 ms\n", "gap = 1 ms\nphase = 1e300 s\n"), [],
     f"flow 'media': phase = 1e+300 s {CLOCK}"),
    ("simulate", SHIPPED.replace("rate = 1.096 Mbps\npacket = 137 B\ngap = 1 ms",
                                 "rate = 1e-300 Bps\npacket = 1 B"), [],
     f"flow 'media': gap = 1e+300 s {CLOCK}"),
    ("simulate", NO_TCP.replace("mu = 6 Mbps", "mu = 1e-300 Bps"), [],
     f"2 tau + buf/mu = 1.4e+304 s {CLOCK}"),
    ("simulate", NO_TCP.replace("rate = 1.904 Mbps\npacket = 150 B", "rate = 1e20 Bps\npacket = 1e20 B"),
     [], f"flow 'cross': the link time of a 100000000000000000000 B packet = 1.33333e+14 s {CLOCK}"),
    ("simulate", SHIPPED.replace("rate = 1.904 Mbps", "rate = 1 Mbps")
     + ADAPTIVE_FLOW.replace("400 kbps", "1e300 kbps"), ["--duration", "1", "--warmup", "0.2"],
     "flow 'vh': video_rate 1.25e+302 B/s and header 87 B make a 1.875e+300 B packet; "
     "packet sizes must stay below 2^63 B"),
], ids=["simulate-duration", "validate-duration", "tau", "phase", "gap", "mu", "link-time",
        "adaptive-size"])
def test_cli_names_a_value_beyond_the_engine_integers(tmp_path, capsys, command, text, argv,
                                                      message):
    # each value is a finite float the engine's integer clock or int64 packet
    # sizes cannot hold; building the simulator rejects it before any run
    path = write_cfg(tmp_path, text)
    assert main([command, "--config", path, *argv]) == 2
    assert capsys.readouterr().err == f"teleqos: {message}\n"


def test_cli_rejects_an_adaptive_total_beyond_int64(tmp_path, capsys):
    # about 1.2e19 B of video in 120 s: the bytes are summed exactly, so
    # the mean rate is not wrapped around past the link capacity check
    path = write_cfg(tmp_path, SHIPPED + ADAPTIVE_FLOW.replace("400 kbps", "1e17 Bps"))
    assert main(["simulate", "--config", path, "--duration", "120"]) == 2
    assert capsys.readouterr().err == (
        "teleqos: flows: aggregate CBR rate 1e+17 B/s (incl. adaptive mean) "
        ">= link capacity 750000 B/s with a TCP source present\n"
    )


@pytest.mark.parametrize("duration, message", [
    ("10", "warmup must lie within"),
    ("20", "no haptic bytes"),
])
def test_cli_simulate_rejects_an_empty_measurement_window(tmp_path, capsys, duration, message):
    # the shipped scenario warms up for 20 s: a shorter run is ill-posed,
    # and a run that ends at the warmup measures nothing to judge
    path = write_cfg(tmp_path, baseline_text())
    assert main(["simulate", "--config", path, "--duration", duration]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "overall" not in captured.out


def test_cli_validate_csv(tmp_path, capsys):
    path = write_cfg(tmp_path, baseline_text())
    code = main(["--format", "csv", "validate", "--config", path,
                 "--sweep", "R=3Mbps", "--nack", "1", "--duration", "8", "--warmup", "2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(VALIDATION_COLUMNS)
    assert len(lines) == 2
    assert lines[1].startswith("3,1,")


def test_cli_validate_bad_sweep(tmp_path, capsys):
    path = write_cfg(tmp_path, baseline_text())
    assert main(["validate", "--config", path, "--sweep", "Z=1Mbps"]) == 2
    assert "unknown sweep variable 'Z' (expected R or mu)" in capsys.readouterr().err


def test_cli_rates(tmp_path, capsys):
    text = baseline_text() + ADAPTIVE_FLOW
    # keep aggregate rate below capacity with the extra flow
    text = text.replace("rate = 1.904 Mbps", "rate = 1 Mbps")
    path = write_cfg(tmp_path, text)
    code = main(["rates", "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "peak" in out and "mean" in out

    code = main(["--format", "csv", "rates", "--config", path])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "time_s,rate_Bps"


def test_cli_rates_without_adaptive_flow(tmp_path, capsys):
    path = write_cfg(tmp_path, baseline_text())
    assert main(["rates", "--config", path]) == 2


def test_cli_entrypoint_runs():
    # the subprocess imports the same teleqos as this test, installed or not
    src = str(Path(teleqos.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "teleqos.cli", "--help"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "analyze" in proc.stdout
