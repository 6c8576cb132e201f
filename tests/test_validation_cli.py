"""Validation runner, report emission and the command-line interface."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import teleqos
from teleqos import (
    baseline_text,
    build_simulator,
    parse_scenario,
    run,
    simulator,
)
from teleqos.cli import main
from teleqos.validation import (
    VALIDATION_COLUMNS,
    compliance_from_simulation,
    emit_compliance,
    emit_validation,
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
    cfg = cfg.with_flow_rate("cross", 6.9 * MBPS)
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


def test_cli_rates(tmp_path, capsys):
    text = baseline_text() + (
        "\n[flow.vh]\nkind = adaptive\ndeadband = 0.1\nvideo_rate = 400 kbps\n"
        "signal = contact-burst\namplitude = 1.0\nsignal_seed = 7\n"
    )
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
