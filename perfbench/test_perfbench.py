"""Tests of the benchmark itself: span arithmetic, the digest check, failure
counting, layer coverage and the scaling of wall_s by the reference task.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
from spans import SPAN_NAMES, Span, Tracer, call_counts, coverage_problems, installed, self_times  # noqa: E402
from workloads import SIGNAL_KINDS, WORKLOADS, Inputs  # noqa: E402


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def inputs(tmp_path):
    return Inputs(seed=3, tmp=tmp_path)


def test_self_time_subtracts_nested_sampling_spans():
    spans = [
        Span("cli.main", 0, 100, -1),
        Span("simulator.build", 10, 60, 0),
        Span("sampling.synth", 15, 25, 1),
        Span("sampling.deadband", 25, 45, 1),
        Span("sampling.mux", 45, 55, 1),
        Span("sampling.rate", 70, 90, 0),
    ]
    own = self_times(spans)
    assert own["simulator.build"] == 50 - 40
    assert own["cli.main"] == 100 - 50 - 20
    assert own["sampling.deadband"] == 20


def test_self_time_counts_overlapping_children_once():
    spans = [Span("validation.sweep", 0, 100, -1), Span("validation.point", 10, 50, 0),
             Span("validation.point", 30, 70, 0), Span("validation.point", 90, 120, 0)]
    assert self_times(spans)["validation.sweep"] == 100 - 60 - 10


def test_sampling_spans_nest_under_build_in_a_real_call(inputs):
    from teleqos import scenario, simulator

    text = inputs.texts[SIGNAL_KINDS[0]].replace("duration = 120 s", "duration = 2 s")
    original = simulator.build_simulator
    tracer = Tracer()
    with installed(tracer):
        simulator.build_simulator(scenario.parse_scenario(text))
    assert simulator.build_simulator is original
    names = [s.name for s in tracer.spans]
    build = names.index("simulator.build")
    for stage in ("sampling.synth", "sampling.deadband", "sampling.mux"):
        assert tracer.spans[names.index(stage)].parent == build
    span = tracer.spans[build]
    assert 0 < self_times(tracer.spans)["simulator.build"] < span.end - span.start
    assert tracer.counts["sampling.samples"] == 2000


def test_digest_check_trips_on_a_one_byte_change(tmp_path):
    good = b"control,nack\n2,1\n"
    bad = b"control,nack\n2,2\n"
    check = run.OutputCheck({"table.csv": sha(good)})
    assert check.mismatches({"table.csv": good}) == []
    assert check.mismatches({"table.csv": bad})

    path = tmp_path / "trace.csv"
    path.write_bytes(good)
    file_check = run.OutputCheck({"trace.csv": sha(good)})
    assert file_check.mismatches({"trace.csv": path}) == []
    path.write_bytes(bad)
    assert file_check.mismatches({"trace.csv": path})


def test_unpinned_seed_requires_iterations_to_agree():
    check = run.OutputCheck(None)
    assert check.mismatches({"stdout": b"peak 1.49"}) == []
    assert check.mismatches({"stdout": b"peak 1.49"}) == []
    assert check.mismatches({"stdout": b"peak 1.48"})


def test_digest_mismatch_counts_as_failed_op():
    ledger = run.Ledger(run.OutputCheck({"stdout": sha(b"a")}))
    assert ledger.time(lambda: {"stdout": b"b"}) is not None
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_file_outputs_are_deleted_once_hashed(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"t,event\n")
    ledger = run.Ledger(run.OutputCheck({"trace.csv": sha(b"t,event\n")}))
    assert ledger.time(lambda: {"trace.csv": path}) is not None
    assert (ledger.attempted, ledger.failed) == (1, 0)
    assert not path.exists()


def test_wall_s_is_scaled_by_the_reference_run(monkeypatch, inputs):
    # the reference task takes twice its nominal time: the host runs at half speed
    monkeypatch.setattr(run, "reference_run", lambda inputs: 2 * run.REFERENCE_S)
    monkeypatch.setattr(run, "setup_probes", lambda workload, inputs: ([0.5], [{}]))
    workload = SimpleNamespace(run=lambda inputs: time.sleep(0.05) or {}, in_child=False,
                               modelled_s=1.0, work_unit=None)
    ledger = run.Ledger(run.OutputCheck(None))
    metrics, _ = run.untraced(workload, inputs, 0.0, ledger)
    assert ledger.attempted == run.MIN_ITERATIONS
    assert 0.025 <= metrics["wall_s"] < 0.035
    assert metrics["sim_s_per_s"] == 1.0 / metrics["wall_s"]


def test_failed_ops_counts_nonzero_exit_of_trace_cli(inputs):
    inputs.path("baseline").write_text("[network]\nmu = fast\n", encoding="utf-8")
    ledger = run.Ledger(run.OutputCheck(None))
    assert ledger.time(WORKLOADS["trace-cli"].run, inputs) is None
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_coverage_problems_name_silent_and_unexpected_layers():
    expected = WORKLOADS["sim-baseline"].expected
    calls = {name: 1 if on else 0 for name, on in expected.items()}
    assert coverage_problems(calls, expected) == []
    calls["simulator.run"] = 0
    calls["sampling.synth"] = 2
    problems = coverage_problems(calls, expected)
    assert len(problems) == 2
    assert any(p.startswith("simulator.run:") for p in problems)
    assert any(p.startswith("sampling.synth:") for p in problems)


def test_traced_adaptive_iteration_covers_its_layers(inputs):
    for kind in SIGNAL_KINDS:
        text = inputs.texts[kind].replace("duration = 120 s", "duration = 2 s")
        inputs.path(kind).write_text(text, encoding="utf-8")
    workload = WORKLOADS["adaptive-rates"]
    tracer = Tracer()
    outputs = workload.run_traced(inputs, tracer)
    assert outputs["stdout"].count(b"peak/mean") == len(SIGNAL_KINDS)
    assert coverage_problems(call_counts(tracer.spans), workload.expected) == []
    assert set(call_counts(tracer.spans)) == set(SPAN_NAMES)
