"""Deadband filtering, visual-haptic multiplexing and synthetic traces."""

import math

import numpy as np
import pytest
from oracles import deadband_by_rows, filtered_noise_by_rows, mux_by_ticks

from teleqos import (
    SignalSpec,
    deadband_filter,
    instantaneous_rate,
    synth_haptic_trace,
    vh_mux,
)
from teleqos.sampling import (
    CHUNK_TICKS,
    HAPTIC_TICK,
    EmptyStream,
    InvalidDeadband,
    InvalidSignalSpec,
)


def test_constant_signal_single_significant_sample():
    samples = np.ones((500, 3))
    flags = deadband_filter(samples, 0.1)
    assert flags[0]
    assert flags.sum() == 1


def test_tiny_deadband_keeps_everything():
    rng = np.random.default_rng(0)
    samples = np.cumsum(rng.standard_normal((200, 3)), axis=0) + 5.0
    flags = deadband_filter(samples, 1e-9)
    assert flags.all()


def test_ramp_significance_matches_brute_force():
    # scalar ramp x_i = 1 + 0.11*i with k = 0.1: every step exceeds 10% of
    # the reference only while the reference is small enough
    n, k = 60, 0.1
    x = 1.0 + 0.11 * np.arange(n)
    got = deadband_filter(x[:, None], k)

    expect = np.zeros(n, dtype=bool)
    ref = None
    for i, v in enumerate(x):
        if ref is None or abs(v - ref) >= k * abs(ref):
            expect[i] = True
            ref = v
    assert (got == expect).all()
    assert 1 < got.sum() < n


def test_deadband_idempotence():
    samples = synth_haptic_trace(SignalSpec(kind="contact-burst", seed=3), 5.0)
    flags = deadband_filter(samples, 0.1)
    again = deadband_filter(samples[flags], 0.1)
    assert again.all()


def test_deadband_monotone_in_k():
    samples = synth_haptic_trace(SignalSpec(kind="sum-of-sinusoids", seed=4), 5.0)
    counts = [deadband_filter(samples, k).sum() for k in (0.02, 0.05, 0.1, 0.2, 0.4)]
    assert counts == sorted(counts, reverse=True)


def test_invalid_deadband():
    with pytest.raises(InvalidDeadband):
        deadband_filter(np.ones((5, 3)), 0.0)
    with pytest.raises(InvalidDeadband):
        deadband_filter(np.ones((5, 3)), 1.0)


def test_zero_reference_absolute_epsilon():
    samples = np.zeros((10, 3))
    samples[4] = [0.5, 0.0, 0.0]
    flags = deadband_filter(samples, 0.1)
    # rising from zero and falling back are both significant; the quiet
    # zero spans on either side are not
    assert flags[0] and flags[4] and flags[5]
    assert flags.sum() == 3


def test_mux_degenerate_all_significant_is_cbr_stream():
    flags = np.ones(200, dtype=bool)
    packets = vh_mux(flags, video_rate=400e3 / 8, header=87.0)
    assert len(packets) == 200
    assert all(p.kind == "significant" and p.size == 137 for p in packets)
    times = [p.time for p in packets]
    assert times == [i * HAPTIC_TICK for i in range(200)]


def test_mux_silent_run_emits_15ms_chunks():
    flags = np.zeros(100, dtype=bool)
    flags[0] = True
    packets = vh_mux(flags, video_rate=400e3 / 8, header=87.0)
    chunks = [p for p in packets if p.kind == "chunk"]
    # 400 kbps * 15 ms = 750 B of video per chunk
    assert all(c.video_bytes == pytest.approx(750.0) for c in chunks[:-1])
    gaps = np.diff([c.time for c in chunks[:-1]])
    assert np.allclose(gaps, CHUNK_TICKS * HAPTIC_TICK)


def test_mux_conserves_video_bytes():
    for seed in (1, 2, 3):
        samples = synth_haptic_trace(SignalSpec(kind="contact-burst", seed=seed), 8.0)
        flags = deadband_filter(samples, 0.1)
        packets = vh_mux(flags, video_rate=400e3 / 8, header=87.0)
        total = sum(p.video_bytes for p in packets)
        assert total == pytest.approx(len(flags) * (400e3 / 8) * HAPTIC_TICK, rel=1e-9)


def test_mux_video_latency_bound():
    samples = synth_haptic_trace(SignalSpec(kind="contact-burst", seed=5), 8.0)
    flags = deadband_filter(samples, 0.1)
    packets = vh_mux(flags, video_rate=400e3 / 8, header=87.0)
    per_tick = (400e3 / 8) * HAPTIC_TICK
    accrued = 0.0  # video bytes generated so far, tick granularity
    emitted = 0.0
    tick = 0
    by_time = iter(packets)
    pkt = next(by_time, None)
    for tick in range(len(flags)):
        accrued += per_tick
        while pkt is not None and pkt.time <= tick * HAPTIC_TICK + 1e-12:
            emitted += pkt.video_bytes
            pkt = next(by_time, None)
        # nothing generated more than 15 ticks ago may still be pending
        assert accrued - emitted <= CHUNK_TICKS * per_tick + 1e-9


def test_mux_flush_precedes_significant_packet():
    flags = np.zeros(20, dtype=bool)
    flags[0] = True
    flags[7] = True
    packets = vh_mux(flags, video_rate=400e3 / 8, header=87.0)
    at_7 = [p for p in packets if abs(p.time - 7 * HAPTIC_TICK) < 1e-12]
    assert [p.kind for p in at_7] == ["chunk", "significant"]
    assert at_7[0].video_bytes == pytest.approx(6 * 50.0)


def test_synthetic_traces_deterministic():
    for kind in ("sum-of-sinusoids", "filtered-noise", "contact-burst"):
        spec = SignalSpec(kind=kind, seed=11)
        a = synth_haptic_trace(spec, 3.0)
        b = synth_haptic_trace(spec, 3.0)
        assert (a == b).all()


def test_zero_amplitude_trace_is_constant():
    samples = synth_haptic_trace(SignalSpec(kind="sum-of-sinusoids", amplitude=0.0, seed=1), 2.0)
    flags = deadband_filter(samples, 0.1)
    assert flags.sum() == 1


def test_contact_burst_density_contrast():
    samples = synth_haptic_trace(SignalSpec(kind="contact-burst", seed=9), 20.0)
    flags = deadband_filter(samples, 0.1)
    # windowed significance density separates active and quiescent spans
    windows = flags[: len(flags) // 500 * 500].reshape(-1, 500).sum(axis=1)
    dense = np.sort(windows)[-5:].mean()
    sparse = np.sort(windows)[:5].mean()
    assert dense > 10 * max(sparse, 1)


def test_invalid_signal_spec():
    with pytest.raises(InvalidSignalSpec):
        SignalSpec(kind="whatever")
    with pytest.raises(InvalidSignalSpec):
        synth_haptic_trace(SignalSpec(), 0.0)


@pytest.mark.parametrize("kind", ["contact-burst", "filtered-noise", "sum-of-sinusoids"])
@pytest.mark.parametrize("duration", [0.0, 4e-4, 9.99e-4, -1.0, math.inf, math.nan])
def test_synth_rejects_a_duration_without_a_whole_tick(kind, duration):
    with pytest.raises(InvalidSignalSpec, match="duration"):
        synth_haptic_trace(SignalSpec(kind=kind), duration)


@pytest.mark.parametrize("samples", [
    [[1.0, math.nan, 0.0], [2.0, 2.0, 2.0], [5.0, 5.0, 5.0]],
    [[1.0, 1.0, 1.0], [math.inf, 2.0, 2.0]],
    [0.5, -math.inf],
])
def test_deadband_rejects_non_finite_samples(samples):
    with pytest.raises(InvalidSignalSpec, match="finite"):
        deadband_filter(np.array(samples), 0.1)


@pytest.mark.parametrize("shape", [(), (4, 2, 3), (5, 4), (5, 0)])
def test_deadband_rejects_samples_without_1_to_3_axes(shape):
    with pytest.raises(InvalidSignalSpec, match="shape"):
        deadband_filter(np.ones(shape), 0.1)


# the kernels against the per-row reference loops in oracles.py: every
# flag, packet field and sample bit must be equal
EQUIVALENCE_DURATIONS = (1e-3, 2e-3, 0.016, 0.3, 5.0)
# (video_rate, header): 400 kbps; an inexact per-tick size; 2.4 kbps, whose
# 15 summed ticks fall 1 ulp short of 15 * per_tick and flush only through
# the 1e-9 slack; and a rate so low that every quiet tick flushes a chunk
MUX_CASES = ((400e3 / 8, 87.0), (123456.789, 40.5), (300.0, 87.0), (1e-6, 87.0))


def _fields(packets):
    return [(p.time, p.kind, p.header_bytes, p.video_bytes) for p in packets]


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
@pytest.mark.parametrize("kind", ["contact-burst", "filtered-noise", "sum-of-sinusoids"])
def test_kernels_match_reference_loops(kind, seed):
    for duration in EQUIVALENCE_DURATIONS:
        samples = synth_haptic_trace(SignalSpec(kind=kind, amplitude=1.5, seed=seed), duration)
        if kind == "filtered-noise":
            assert samples.tobytes() == filtered_noise_by_rows(1.5, seed, duration).tobytes()
        for k in (1e-3, 0.1, 0.5):
            flags = deadband_filter(samples, k)
            assert flags.dtype == bool
            assert flags.tolist() == deadband_by_rows(samples, k).tolist()
            for video_rate, header in MUX_CASES:
                packets = vh_mux(flags, video_rate, header)
                assert _fields(packets) == mux_by_ticks(flags, video_rate, header)


HAND_MADE = {
    "all-zero rows": np.zeros((6, 3)),
    "zero reference, then non-zero": np.array(
        [[0.0, 0.0, 0.0], [5e-7, 0.0, 0.0], [0.0, 2e-6, 0.0], [0.0, 2e-6, 1e-7], [0.0, 0.0, 0.0]]
    ),
    "1-axis, 1-D": 1.0 + 0.11 * np.arange(60),
    "1-axis, column": (1.0 + 0.11 * np.arange(60))[:, None],
    "2-axis": np.cumsum(np.random.default_rng(3).standard_normal((400, 2)), axis=0),
    "one sample": np.array([[0.3, -0.2, 0.1]]),
    # exact ties: |x|^2 equal to the zero-reference epsilon^2 is not
    # significant; a distance equal to k * |ref| (k = 0.5) is
    "ties": np.array([[0.0, 0.0, 0.0], [1e-6, 0.0, 0.0], [1.0, 0.0, 0.0], [1.5, 0.0, 0.0]]),
    # a squared norm that depends on the order of the axis sums: added
    # x, y, z it is exactly 1.0 and the next sample ties with k = 0.5;
    # added z, y, x it rounds up and the tie is lost
    "axis order, first sample": np.array([[1.0, 1e-8, 1e-8], [1.5, 1e-8, 1e-8]]),
    "axis order, later sample": np.array([[0.0, 0.0, 0.0], [1.0, 1e-8, 1e-8], [1.5, 1e-8, 1e-8]]),
    # the same for the distance: k^2 |ref|^2 is 1 + 2^-52, and the squared
    # distance is 1.0 added x, y, z (not significant) but 1 + 2^-52 added
    # z, y, x (significant)
    "axis order, distance": np.array([[2.0, 2.0**-25, 0.0], [3.0, 2.0**-25 + 1e-8, 1e-8]]),
    "empty": np.zeros((0, 3)),
}


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_deadband_hand_made_cases_match_reference(name):
    samples = HAND_MADE[name]
    for k in (1e-3, 0.1, 0.5):
        flags = deadband_filter(samples, k)
        assert flags.tolist() == deadband_by_rows(samples, k).tolist()
        for video_rate, header in MUX_CASES:
            packets = vh_mux(flags, video_rate, header)
            assert _fields(packets) == mux_by_ticks(flags, video_rate, header)


def test_instantaneous_rate_flat_for_cbr():
    packets = [(i * 1e-3, 137.0) for i in range(2000)]
    series = instantaneous_rate(packets, window=0.1)
    assert series.rates.min() >= 137000.0 - 1370.0
    assert series.rates.max() <= 137000.0 + 1370.0
    assert series.mean == pytest.approx(137000.0, rel=0.01)


def test_instantaneous_rate_fluctuates_for_bursty_stream():
    samples = synth_haptic_trace(SignalSpec(kind="contact-burst", seed=13), 30.0)
    flags = deadband_filter(samples, 0.1)
    packets = vh_mux(flags, video_rate=400e3 / 8, header=87.0)
    series = instantaneous_rate([(p.time, float(p.size)) for p in packets], window=0.1)
    assert series.peak / series.mean > 1.2


def test_instantaneous_rate_takes_equal_times_in_size_order():
    # the window sum 1 + 1 + 2^53 is exact; 2^53 + 1 + 1 rounds back to 2^53 twice
    packets = [(0.0, 2.0**53), (0.0, 1.0), (0.0, 1.0), (0.002, 5.0)]
    series = instantaneous_rate(packets, window=0.001)
    assert series.rates[0] == (2.0**53 + 2.0) / 0.001


def test_instantaneous_rate_empty_stream():
    with pytest.raises(EmptyStream):
        instantaneous_rate([])

