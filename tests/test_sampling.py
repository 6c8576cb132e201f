"""Deadband filtering, visual-haptic multiplexing and synthetic traces."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import deadband_by_rows, filtered_noise_by_rows, mux_by_ticks, rates_by_windows

from teleqos import (
    SignalSpec,
    deadband_filter,
    instantaneous_rate,
    synth_haptic_trace,
    vh_mux,
)
from teleqos.sampling import (
    BLOCK,
    CHUNK_TICKS,
    DEADBAND_OFFSETS,
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
    stream = vh_mux(flags, video_rate=400e3 / 8, header=87.0)
    assert len(stream) == 200
    assert stream.significant.all()
    assert (stream.header_bytes + stream.video_bytes == 137.0).all()
    assert stream.tick.tolist() == list(range(200))


def test_mux_silent_run_emits_15ms_chunks():
    flags = np.zeros(100, dtype=bool)
    flags[0] = True
    stream = vh_mux(flags, video_rate=400e3 / 8, header=87.0)
    chunks = ~stream.significant
    # 400 kbps * 15 ms = 750 B of video per chunk
    assert stream.video_bytes[chunks][:-1] == pytest.approx(750.0)
    gaps = np.diff(stream.tick[chunks][:-1])
    assert (gaps == CHUNK_TICKS).all()


def test_mux_conserves_video_bytes():
    for seed in (1, 2, 3):
        samples = synth_haptic_trace(SignalSpec(kind="contact-burst", seed=seed), 8.0)
        flags = deadband_filter(samples, 0.1)
        stream = vh_mux(flags, video_rate=400e3 / 8, header=87.0)
        total = sum(stream.video_bytes.tolist())
        assert total == pytest.approx(len(flags) * (400e3 / 8) * HAPTIC_TICK, rel=1e-9)


def test_mux_video_latency_bound():
    samples = synth_haptic_trace(SignalSpec(kind="contact-burst", seed=5), 8.0)
    flags = deadband_filter(samples, 0.1)
    stream = vh_mux(flags, video_rate=400e3 / 8, header=87.0)
    per_tick = (400e3 / 8) * HAPTIC_TICK
    accrued = 0.0  # video bytes generated so far, tick granularity
    emitted = 0.0
    by_time = zip(stream.tick.tolist(), stream.video_bytes.tolist())
    pkt = next(by_time, None)
    for tick in range(len(flags)):
        accrued += per_tick
        while pkt is not None and pkt[0] <= tick:
            emitted += pkt[1]
            pkt = next(by_time, None)
        # nothing generated more than 15 ticks ago may still be pending
        assert accrued - emitted <= CHUNK_TICKS * per_tick + 1e-9


def test_mux_flush_precedes_significant_packet():
    flags = np.zeros(20, dtype=bool)
    flags[0] = True
    flags[7] = True
    stream = vh_mux(flags, video_rate=400e3 / 8, header=87.0)
    at_7 = stream.tick == 7
    assert stream.significant[at_7].tolist() == [False, True]
    assert stream.video_bytes[at_7][0] == pytest.approx(6 * 50.0)


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


@pytest.mark.parametrize("video_rate, header", [
    (0.0, 87.0), (-1.0, 87.0), (math.nan, 87.0), (math.inf, 87.0),
    (50e3, 0.0), (50e3, math.nan), (50e3, math.inf),
])
def test_mux_rejects_a_rate_or_header_that_is_not_positive_and_finite(video_rate, header):
    with pytest.raises(InvalidSignalSpec, match="positive and finite"):
        vh_mux(np.ones(3, dtype=bool), video_rate, header)


@pytest.mark.parametrize("flags", [
    np.ones((3, 2), dtype=bool), np.bool_(True), [[True], [True, False]],
])
def test_mux_rejects_flags_that_are_not_one_per_tick(flags):
    with pytest.raises(InvalidSignalSpec, match="shape"):
        vh_mux(flags, 50e3, 87.0)


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


@pytest.mark.parametrize("shape", [(), (4, 2, 3), (5, 4), (5, 0), None])
def test_deadband_rejects_samples_without_1_to_3_axes(shape):
    # None stands for a ragged list, which has no shape at all
    samples = [[1.0, 2.0], [1.0]] if shape is None else np.ones(shape)
    with pytest.raises(InvalidSignalSpec, match="shape"):
        deadband_filter(samples, 0.1)


# the kernels against the per-row reference loops in oracles.py: every
# flag, packet field and sample bit must be equal
EQUIVALENCE_DURATIONS = (1e-3, 2e-3, 0.016, 0.3, 5.0)
# (video_rate, header): 400 kbps; an inexact per-tick size; 2.4 kbps, whose
# 15 summed ticks fall 1 ulp short of 15 * per_tick and flush only through
# the 1e-9 slack; and a rate so low that every quiet tick flushes a chunk
MUX_CASES = ((400e3 / 8, 87.0), (123456.789, 40.5), (300.0, 87.0), (1e-6, 87.0))


def _fields(stream):
    """The stream as the oracle's (time, kind, header, video) tuples."""
    kinds = ["significant" if sig else "chunk" for sig in stream.significant.tolist()]
    return [
        (tick * HAPTIC_TICK, kind, stream.header_bytes, video)
        for tick, kind, video in zip(stream.tick.tolist(), kinds, stream.video_bytes.tolist())
    ]


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
                stream = vh_mux(flags, video_rate, header)
                assert _fields(stream) == mux_by_ticks(flags, video_rate, header)


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
    # squares and distances that overflow to inf, as Python floats' do
    "overflow": np.array([[1e200, 0.0, 0.0], [-1e200, 0.0, 0.0], [1e300, 1e300, 0.0], [1e300, 1e300, 1.0]]),
}


@pytest.mark.parametrize("name", sorted(HAND_MADE))
def test_deadband_hand_made_cases_match_reference(name):
    samples = HAND_MADE[name]
    for k in (1e-3, 0.1, 0.5):
        flags = deadband_filter(samples, k)
        assert flags.tolist() == deadband_by_rows(samples, k).tolist()
        for video_rate, header in MUX_CASES:
            stream = vh_mux(flags, video_rate, header)
            assert _fields(stream) == mux_by_ticks(flags, video_rate, header)


# axis values around the deadband's edges: zero and near-zero magnitudes
# about the absolute epsilon, values a fraction k apart, and any others
AXIS_VALUES = st.sampled_from([0.0, 1e-7, -1e-7, 1e-6, 0.5, -0.5, 1.0, 1.05, 1.5, -3.0]) | st.floats(
    -1e3, 1e3, allow_nan=False)


@given(st.data(), st.integers(0, 3), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_deadband_matches_the_row_loop_on_random_runs(data, axes, k):
    # axes 0 is a 1-D signal; a row repeated past DEADBAND_OFFSETS samples
    # leaves its reference open, so that the chain searches further on
    width = max(axes, 1)
    runs = data.draw(st.lists(
        st.tuples(st.lists(AXIS_VALUES, min_size=width, max_size=width),
                  st.integers(1, 3 * DEADBAND_OFFSETS)),
        max_size=12))
    samples = np.array([row for row, repeat in runs for _ in range(repeat)]).reshape(-1, width)
    if axes == 0:
        samples = samples[:, 0]
    assert deadband_filter(samples, k).tolist() == deadband_by_rows(samples, k).tolist()


def test_deadband_follows_a_reference_open_across_many_blocks():
    # a zero reference and a non-zero one, each held for thousands of samples
    samples = np.zeros((5000, 3))
    samples[3000:4990] = [1.0, 2.0, 0.5]
    samples[4990:] = [1.0, 2.0, 0.6]
    flags = deadband_filter(samples, 0.1)
    assert np.flatnonzero(flags).tolist() == [0, 3000]
    assert flags.tolist() == deadband_by_rows(samples, 0.1).tolist()


# signal lengths in ticks about the ends of the first and second blocks of
# every stage; the last leaves the deadband's second block a full set of
# followers and its third block the rest
BLOCK_LENGTHS = (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + DEADBAND_OFFSETS)


@pytest.mark.parametrize("ticks", BLOCK_LENGTHS)
def test_stages_match_reference_loops_about_block_ends(ticks):
    duration = ticks * HAPTIC_TICK
    noise = synth_haptic_trace(SignalSpec(kind="filtered-noise", amplitude=1.5, seed=3), duration)
    assert noise.tobytes() == filtered_noise_by_rows(1.5, 3, duration).tobytes()
    burst = synth_haptic_trace(SignalSpec(kind="contact-burst", seed=3), duration)
    for samples in (noise, burst):
        flags = deadband_filter(samples, 0.1)
        assert flags.tolist() == deadband_by_rows(samples, 0.1).tolist()
        stream = vh_mux(flags, 400e3 / 8, 87.0)
        assert _fields(stream) == mux_by_ticks(flags, 400e3 / 8, 87.0)
        for window in (HAPTIC_TICK, 0.1):
            series = instantaneous_rate(_pairs(stream), window)
            assert series.rates.tolist() == rates_by_windows(_pairs(stream).tolist(), window,
                                                             series.times.tolist())


def test_mux_carries_a_quiet_run_across_blocks():
    # one quiet run over three blocks of ticks, then one that a block's last
    # tick ends, then one that the next block's first tick ends
    flags = np.zeros(2 * BLOCK + DEADBAND_OFFSETS, dtype=bool)
    flags[[0, 2 * BLOCK - 1, 2 * BLOCK]] = True
    for video_rate, header in MUX_CASES:
        assert _fields(vh_mux(flags, video_rate, header)) == mux_by_ticks(flags, video_rate, header)


@pytest.mark.parametrize("ends", BLOCK_LENGTHS)
def test_instantaneous_rate_matches_window_sums_about_block_ends(ends):
    # a whole-byte packet on each of n ticks; a window of 100.5 ticks keeps
    # the grid's rounding clear of a whole count, so there are n - 100 ends
    window = 0.1005
    sizes = np.random.default_rng(ends).integers(1, 3000, ends + 100).astype(float)
    packets = np.column_stack((np.arange(ends + 100) * HAPTIC_TICK, sizes))
    series = instantaneous_rate(packets, window)
    assert len(series.times) == ends
    assert series.rates.tolist() == rates_by_windows(packets.tolist(), window, series.times.tolist())


def _held(ticks: int, *changes: tuple[int, list[float]]) -> np.ndarray:
    """ticks samples of [1, 1, 1] that take each value from its tick on."""
    samples = np.ones((ticks, 3))
    for tick, value in changes:
        samples[tick:] = value
    return samples


# signals whose chain of references meets a block end, with the samples
# the deadband keeps at k = 0.1: the chain reaches a block's last reference
# and then the next block's first at the next sample, or that first
# reference by a far search; and a zero and a non-zero reference each stay
# open across the end of the first block, left through the next-hit table
# or the search beyond it
BLOCK_CASES = {
    "last, then first reference": (
        _held(BLOCK + 40, (BLOCK - 1, [2.0] * 3), (BLOCK, [3.0] * 3)), [0, BLOCK - 1, BLOCK]),
    "first reference by a far search": (_held(BLOCK + 40, (BLOCK, [2.0] * 3)), [0, BLOCK]),
    "zero reference, far search": (
        _held(BLOCK + 50, (0, [0.0] * 3), (BLOCK + 20, [1e-3, 0.0, 0.0])), [0, BLOCK + 20]),
    "zero reference, next-hit table": (
        _held(BLOCK + 50, (BLOCK - 5, [0.0] * 3), (BLOCK + 5, [1e-3, 0.0, 0.0])),
        [0, BLOCK - 5, BLOCK + 5]),
    "non-zero reference, far search": (
        _held(2 * BLOCK + DEADBAND_OFFSETS, (BLOCK - 3, [2.0] * 3), (BLOCK + 30, [3.0] * 3)),
        [0, BLOCK - 3, BLOCK + 30]),
    "non-zero reference, next-hit table": (
        _held(BLOCK + 50, (BLOCK - 3, [2.0] * 3), (BLOCK + 10, [3.0] * 3)),
        [0, BLOCK - 3, BLOCK + 10]),
}


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_deadband_chain_across_a_block_end_matches_reference(name):
    samples, kept = BLOCK_CASES[name]
    flags = deadband_filter(samples, 0.1)
    assert np.flatnonzero(flags).tolist() == kept
    assert flags.tolist() == deadband_by_rows(samples, 0.1).tolist()


# video rates and the flush count each reaches, the number of quiet ticks
# whose summed video first reaches 15 ticks' worth less the 1e-9 slack:
# below about 6.7e-8 B/s the target is negative and every quiet tick
# flushes; at 1.3e-7 B/s the slack is worth over 7 ticks' video; at
# 400 kbps it is lost in rounding; and at about 2.17 GB/s fifteen summed
# ticks round below 15 * per_tick, so a sixteenth is needed
FLUSH_CASES = ((1e-8, 1), (1.3e-7, 8), (400e3 / 8, 15), (2166777371.9, 16))


@pytest.mark.parametrize("video_rate, flush", FLUSH_CASES)
def test_mux_flush_cases_reach_their_flush_count(video_rate, flush):
    quiet = np.zeros(40, dtype=bool)
    assert mux_by_ticks(quiet, video_rate, 87.0)[0][0] == (flush - 1) * HAPTIC_TICK
    assert vh_mux(quiet, video_rate, 87.0).tick[0] == flush - 1


@given(
    st.data(),
    st.integers(0, 300),
    st.floats(0.0, 1.0),
    st.sampled_from([video_rate for video_rate, _ in FLUSH_CASES]),
    st.sampled_from([87.0, 40.5]),
)
def test_mux_matches_the_tick_loop_on_random_flags(data, n, density, video_rate, header):
    draws = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n))
    flags = np.array(draws) < density  # density 0 is all quiet, 1 all significant
    assert _fields(vh_mux(flags, video_rate, header)) == mux_by_ticks(flags, video_rate, header)


def _pairs(stream):
    """The (time, size) pair of each packet as an (N, 2) array."""
    sizes = np.rint(stream.header_bytes + stream.video_bytes)
    return np.column_stack((stream.tick * HAPTIC_TICK, sizes))


def test_instantaneous_rate_flat_for_cbr():
    packets = [(i * 1e-3, 137.0) for i in range(2000)]
    series = instantaneous_rate(packets, window=0.1)
    assert series.rates.min() >= 137000.0 - 1370.0
    assert series.rates.max() <= 137000.0 + 1370.0
    assert series.mean == pytest.approx(137000.0, rel=0.01)


def test_instantaneous_rate_fluctuates_for_bursty_stream():
    samples = synth_haptic_trace(SignalSpec(kind="contact-burst", seed=13), 30.0)
    flags = deadband_filter(samples, 0.1)
    series = instantaneous_rate(_pairs(vh_mux(flags, video_rate=400e3 / 8, header=87.0)), window=0.1)
    assert series.peak / series.mean > 1.2


def test_instantaneous_rate_takes_equal_times_in_size_order():
    # the window sum 1 + 1 + 2^53 is exact; 2^53 + 1 + 1 rounds back to 2^53 twice
    packets = [(0.0, 2.0**53), (0.0, 1.0), (0.0, 1.0), (0.002, 5.0)]
    series = instantaneous_rate(packets, window=0.001)
    assert series.rates[0] == (2.0**53 + 2.0) / 0.001


def test_instantaneous_rate_takes_an_array_of_pairs_like_a_list():
    samples = synth_haptic_trace(SignalSpec(kind="contact-burst", seed=13), 5.0)
    stream = vh_mux(deadband_filter(samples, 0.1), video_rate=400e3 / 8, header=87.0)
    pairs = _pairs(stream)[::-1].tolist()
    from_list = instantaneous_rate(pairs, window=0.1)
    from_array = instantaneous_rate(np.array(pairs), window=0.1)
    assert np.array_equal(from_array.times, from_list.times)
    assert np.array_equal(from_array.rates, from_list.rates)
    assert (from_array.peak, from_array.mean) == (from_list.peak, from_list.mean)


@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(1, 3000)), min_size=1, max_size=150),
    st.randoms(use_true_random=False),
    st.sampled_from([0.001, 0.0035, 0.1, 1.0]),
)
def test_instantaneous_rate_is_the_same_on_shuffled_and_sorted_input(ticks, rng, window):
    # half-tick times, so that many packets share an instant
    packets = [(t * HAPTIC_TICK / 2, float(size)) for t, size in ticks]
    shuffled = packets[:]
    rng.shuffle(shuffled)
    got, want = instantaneous_rate(shuffled, window), instantaneous_rate(sorted(packets), window)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.rates, want.rates)
    assert (got.peak, got.mean) == (want.peak, want.mean)


def test_instantaneous_rate_window_longer_than_the_stream_holds_every_byte():
    packets = [(0.5, 100.0), (0.5005, 50.0), (1.2, 70.0)]
    series = instantaneous_rate(packets, window=5.0)
    assert series.times.tolist() == [0.5 + 5.0]
    assert series.rates.tolist() == [220.0 / 5.0]
    assert series.peak == 220.0 / 5.0


def test_instantaneous_rate_empty_stream():
    with pytest.raises(EmptyStream):
        instantaneous_rate([])
    with pytest.raises(EmptyStream):
        instantaneous_rate(np.empty((0, 2)))


SHAPE = r"^packets must have shape \(N, 2\), got "
PAIRS = r"^packets must be finite \(time, size\) pairs with sizes >= 0$"
RAGGED = r"^packets must form an array of one shape, got a ragged or non-numeric sequence$"


@pytest.mark.parametrize("packets, message", [
    pytest.param([1.0, 2.0, 3.0], SHAPE + r"\(3,\)$", id="flat"),
    pytest.param([(0.0,)], SHAPE + r"\(1, 1\)$", id="no-size"),
    pytest.param(np.zeros((4, 3)), SHAPE + r"\(4, 3\)$", id="three-columns"),
    pytest.param([(0.0, 1.0), (math.nan, 1.0)], PAIRS, id="nan-time"),
    pytest.param([(0.0, 1.0), (0.001, math.inf)], PAIRS, id="inf-size"),
    pytest.param([(0.0, 1.0), (0.001, -1.0)], PAIRS, id="negative-size"),
    pytest.param([(0.0, 1.0), (1.0,)], RAGGED, id="ragged"),
    pytest.param([(0.0, 1.0), ("later", 1.0)], RAGGED, id="text"),
])
def test_instantaneous_rate_rejects_a_bad_packet(packets, message):
    with pytest.raises(InvalidSignalSpec, match=message):
        instantaneous_rate(packets)
