"""Deadband-sampled haptic traffic and visual-haptic packet multiplexing.

A haptic signal sampled on the standard 1 kHz grid is reduced by a
perceptual deadband: a sample is transmitted only when it differs from the
last transmitted sample by at least a fraction k of that sample's
magnitude. Significant samples are sent immediately, packed together with
1 ms worth of video; during insignificant runs the video accumulates and
is shipped in chunk packets of at most 15 ms worth. Synthetic signal
generators stand in for device recordings.

Samples are finite and have 1 to 3 axes; anything else raises
InvalidSignalSpec at the boundary. Every kernel gives results bit-identical
to a plain row-by-row evaluation. The filtered-noise lowpass is a scalar
loop over Python floats: only scipy.signal.lfilter would reproduce its
recursion bit for bit, and scipy is not a dependency. The deadband works
on whole arrays: it tests every sample against each of the next
DEADBAND_OFFSETS samples with elementwise IEEE operations in the row
loop's order, then follows the chain of references from the first sample
through that table. The multiplexer's chunk sizes come from one table of
repeated additions, so they too equal a tick-by-tick accumulator's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import InvalidSignalSpec, SignalSpec

HAPTIC_TICK = 1e-3  # 1 kHz sampling grid
CHUNK_TICKS = 15    # max video backlog per chunk packet, in ticks
ZERO_REF_EPS = 1e-6     # significance threshold against a zero reference
DEADBAND_OFFSETS = 16   # the deadband tests every sample against this many next ones at once


class InvalidDeadband(InvalidSignalSpec):
    pass


class EmptyStream(InvalidSignalSpec):
    pass


@dataclass(frozen=True)
class MuxStream:
    """The multiplexed packets as columns, in emission order. A significant
    packet carries one haptic sample and 1 ms of video; a chunk (not
    significant) carries up to 15 ms of video. Every packet has the same
    header; its emission time is tick * HAPTIC_TICK seconds."""

    tick: np.ndarray          # int, emission tick
    significant: np.ndarray   # bool
    video_bytes: np.ndarray   # float
    header_bytes: float       # header, incl. the haptic payload of a significant packet

    def __len__(self) -> int:
        return len(self.tick)


@dataclass(frozen=True)
class RateSeries:
    """Sliding-window byte rate of a packet stream."""

    times: np.ndarray   # window end times, seconds
    rates: np.ndarray   # bytes/second
    peak: float
    mean: float         # long-term average, total bytes / span


def synth_haptic_trace(spec: SignalSpec, duration: float) -> np.ndarray:
    """Generate a (N, 3) force trace on the 1 kHz grid, deterministic per seed.

    The duration must be finite and cover at least one tick (1 ms).
    """
    if not HAPTIC_TICK <= duration < math.inf:
        raise InvalidSignalSpec(f"duration must be finite and >= {HAPTIC_TICK} s, got {duration}")
    n = int(round(duration / HAPTIC_TICK))
    t = np.arange(n) * HAPTIC_TICK
    rng = np.random.default_rng(spec.seed)
    out = np.zeros((n, 3))

    if spec.kind == "sum-of-sinusoids":
        for axis in range(3):
            for _ in range(4):
                amp = spec.amplitude * rng.uniform(0.2, 1.0)
                freq = rng.uniform(0.3, 8.0)
                phase = rng.uniform(0, 2 * math.pi)
                out[:, axis] += amp * np.sin(2 * math.pi * freq * t + phase)
    elif spec.kind == "filtered-noise":
        # one-pole lowpass over white noise, y = decay*y + innov*v per axis
        innov = 0.02
        decay = 1.0 - innov
        noise = rng.standard_normal((n, 3))
        for axis in range(3):
            y = 0.0
            col = []
            for w in (innov * noise[:, axis]).tolist():
                y = decay * y + w
                col.append(y)
            out[:, axis] = col
        scale = np.max(np.abs(out), axis=0)
        scale[scale == 0] = 1.0
        out *= spec.amplitude / scale
    else:  # contact-burst
        # alternating quiescent spans (nearly constant signal, little to
        # transmit) and contact spans (vigorous signal, dense significance)
        pos = 0
        in_contact = False
        base = rng.uniform(0.2, 0.5, size=3) * spec.amplitude
        while pos < n:
            span = int(rng.uniform(1.0, 3.0) / HAPTIC_TICK)
            end = min(pos + span, n)
            seg_t = t[pos:end]
            if in_contact:
                for axis in range(3):
                    freq = rng.uniform(4.0, 12.0)
                    phase = rng.uniform(0, 2 * math.pi)
                    out[pos:end, axis] = (
                        base[axis]
                        + spec.amplitude * np.sin(2 * math.pi * freq * seg_t + phase)
                        + 0.15 * spec.amplitude * rng.standard_normal(end - pos)
                    )
            else:
                drift = 1e-4 * spec.amplitude * rng.standard_normal((end - pos, 3))
                out[pos:end] = base + drift
            pos = end
            in_contact = not in_contact
    return out


def deadband_filter(samples: np.ndarray, k: float) -> np.ndarray:
    """Per-sample significance flags under a relative deadband on magnitude.

    Sample x is significant iff ||x - ref|| >= k * ||ref||, where ref is the
    last significant sample; the first sample is always significant, and a
    zero-magnitude reference falls back to an absolute epsilon test.

    samples is a 1-D array or an (N, 1..3) array of finite values. Squared
    norms are summed axis by axis from the first; missing axes count as
    0.0, which adds exactly nothing.
    """
    if not 0.0 < k < 1.0:
        raise InvalidDeadband(f"deadband fraction must be in (0, 1), got {k}")
    pts = _as_array(samples, float, "samples")
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or not 1 <= pts.shape[1] <= 3:
        raise InvalidSignalSpec(f"samples must have shape (N,) or (N, 1..3), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidSignalSpec("samples must be finite")
    n = len(pts)
    flags = np.zeros(n, dtype=bool)
    if n == 0:
        return flags
    # DEADBAND_OFFSETS NaN samples past the end, which no test counts as
    # significant, so that every reference has as many followers
    pad = np.full(DEADBAND_OFFSETS, np.nan)
    cols = [np.concatenate((pts[:, axis], pad)) for axis in range(pts.shape[1])]
    k_sq = k * k
    eps_sq = ZERO_REF_EPS * ZERO_REF_EPS
    # a square may overflow to inf, as a Python float's does
    with np.errstate(over="ignore"):
        sq = _sum_sq(cols)
        limit = k_sq * sq
        zero = sq <= eps_sq
        any_zero = zero.any()

        def significant(ref, rows):
            """Whether each sample in rows is significant against its reference."""
            hit = _sum_sq([col[rows] - col[ref] for col in cols]) >= limit[ref]
            if any_zero and zero[ref].any():  # a zero reference takes the absolute test
                hit = np.where(zero[ref], sq[rows] > eps_sq, hit)
            return hit

        # the next significant sample after each reference, if it lies at
        # most DEADBAND_OFFSETS samples on, else n (further on, or none)
        nxt = np.full(n, n)
        refs = np.arange(n)
        for d in range(1, DEADBAND_OFFSETS + 1):
            hit = significant(refs, refs + d)
            ends = refs[hit]
            nxt[ends] = ends + d
            refs = refs[~hit]

        def run_end(i):
            """The next significant sample after reference i, searched in
            blocks that double in length, or n."""
            lo, size = i + DEADBAND_OFFSETS + 1, DEADBAND_OFFSETS
            while lo < n:
                block = significant(i, slice(lo, lo + size))
                if block.any():
                    return lo + int(block.argmax())
                lo, size = lo + size, 2 * size
            return n

        # follow the chain of references from the first sample
        nxt = nxt.tolist()
        hits = []
        i = 0
        while i < n:
            hits.append(i)
            i = nxt[i] if nxt[i] < n else run_end(i)
    flags[hits] = True
    return flags


def _as_array(values, dtype: type, what: str) -> np.ndarray:
    """values as an array of dtype; what numpy cannot convert raises InvalidSignalSpec."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError):
        raise InvalidSignalSpec(
            f"{what} must form an array of one shape, got a ragged or non-numeric sequence"
        ) from None


def _sum_sq(cols: list[np.ndarray]) -> np.ndarray:
    """Elementwise squared norm, summed axis by axis from the first."""
    total = cols[0] * cols[0]
    for col in cols[1:]:
        total = total + col * col
    return total


def vh_mux(flags: np.ndarray, video_rate: float, header: float) -> MuxStream:
    """Multiplex significance flags with a constant-rate video stream.

    Each tick accrues 1 ms of video. A significant tick first flushes any
    pending video chunk, then emits a significant packet carrying that
    tick's video; insignificant ticks accumulate video and flush a chunk
    once 15 ms worth is pending. No video byte is dropped or duplicated,
    and none waits more than 15 ms. flags is a 1-D array, one per tick.
    """
    if not 0 < video_rate < math.inf:
        raise InvalidSignalSpec(f"video rate must be positive and finite, got {video_rate}")
    if not 0 < header < math.inf:
        raise InvalidSignalSpec(f"header must be positive and finite, got {header}")
    per_tick = video_rate * HAPTIC_TICK
    flush_at = CHUNK_TICKS * per_tick - 1e-9
    pending = [0.0, per_tick]  # video pending after k quiet ticks
    while pending[-1] < flush_at:
        pending.append(pending[-1] + per_tick)
    flush = len(pending) - 1  # quiet ticks per full chunk
    pending = np.array(pending)

    flags = _as_array(flags, bool, "flags")
    if flags.ndim != 1:
        raise InvalidSignalSpec(f"flags must have shape (N,), got {flags.shape}")
    ticks = np.arange(len(flags))
    sig = ticks[flags]
    # a full chunk leaves at every flush-th quiet tick after the last
    # significant one (tick -1 at the start)
    last_sig = np.maximum.accumulate(np.where(flags, ticks, -1))
    full = ticks[~flags & ((ticks - last_sig) % flush == 0)]
    # the rest of each quiet run leaves before the next significant packet,
    # or at tick len(flags)
    ends = np.append(sig, len(flags))
    rest = (np.diff(ends, prepend=-1) - 1) % flush
    ends, rest = ends[rest > 0], rest[rest > 0]

    tick = np.concatenate((full, ends, sig))
    significant = np.arange(len(tick)) >= len(full) + len(ends)
    video = np.concatenate((np.full(len(full), pending[flush]), pending[rest],
                            np.full(len(sig), per_tick)))
    order = np.argsort(2 * tick + significant)  # a chunk goes before its tick's packet
    return MuxStream(tick[order], significant[order], video[order], header)


def instantaneous_rate(packets: list[tuple[float, float]], window: float = 0.1) -> RateSeries:
    """Sliding-window byte rate of a packet stream, plus peak and long-term mean.

    packets are finite (time, size) pairs with sizes >= 0, in any order, as
    a sequence or an (N, 2) array; they are taken in order of time, then
    size. Anything else raises InvalidSignalSpec.
    """
    if len(packets) == 0:
        raise EmptyStream("cannot compute a rate series for an empty stream")
    if not 0 < window < math.inf:
        raise InvalidSignalSpec(f"window must be finite and positive, got {window}")
    pairs = _as_array(packets, float, "packets")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InvalidSignalSpec(f"packets must have shape (N, 2), got {pairs.shape}")
    if not (np.isfinite(pairs).all() and (pairs[:, 1] >= 0).all()):
        raise InvalidSignalSpec("packets must be finite (time, size) pairs with sizes >= 0")
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]  # by time, then size
    times = pairs[:, 0]
    sizes = pairs[:, 1]
    cum = np.concatenate([[0.0], np.cumsum(sizes)])

    t0, t1 = times[0], times[-1]
    grid = np.arange(t0 + window, t1 + HAPTIC_TICK, HAPTIC_TICK)
    if len(grid):
        # bytes of packets with time in [g - window, g)
        hi = np.searchsorted(times, grid, side="left")
        lo = np.searchsorted(times, grid - window, side="left")
        rates = (cum[hi] - cum[lo]) / window
    else:  # the stream is shorter than the window, which holds it all from t0
        grid = np.array([t0 + window])
        rates = cum[-1:] / window

    span = t1 - t0 + HAPTIC_TICK
    mean = float(cum[-1] / span)
    return RateSeries(times=grid, rates=rates, peak=float(rates.max()), mean=mean)

