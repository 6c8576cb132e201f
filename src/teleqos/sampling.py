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
to a plain row-by-row evaluation.

Every stage works through the signal in blocks of BLOCK ticks (packets or
window ends, where it walks those), so it holds its output and O(BLOCK)
scratch, whatever the signal's length. The filtered-noise generator draws
its noise a block of rows at a time, which gives the same numbers as one
draw, and runs its one-pole lowpass as a scalar loop over Python floats
that carries y from block to block: only scipy.signal.lfilter would
reproduce the recursion bit for bit, and scipy is not a dependency. The
sum of sinusoids adds each term a block at a time. The deadband tests the
BLOCK references from the chain's current position against each of their
next DEADBAND_OFFSETS samples with elementwise IEEE operations in the row
loop's order, follows the chain of references through that table, and
starts its next block where the chain lands, so a reference that a search
further on jumps over is never tested. The multiplexer places each quiet
run's chunks from the run's length, and its chunk sizes come from one
table of repeated additions, so they too equal a tick-by-tick
accumulator's. The rate series is the one stage whose scratch grows with
the stream: it sorts its packets, then sums a block of windows at a time.
On a 2-vCPU Xeon with Python 3.11, `teleqos rates` on a 120 s signal
peaks 5-8 MB above the 36 MB of an interpreter with numpy and teleqos
loaded (15-19 MB when every stage made whole-signal temporaries), and on
a 1200 s signal 48-74 MB above it (150-164 MB before).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import InvalidSignalSpec, SignalSpec

HAPTIC_TICK = 1e-3  # 1 kHz sampling grid
CHUNK_TICKS = 15    # max video backlog per chunk packet, in ticks
ZERO_REF_EPS = 1e-6     # significance threshold against a zero reference
EPS_SQ = ZERO_REF_EPS * ZERO_REF_EPS  # what squared norms are compared with
DEADBAND_OFFSETS = 16   # the deadband tests every sample against this many next ones at once
BLOCK = 8192  # ticks (or packets, or window ends) each sampling stage handles at once


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
    rng = np.random.default_rng(spec.seed)
    out = np.zeros((n, 3))

    if spec.kind == "sum-of-sinusoids":
        # four (amplitude, frequency, phase) terms per axis, added in order
        terms = [(axis, spec.amplitude * rng.uniform(0.2, 1.0), rng.uniform(0.3, 8.0),
                  rng.uniform(0, 2 * math.pi)) for axis in range(3) for _ in range(4)]
        for s in _blocks(n):
            t = np.arange(s.start, s.stop) * HAPTIC_TICK
            for axis, amp, freq, phase in terms:
                out[s, axis] += amp * np.sin(2 * math.pi * freq * t + phase)
    elif spec.kind == "filtered-noise":
        # one-pole lowpass over white noise, y = decay*y + innov*v per axis;
        # drawn a block of rows at a time, the noise is the same as drawn at once
        innov = 0.02
        decay = 1.0 - innov
        ys = [0.0, 0.0, 0.0]
        scale = np.zeros(3)
        for s in _blocks(n):
            block = out[s]
            noise = innov * rng.standard_normal(block.shape)
            for axis in range(3):
                y = ys[axis]
                block[:, axis] = [y := decay * y + w for w in memoryview(noise[:, axis])]
                ys[axis] = y
            scale = np.maximum(scale, np.abs(block).max(axis=0))
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
            if in_contact:
                seg_t = np.arange(pos, end) * HAPTIC_TICK
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


def _blocks(n: int):
    """Slices that cover range(n) in order, BLOCK items each but the last."""
    for start in range(0, n, BLOCK):
        yield slice(start, min(start + BLOCK, n))


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
    flags = np.zeros(len(pts), dtype=bool)
    if len(pts) == 0:
        return flags
    if not _finite(pts):
        raise InvalidSignalSpec("samples must be finite")
    # a square may overflow to inf, as a Python float's does
    with np.errstate(over="ignore"):
        i = 0
        while i < len(pts):
            i = _deadband_block(pts, i, k * k, flags)
    return flags


def _deadband_block(pts: np.ndarray, start: int, k_sq: float, flags: np.ndarray) -> int:
    """Flag the chain of references from significant sample `start` through
    the BLOCK samples from there on; return the first significant sample
    after them, or len(pts). Indices within the function count from start."""
    size = min(BLOCK, len(pts) - start)
    rows = pts[start:start + size + DEADBAND_OFFSETS]
    # NaN samples past the end, which no test counts as significant, so
    # that every reference in the block has as many followers
    pad = np.full(size + DEADBAND_OFFSETS - len(rows), np.nan)
    cols = [np.concatenate((rows[:, axis], pad)) for axis in range(pts.shape[1])]
    sq = _sum_sq(cols)
    limit = k_sq * sq
    zero = sq <= EPS_SQ
    any_zero = zero.any()

    def significant(ref, at):
        """Whether each sample at `at` is significant against its reference."""
        hit = _sum_sq([col[at] - col[ref] for col in cols]) >= limit[ref]
        if any_zero and zero[ref].any():  # a zero reference takes the absolute test
            hit = np.where(zero[ref], sq[at] > EPS_SQ, hit)
        return hit

    # the next significant sample after each reference, if it lies at most
    # DEADBAND_OFFSETS samples on, else 0 (further on, or none)
    nxt = np.zeros(size, dtype=int)
    refs = np.arange(size)
    for d in range(1, DEADBAND_OFFSETS + 1):
        hit = significant(refs, refs + d)
        ends = refs[hit]
        nxt[ends] = ends + d
        refs = refs[~hit]

    # follow the chain; a reference still open after DEADBAND_OFFSETS samples
    # is searched further on, which skips every sample in between
    nxt = nxt.tolist()
    hits = []
    i = 0
    while i < size:
        hits.append(i)
        i = nxt[i] or _far_hit(pts, start + i, k_sq) - start
    flags[start:start + size][hits] = True
    return start + i


def _far_hit(pts: np.ndarray, i: int, k_sq: float) -> int:
    """The next significant sample after reference i beyond its first
    DEADBAND_OFFSETS followers, searched in spans that double up to BLOCK
    samples, or len(pts)."""
    ref = pts[i].tolist()
    ref_sq = _sum_sq(ref)
    lo, size = i + DEADBAND_OFFSETS + 1, DEADBAND_OFFSETS
    while lo < len(pts):
        span = pts[lo:lo + size]
        if ref_sq <= EPS_SQ:  # a zero reference takes the absolute test
            hit = _sum_sq(span.T) > EPS_SQ
        else:
            hit = _sum_sq([col - r for col, r in zip(span.T, ref)]) >= k_sq * ref_sq
        if hit.any():
            return lo + int(hit.argmax())
        lo, size = lo + size, min(2 * size, BLOCK)
    return len(pts)


def _as_array(values, dtype: type, what: str) -> np.ndarray:
    """values as an array of dtype; what numpy cannot convert raises InvalidSignalSpec."""
    try:
        return np.asarray(values, dtype=dtype)
    except (TypeError, ValueError):
        raise InvalidSignalSpec(
            f"{what} must form an array of one shape, got a ragged or non-numeric sequence"
        ) from None


def _finite(values: np.ndarray) -> bool:
    """Whether a non-empty array is all finite, without a temporary of its
    size: a NaN or an infinity makes its least or greatest value non-finite."""
    return math.isfinite(values.min()) and math.isfinite(values.max())


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
    # a quiet run of q ticks leaves ceil(q / flush) chunks: q // flush full
    # ones and, if q % flush ticks remain, a rest chunk at the tick that
    # ends the run
    size = sum(len(quiet) * closed + int((-(-quiet // flush)).sum())
               for quiet, closed in _quiet_runs(flags))
    # tick holds each packet's step from the one before (tick -1 before the
    # first) until the steps are summed: a full chunk lies flush ticks after
    # the previous full chunk or the previous run's end
    tick = np.full(size, flush)
    significant = np.zeros(size, dtype=bool)
    video = np.full(size, pending[flush])
    end = 0  # the number of packets placed so far
    for quiet, closed in _quiet_runs(flags):
        # each run leaves its full chunks, its rest chunk and, if a
        # significant tick ends it, that tick's packet
        full, rest = np.divmod(quiet, flush)
        has_rest = rest > 0
        last = end - 1 + np.cumsum(full + has_rest + closed)
        at_rest = (last - closed)[has_rest]
        tick[at_rest] = rest[has_rest] + 1
        video[at_rest] = pending[rest[has_rest]]
        if closed:
            tick[last] = rest == 0  # 0 ticks after the rest chunk, if any, else 1
            significant[last] = True
            video[last] = per_tick
        end = last[-1] + 1
    before = -1
    for s in _blocks(size):
        steps = tick[s]
        np.cumsum(steps, out=steps)
        steps += before
        before = steps[-1]
    return MuxStream(tick, significant, video, header)


def _quiet_runs(flags: np.ndarray):
    """The lengths of the quiet runs of flags, a block of ticks at a time,
    each with whether significant ticks end its runs: all but the last run,
    which tick len(flags) ends."""
    before = -1  # the last significant tick so far
    for s in _blocks(len(flags)):
        sig = s.start + np.flatnonzero(flags[s])
        if len(sig):
            quiet = np.diff(sig, prepend=before) - 1
            before = sig[-1]
            yield quiet, True
    yield np.array([len(flags) - 1 - before]), False


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
    if not (_finite(pairs) and pairs[:, 1].min() >= 0):
        raise InvalidSignalSpec("packets must be finite (time, size) pairs with sizes >= 0")
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))  # by time, then size
    times = pairs[order, 0]  # contiguous, which searchsorted would copy it to otherwise
    cum = np.zeros(len(pairs) + 1)  # bytes before each packet, then in all
    np.cumsum(pairs[order, 1], out=cum[1:])

    t0, t1 = times[0], times[-1]
    grid = np.arange(t0 + window, t1 + HAPTIC_TICK, HAPTIC_TICK)
    if len(grid):
        rates = np.empty(len(grid))
        for s in _blocks(len(grid)):
            # bytes of packets with time in [g - window, g)
            hi = np.searchsorted(times, grid[s], side="left")
            lo = np.searchsorted(times, grid[s] - window, side="left")
            rates[s] = (cum[hi] - cum[lo]) / window
    else:  # the stream is shorter than the window, which holds it all from t0
        grid = np.array([t0 + window])
        rates = cum[-1:] / window

    span = t1 - t0 + HAPTIC_TICK
    mean = float(cum[-1] / span)
    return RateSeries(times=grid, rates=rates, peak=float(rates.max()), mean=mean)

