"""Deadband-sampled haptic traffic and visual-haptic packet multiplexing.

A haptic signal sampled on the standard 1 kHz grid is reduced by a
perceptual deadband: a sample is transmitted only when it differs from the
last transmitted sample by at least a fraction k of that sample's
magnitude. Significant samples are sent immediately, packed together with
1 ms worth of video; during insignificant runs the video accumulates and
is shipped in chunk packets of at most 15 ms worth. Synthetic signal
generators stand in for device recordings.

Samples are finite and have 1 to 3 axes; anything else raises
InvalidSignalSpec at the boundary. The per-sample recursions (the
filtered-noise lowpass, the deadband, the multiplexer) run as scalar loops
over Python floats that keep the reference arithmetic order term by term,
so their results are bit-identical to a plain row-by-row evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

HAPTIC_TICK = 1e-3  # 1 kHz sampling grid
CHUNK_TICKS = 15    # max video backlog per chunk packet, in ticks
DEFAULT_HEADER = 87.0   # header + haptic payload of a significant packet, bytes
ZERO_REF_EPS = 1e-6     # significance threshold against a zero reference


class InvalidDeadband(ValueError):
    pass


class InvalidSignalSpec(ValueError):
    pass


class EmptyStream(ValueError):
    pass


@dataclass(frozen=True)
class SignalSpec:
    """Synthetic 3-axis force signal description; reproducible given seed.

    kind: 'sum-of-sinusoids' | 'filtered-noise' | 'contact-burst'
    """

    kind: str = "contact-burst"
    amplitude: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("sum-of-sinusoids", "filtered-noise", "contact-burst"):
            raise InvalidSignalSpec(f"unknown signal kind {self.kind!r}")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise InvalidSignalSpec("amplitude must be finite and >= 0")


class MuxPacket(NamedTuple):
    """One multiplexed packet: a significant haptic sample riding with 1 ms
    of video, or a video chunk covering up to 15 ms."""

    time: float          # emission time, seconds
    kind: str            # 'significant' | 'chunk'
    header_bytes: float  # header (incl. haptic payload for significant packets)
    video_bytes: float

    @property
    def size(self) -> int:
        return int(round(self.header_bytes + self.video_bytes))

    @property
    def breakdown(self) -> dict[str, float]:
        tag = "haptic" if self.kind == "significant" else "header"
        return {tag: self.header_bytes, "video": self.video_bytes}


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
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or not 1 <= pts.shape[1] <= 3:
        raise InvalidSignalSpec(f"samples must have shape (N,) or (N, 1..3), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise InvalidSignalSpec("samples must be finite")
    flags = np.zeros(len(pts), dtype=bool)
    if len(pts) == 0:
        return flags
    cols = pts.T.tolist()
    cols += [[0.0] * len(pts)] * (3 - len(cols))
    rows = zip(*cols)
    k_sq = k * k
    eps_sq = ZERO_REF_EPS * ZERO_REF_EPS
    hits = [0]
    ra, rb, rc = next(rows)
    ref_sq = ra * ra + rb * rb + rc * rc
    limit = k_sq * ref_sq
    for i, (a, b, c) in enumerate(rows, 1):
        if ref_sq <= eps_sq:
            if not a * a + b * b + c * c > eps_sq:
                continue
        else:
            da, db, dc = a - ra, b - rb, c - rc
            if not da * da + db * db + dc * dc >= limit:
                continue
        hits.append(i)
        ra, rb, rc = a, b, c
        ref_sq = a * a + b * b + c * c
        limit = k_sq * ref_sq
    flags[hits] = True
    return flags


def vh_mux(
    flags: np.ndarray,
    video_rate: float,
    header: float = DEFAULT_HEADER,
) -> list[MuxPacket]:
    """Multiplex significance flags with a constant-rate video stream.

    Each tick accrues 1 ms of video. A significant tick first flushes any
    pending video chunk, then emits a significant packet carrying that
    tick's video; insignificant ticks accumulate video and flush a chunk
    once 15 ms worth is pending. No video byte is dropped or duplicated,
    and none waits more than 15 ms. flags is a 1-D array, one per tick.
    """
    if video_rate <= 0:
        raise InvalidSignalSpec(f"video rate must be positive, got {video_rate}")
    if header <= 0:
        raise InvalidSignalSpec(f"header must be positive, got {header}")
    per_tick = video_rate * HAPTIC_TICK
    flush_at = CHUNK_TICKS * per_tick - 1e-9
    packets: list[MuxPacket] = []
    pending = 0.0
    for i, sig in enumerate(flags.tolist()):
        if sig:
            t = i * HAPTIC_TICK
            if pending > 0:
                packets.append(MuxPacket(t, "chunk", header, pending))
                pending = 0.0
            packets.append(MuxPacket(t, "significant", header, per_tick))
        else:
            pending += per_tick
            if pending >= flush_at:
                packets.append(MuxPacket(i * HAPTIC_TICK, "chunk", header, pending))
                pending = 0.0
    if pending > 0:
        packets.append(MuxPacket(len(flags) * HAPTIC_TICK, "chunk", header, pending))
    return packets


def instantaneous_rate(packets: list[tuple[float, float]], window: float = 0.1) -> RateSeries:
    """Sliding-window byte rate of a packet stream, plus peak and long-term mean.

    packets are (time, size) pairs in any order; they are taken in order of
    time, then size.
    """
    if not packets:
        raise EmptyStream("cannot compute a rate series for an empty stream")
    if window <= 0:
        raise InvalidSignalSpec(f"window must be positive, got {window}")
    pairs = np.array(packets, dtype=float)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]  # by time, then size
    times = pairs[:, 0]
    sizes = pairs[:, 1]
    cum = np.concatenate([[0.0], np.cumsum(sizes)])

    t0, t1 = times[0], times[-1]
    grid = np.arange(t0 + window, t1 + HAPTIC_TICK, HAPTIC_TICK)
    if len(grid) == 0:
        grid = np.array([t1 + window])
    # bytes of packets with time in [g - window, g)
    hi = np.searchsorted(times, grid, side="left")
    lo = np.searchsorted(times, grid - window, side="left")
    rates = (cum[hi] - cum[lo]) / window

    span = t1 - t0 + HAPTIC_TICK
    mean = float(cum[-1] / span)
    return RateSeries(times=grid, rates=rates, peak=float(rates.max()), mean=mean)

