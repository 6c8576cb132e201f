"""Independent brute-force oracles kept separate from the code they check."""

from __future__ import annotations

import numpy as np

from teleqos.sampling import CHUNK_TICKS, HAPTIC_TICK, ZERO_REF_EPS


def mtcp_by_timeline(n: int, s_tcp: float, mu: float, rate: float, interval: float) -> int:
    """Maximum TCP packets in any half-open window of length `interval`,
    counted by enumerating burst emission times around one slot boundary.

    Bursts of n packets are spaced n*s_tcp/(mu-rate) apart; at the boundary
    an n-burst is followed n*s_tcp/mu later by an (n+1)-burst (the probing
    packet's cumulative ACK arrives at the back-to-back service spacing).
    """
    burst_gap = n * s_tcp / (mu - rate)
    boundary_gap = n * s_tcp / mu
    k = int(interval / burst_gap) + 3
    bursts = [(-i * burst_gap, n) for i in range(k, 0, -1)]
    bursts.append((0.0, n))
    bursts.append((boundary_gap, n + 1))
    bursts.extend((boundary_gap + i * burst_gap, n) for i in range(1, k + 1))

    best = 0
    for start, _ in bursts:
        total = sum(c for t, c in bursts if start <= t < start + interval)
        if total > best:
            best = total
    return best


def queue_by_slot_recursion(
    mu: float, tau: float, buf: float, s_tcp: float, rate: float, w_min: float, q_init: float, i: int
) -> float:
    """Queue occupancy at the start of slot i via the per-slot balance:

        Q(k+1) = Q(k) + RTT(k)*R + W(k)*S_tcp - mu*RTT(k),
        RTT(k) = 2*tau + Q(k)/mu,  W(k) = w_min + k - 1,  Q(1) = q_init.
    """
    q = q_init
    for k in range(1, i):
        rtt = 2.0 * tau + q / mu
        q = q + rtt * rate + (w_min + k - 1) * s_tcp - mu * rtt
    return q


# The adaptive-sampling loops as they ran before the scalar kernels in
# teleqos.sampling: one row (or one flag) per iteration, numpy arithmetic
# per row. The kernels must reproduce them bit for bit.


def _left_to_right_sum(values) -> float:
    # the order sum() added floats in before Python 3.12, which switched to
    # compensated summation; the pinned digests were computed in this order
    total = 0
    for v in values:
        total += v
    return total


def filtered_noise_by_rows(amplitude: float, seed: int, duration: float) -> np.ndarray:
    """The filtered-noise trace: a one-pole lowpass updated one (3,) row at a time."""
    n = int(round(duration / HAPTIC_TICK))
    rng = np.random.default_rng(seed)
    out = np.zeros((n, 3))
    innov = 0.02
    noise = rng.standard_normal((n, 3))
    y = np.zeros(3)
    for i in range(n):
        y = (1.0 - innov) * y + innov * noise[i]
        out[i] = y
    scale = np.max(np.abs(out), axis=0)
    scale[scale == 0] = 1.0
    out *= amplitude / scale
    return out


def deadband_by_rows(samples, k: float) -> np.ndarray:
    """Significance flags with per-row generator sums over any number of axes."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = len(pts)
    flags = np.zeros(n, dtype=bool)
    if n == 0:
        return flags
    rows = pts.tolist()
    flags[0] = True
    ref = rows[0]
    ref_sq = _left_to_right_sum(v * v for v in ref)
    k_sq = k * k
    eps_sq = ZERO_REF_EPS * ZERO_REF_EPS
    for i in range(1, n):
        x = rows[i]
        if ref_sq <= eps_sq:
            sig = _left_to_right_sum(v * v for v in x) > eps_sq
        else:
            d_sq = _left_to_right_sum((a - b) * (a - b) for a, b in zip(x, ref))
            sig = d_sq >= k_sq * ref_sq
        if sig:
            flags[i] = True
            ref = x
            ref_sq = _left_to_right_sum(v * v for v in ref)
    return flags


def mux_by_ticks(flags, video_rate: float, header: float) -> list[tuple[float, str, float, float]]:
    """(time, kind, header_bytes, video_bytes) of each multiplexed packet."""
    per_tick = video_rate * HAPTIC_TICK
    chunk_limit = CHUNK_TICKS * per_tick
    packets = []
    pending = 0.0
    for i, sig in enumerate(flags):
        t = i * HAPTIC_TICK
        if sig:
            if pending > 0:
                packets.append((t, "chunk", header, pending))
                pending = 0.0
            packets.append((t, "significant", header, per_tick))
        else:
            pending += per_tick
            if pending >= chunk_limit - 1e-9:
                packets.append((t, "chunk", header, pending))
                pending = 0.0
    if pending > 0:
        packets.append((len(flags) * HAPTIC_TICK, "chunk", header, pending))
    return packets
