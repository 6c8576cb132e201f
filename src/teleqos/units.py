"""Unit-suffixed quantity parsing and canonical formatting.

Internal arithmetic throughout the package uses bytes, seconds,
bytes/second and hertz. Conventions: 1 kB = 1000 bytes, 1 Mbps =
10^6 bits/second (so 6 Mbps = 750000 B/s and 14 kB / 6 Mbps = 18.667 ms).

The canonical render units are the multiplier-1 suffixes (Bps, s, B, Hz)
so that ``parse(render(x)) == x`` exactly for any float; the human units
(Mbps, kbps, ms, kB, %) are accepted on input.
"""

from __future__ import annotations

import math


class UnitError(ValueError):
    """Raised when a quantity string is malformed or has the wrong unit."""


# multiplier converts the suffixed value to the internal unit
RATE_UNITS = {
    "Bps": 1.0,
    "kBps": 1e3,
    "MBps": 1e6,
    "bps": 1.0 / 8.0,
    "kbps": 1e3 / 8.0,
    "Mbps": 1e6 / 8.0,
    "Gbps": 1e9 / 8.0,
}
TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
SIZE_UNITS = {"B": 1.0, "kB": 1e3, "MB": 1e6}
FREQ_UNITS = {"Hz": 1.0, "kHz": 1e3}
FRACTION_UNITS = {"": 1.0, "%": 1e-2}


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _parse(text: str, units: dict[str, float], kind: str) -> float:
    parts = text.strip().split()
    if len(parts) == 1:
        # allow "8ms" as well as "8 ms": split at the known suffix that leaves
        # a number, so "nans" is nan seconds and "nan" a bare fraction
        s = parts[0]
        for suffix in units:
            if suffix and s.endswith(suffix) and _is_number(s[: -len(suffix)]):
                parts = [s[: -len(suffix)], suffix]
                break
    if len(parts) == 1:
        if "" in units:
            parts.append("")
        else:
            raise UnitError(
                f"{kind} value {text!r} is missing a unit suffix "
                f"(expected one of {', '.join(sorted(units))})"
            )
    if len(parts) != 2:
        raise UnitError(f"cannot parse {kind} value {text!r}")
    num, suffix = parts
    if suffix not in units:
        raise UnitError(
            f"{kind} value {text!r} has unknown unit {suffix!r} "
            f"(expected one of {', '.join(sorted(u for u in units if u))})"
        )
    try:
        value = float(num) * units[suffix]
    except ValueError:
        raise UnitError(f"cannot parse number in {kind} value {text!r}") from None
    if not math.isfinite(value):
        raise UnitError(f"{kind} value {text!r} is not a finite number")
    return value


def parse_rate(text: str) -> float:
    """Parse a data rate into bytes/second."""
    return _parse(text, RATE_UNITS, "rate")


def parse_time(text: str) -> float:
    """Parse a duration into seconds."""
    return _parse(text, TIME_UNITS, "time")


def parse_size(text: str) -> float:
    """Parse a data size into bytes."""
    return _parse(text, SIZE_UNITS, "size")


def parse_freq(text: str) -> float:
    """Parse a frequency into hertz."""
    return _parse(text, FREQ_UNITS, "frequency")


def parse_fraction(text: str) -> float:
    """Parse a dimensionless fraction; '%' is accepted (10 % -> 0.1)."""
    return _parse(text, FRACTION_UNITS, "fraction")


def format_rate(bps: float) -> str:
    return f"{bps!r} Bps"


def format_time(seconds: float) -> str:
    return f"{seconds!r} s"


def format_size(nbytes: float) -> str:
    return f"{nbytes!r} B"


def format_freq(hz: float) -> str:
    return f"{hz!r} Hz"


def format_fraction(value: float) -> str:
    return repr(value)
