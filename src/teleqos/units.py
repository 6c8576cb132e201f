"""Unit-suffixed quantity parsing and canonical formatting.

Internal arithmetic throughout the package uses bytes, seconds,
bytes/second and hertz. Conventions: 1 kB = 1000 bytes, 1 Mbps =
10^6 bits/second (so 6 Mbps = 750000 B/s and 14 kB / 6 Mbps = 18.667 ms).

Each dimension is one `Unit`: RATE, TIME, SIZE, FREQ and FRACTION. Its
`format` writes the multiplier-1 suffix (Bps, s, B, Hz, none) so that
``parse(format(x)) == x`` exactly for any float; the human units (Mbps,
kbps, ms, kB, %) are accepted on input.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class UnitError(ValueError):
    """Raised when a quantity string is malformed or has the wrong unit."""


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class Unit(NamedTuple):
    """One dimension: its name in messages and its suffix table, whose
    multiplier converts a suffixed value to the internal unit."""

    kind: str
    table: dict[str, float]

    def parse(self, text: str) -> float:
        """The value of text, a number and one of the table's suffixes, in
        the internal unit; a bare number only where the table has ''."""
        kind, units = self.kind, self.table
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

    def format(self, value: float) -> str:
        """The value's repr in the multiplier-1 suffix: parse(format(x)) == x."""
        suffix = next(s for s, multiplier in self.table.items() if multiplier == 1.0)
        return f"{value!r} {suffix}" if suffix else repr(value)


RATE = Unit("rate", {
    "Bps": 1.0,
    "kBps": 1e3,
    "MBps": 1e6,
    "bps": 1.0 / 8.0,
    "kbps": 1e3 / 8.0,
    "Mbps": 1e6 / 8.0,
    "Gbps": 1e9 / 8.0,
})
TIME = Unit("time", {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9})
SIZE = Unit("size", {"B": 1.0, "kB": 1e3, "MB": 1e6})
FREQ = Unit("frequency", {"Hz": 1.0, "kHz": 1e3})
FRACTION = Unit("fraction", {"": 1.0, "%": 1e-2})  # 10 % -> 0.1
parse_rate = RATE.parse  # the name perfbench's sweep workload calls
