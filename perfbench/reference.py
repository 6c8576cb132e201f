"""A fixed reference task that measures how fast the host is right now.

    python3 perfbench/reference.py OUT

It builds 800,000 event records as tuples, formats them as CSV lines and
writes them to OUT (about 42 MB): interpreter start-up, allocation of many
small objects, string formatting and a large file write, the same kinds of
work a `teleqos simulate --trace` child does. It imports nothing from
teleqos and its inputs are fixed, so its time changes only with the host.
run.py times it between workload iterations and scales the iteration times
by it (see run.py).
"""

from __future__ import annotations

import random
import sys

RECORDS = 400_000  # pairs of records


def main(out_path: str) -> int:
    rng = random.Random(11)
    rows = []
    t = 0.0
    for i in range(RECORDS):
        t += rng.expovariate(3000.0)
        rows.append((t, i, "haptic" if i % 3 else "video", rng.random() * 1e-3, i % 5 == 0))
        rows.append((t + 1e-4, i, "ack", rng.random(), False))
    lines = ["time,seq,flow,value,flag"]
    for r in rows:
        lines.append(f"{r[0]!r},{r[1]},{r[2]},{r[3]!r},{int(r[4])}")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
