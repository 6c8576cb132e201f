"""Subprocess entry points of the benchmark.

    child.py setup SCENARIO
        Import teleqos.cli, parse SCENARIO and build its simulator, then
        print one JSON line with the time each step took. The parent times
        the interval from spawning this process to reading that line.

    child.py spans|tracemalloc OUT -- CLI-ARGS...
        Run `teleqos CLI-ARGS` in this process, with every layer boundary
        wrapped in spans (`spans`) or with tracemalloc on (`tracemalloc`),
        and pickle what was recorded to OUT. The exit code is the CLI's.
"""

from __future__ import annotations

import json
import pickle
import sys
import time


def _setup(scenario_path: str) -> int:
    t0 = time.perf_counter()
    import teleqos.cli  # noqa: F401  (the import is what is timed)

    t1 = time.perf_counter()
    from teleqos import scenario, simulator

    with open(scenario_path, encoding="utf-8") as fh:
        text = fh.read()
    t2 = time.perf_counter()
    config = scenario.parse_scenario(text)
    t3 = time.perf_counter()
    simulator.build_simulator(config)
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t3 - t2, "build_s": t4 - t3}), flush=True)
    return 0


def _cli(mode: str, out_path: str, argv: list[str]) -> int:
    from teleqos import cli

    if mode == "spans":
        from spans import Tracer, installed

        tracer = Tracer()
        with installed(tracer):
            code = cli.main(argv)
        doc = {
            "spans": tracer.spans,
            "counts": tracer.counts,
            "first_args": tracer.first_args,
        }
    else:
        import tracemalloc

        tracemalloc.start()
        code = cli.main(argv)
        doc = {"py_peak": tracemalloc.get_traced_memory()[1]}
        tracemalloc.stop()
    with open(out_path, "wb") as fh:
        pickle.dump(doc, fh)
    return code


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        return _setup(argv[1])
    if len(argv) >= 3 and argv[0] in ("spans", "tracemalloc") and argv[2] == "--":
        return _cli(argv[0], argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
