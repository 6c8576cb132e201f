"""Run the benchmark several times per workload and summarise the spread.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1] [--workloads a,b]
                                  [--seconds S] [--no-trace] [--out FILE]

Each run is a fresh `run.py` process with its own seed (first-seed,
first-seed + 1, ...); the workloads take turns, so each one's runs spread
over the whole session. For every end-to-end metric it prints the median,
the quartiles and the spread (interquartile distance over the median, as
`statistics.quantiles(values, n=4)` gives them) next to the metric's bound
in BENCHMARK.json. Unless --no-trace is given, one traced run per
workload adds the per-layer numbers. --out writes all of it, with each
run's summary line (raw iteration times and reference time) and the
environment, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["summary"] = lines[-2] if len(lines) > 1 else ""
    result["seed"] = seed
    result["elapsed_s"] = elapsed
    return result


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    out = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "machine": platform.machine(),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("--out")
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")

    doc = {"environment": environment(), "run_seconds": args.seconds, "workloads": {}}
    names = args.workloads.split(",")
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for i in range(args.runs):
        for name in names:
            result = one_run(name, args.first_seed + i, args.seconds, 0)
            runs[name].append(result)
            print(f"{name} seed={result['seed']} {result['elapsed_s']:.1f} s correct={result['correct']}",
                  file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name in names:
        entry = {
            "correct": all(r["correct"] for r in runs[name]),
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "seeds": [r["seed"] for r in runs[name]],
            "run_elapsed_s": summarise([r["elapsed_s"] for r in runs[name]], None),
            "summaries": [r["summary"] for r in runs[name]],
            "end_to_end": {
                metric: summarise([r["metrics"][metric]["value"] for r in runs[name]], bound)
                for metric, bound in bounds.items()
            },
        }
        if not args.no_trace:
            traced = one_run(name, args.first_seed, args.seconds, 1)
            entry["traced"] = {
                "seed": traced["seed"],
                "correct": traced["correct"],
                "elapsed_s": traced["elapsed_s"],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            }
        doc["workloads"][name] = entry
        print(f"\n{name}: correct={entry['correct']} failed {entry['failed']}/{entry['attempted']}")
        for metric, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- spread not below a third of the bound"
            print(f"  {metric:<12} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.3f}  bound {s['bound']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
