"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/report.py [--workloads adam_cpu,collab_e2e,scenario_sweep]
                                [--seeds 1-10] [--trace 0|1]

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, and
prints for every metric its median, the quartile spread
(``statistics.quantiles(values, n=4)``, Q3 - Q1, as a share of the
median) and, for end-to-end metrics, the bound from ``BENCHMARK.json``.
With one seed it is the one command that prints every end-to-end metric
of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            argv = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            out = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            print(
                f"{workload} seed={seed} correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}",
                flush=True,
            )
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        print(f"\n{workload}: median, quartile spread / median over {len(args.seeds)} seed(s)")
        for name, (unit, samples) in values.items():
            median = statistics.median(samples)
            spread = ""
            if len(samples) >= 2 and median:
                q1, _, q3 = statistics.quantiles(samples, n=4)
                spread = f"{(q3 - q1) / abs(median):8.2%}"
            bound = f"  bound {bounds[name]:.0%}" if name in bounds else ""
            print(f"  {name:<40} {median:>14.6g} {unit:<6} {spread}{bound}")
            if name in bounds:
                print("    " + " ".join(f"{value:.4g}" for value in samples))
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
