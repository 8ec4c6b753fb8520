"""Catalogue benchmark: end-to-end host time and a traced per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload adam_cpu [--seed N] [--seconds S] [--trace 0|1]

Workloads, the reason each exists and the layer -> end-to-end
predictions are in ``perfbench/catalogue.json``. Every pass runs in a
fresh interpreter (``perfbench/child.py``), one experiment at a time
(``jobs=1``, no process pool), into an empty results tree, so each pays
the cold-start costs a real ``repro run`` pays. Passes repeat in rounds
until ``--seconds`` is used up; a round runs one pass pinned to each
CPU, concurrently.

Times are taken per operation at its fastest across the run's passes.
On a shared host each CPU runs up to ~2x slower in bursts lasting
1-30 s, and the slowdown only ever adds time: the median of whole
passes moves 10-25% from one run to the next. Bursts on the two CPUs
are independent over a second, so the per-operation minimum over both
CPUs removes the short ones; spells of host load that last minutes
still move every estimate. ``wall_s`` is the sum of the per-operation
minima plus the smallest remainder (pass wall time not inside any
operation), ``critical_path_s`` the largest minimum. ``setup_s`` is the
median over the run's interpreters, and ``peak_rss_mb`` the median
over its passes.

``--trace 0`` prints the end-to-end metrics: ``wall_s``,
``critical_path_s``, ``setup_s`` and ``peak_rss_mb``. ``--trace 1``
runs untraced and traced passes side by side and prints the per-layer
metrics of the traced ones (each time at its fastest, each count checked to
repeat exactly), plus ``trace.overhead_s``: traced minus untraced
``wall_s``. The spans of the last traced pass are written to
``.perfbench_out/<workload>-spans.json``.

Each experiment or sweep point is one operation. It fails when it
raises or when its artifact digest differs from the recorded one
(``benchmarks/artifact_digests.json`` for the paper artifacts,
``perfbench/scenario_digests.json`` for the sweep points). The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PAPER_DIGESTS = os.path.join(ROOT, "benchmarks", "artifact_digests.json")
SCENARIO_DIGESTS = os.path.join(HERE, "scenario_digests.json")

#: Fewest rounds of untraced passes per run, however short ``--seconds`` is.
MIN_ROUNDS = 3
#: Rounds of set-up-only interpreters after each round of passes, to
#: sample set-up time across the whole run.
SETUPS_PER_ROUND = 2
#: Limit on one child process (the whole run must end within 180 s).
CHILD_TIMEOUT_S = 150

sys.path.insert(0, HERE)
import layers  # noqa: E402
from child import all_experiments, load_catalogue  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "critical_path_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units(catalogue: dict) -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: Dict[str, str] = {}
    for span in layers.SELF_TIME_SPANS:
        units[f"{span}_s"] = "s"
    units["eval.orchestrator.overhead_s"] = units.pop("eval.orchestrator_s")
    units["eval.sweep.overhead_s"] = units.pop("eval.sweep_s")
    units["pass.self_s"] = units.pop("pass_s")
    units["eval.sweep.cached_pass_s"] = "s"
    units["trace.overhead_s"] = "s"
    for name in all_experiments(catalogue):
        units[f"eval.exp.{name}_s"] = "s"
    units.update(
        {
            "cpu.tenanalyzer.replay_accesses": "count",
            "cpu.tenanalyzer.ns_per_access": "ns",
            "cpu.metadata_model.sample_lines": "count",
            "cpu.metadata_model.ns_per_line": "ns",
            "workloads.accesses": "count",
            "tensor.line_addresses_calls": "count",
        }
    )
    for counter in catalogue["simulated_counters"]:
        units[counter] = "ratio" if counter.endswith("rate") else "count"
    for layer in layers.UNREACHED_LAYERS:
        units[f"{layer}.calls"] = "count"
    return units


class OpChecker:
    """Counts operations and checks each artifact against its recorded digest."""

    def __init__(self, seed: int, default_seed: int) -> None:
        with open(PAPER_DIGESTS, encoding="utf-8") as f:
            self.expected = dict(json.load(f)["experiments"])
        with open(SCENARIO_DIGESTS, encoding="utf-8") as f:
            self.expected.update(json.load(f)["points"])
        if seed != default_seed:
            # fig18's trace follows the seed: its VN assertion still
            # checks it, and its digest must repeat within the run.
            del self.expected["fig18_hit_rate"]
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ops: List[dict]) -> None:
        for op in ops:
            self.attempted += 1
            name = op["name"]
            want_status = "cached" if op["pass"] == "cached" else "executed"
            if op["status"] != want_status:
                self.failures.append(f"{name}: {op['status']} ({op['error_type']})")
            elif self.expected.setdefault(name, op["digest"]) != op["digest"]:
                self.failures.append(f"{name}: digest {op['digest'][:16]} differs")


class Child:
    """Spawns rounds of passes of one workload: one pass per CPU at a time."""

    def __init__(self, workload: str, seed: int, work_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.cpus = sorted(os.sched_getaffinity(0))
        self.setup_s: List[float] = []
        self.count = 0

    def _start(self, mode: str, cpu: int, spans_path: Optional[str]) -> subprocess.Popen:
        self.count += 1
        results = os.path.join(self.work_dir, f"results-{self.count}")
        os.makedirs(results)
        env = dict(self.env, REPRO_RESULTS_DIR=results)
        argv = [sys.executable, CHILD, self.workload, str(self.seed), mode]
        os.sched_setaffinity(0, {cpu})  # the child inherits the mask
        try:
            argv.append(str(time.monotonic_ns()))
            if spans_path:
                argv.append(spans_path)
            return subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        finally:
            os.sched_setaffinity(0, self.cpus)

    def round(self, modes: List[str], spans_path: Optional[str] = None) -> List[dict]:
        """Run ``modes[i]`` pinned to CPU ``i``, all concurrently; their records.

        Each CPU of a shared host slows down in bursts, independently of
        the other, so a round samples every operation once per CPU.
        Traced children write their spans to ``spans_path``.
        """
        procs = []
        try:
            for mode, cpu in zip(modes, self.cpus):
                procs.append(self._start(mode, cpu, spans_path if mode == "1" else None))
            records = []
            for mode, proc in zip(modes, procs):
                out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
                if proc.returncode != 0:
                    raise RuntimeError(f"{self.workload} child ({mode}) exited {proc.returncode}")
                records.append(dict(json.loads(out.strip().splitlines()[-1]), mode=mode))
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
            shutil.rmtree(self.work_dir, ignore_errors=True)
            os.makedirs(self.work_dir)
        self.setup_s += [record["setup_s"] for record in records]
        return records


def fastest_pass(records: List[dict]) -> Tuple[float, float]:
    """(wall_s, critical_path_s) from each operation's fastest time."""
    best: Dict[str, float] = {}
    remainder = []
    for record in records:
        executed = [op for op in record["ops"] if op["status"] == "executed"]
        for op in executed:
            best[op["name"]] = min(op["elapsed_s"], best.get(op["name"], op["elapsed_s"]))
        remainder.append(record["wall_s"] - sum(op["elapsed_s"] for op in executed))
    return sum(best.values()) + min(remainder), max(best.values(), default=0.0)


def run(args: argparse.Namespace, catalogue: dict, work_dir: str) -> dict:
    checker = OpChecker(args.seed, catalogue["default_seed"])
    child = Child(args.workload, args.seed, work_dir)
    cold_ok = True
    ncpu = len(child.cpus)
    child.round(["setup"] * ncpu)  # warm-up: byte-compile and fill the page cache
    child.setup_s.clear()

    records: List[dict] = []
    durations: List[float] = []
    spans_path = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-spans.json")
    if args.trace:
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if args.trace:
            # Traced and untraced passes side by side, swapping CPUs each
            # round, so trace.overhead_s compares passes under the same load.
            modes = [("0", "1")[(len(durations) + i) % 2] for i in range(ncpu)]
        else:
            modes = ["0"] * ncpu
        for record in child.round(modes, spans_path):
            checker.check(record["ops"])
            cold_ok = cold_ok and not any(record["cold"].values())
            records.append(record)
        if not args.trace:
            for _ in range(SETUPS_PER_ROUND):
                child.round(["setup"] * ncpu)
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        enough = len(durations) >= (2 if args.trace else MIN_ROUNDS)
        if enough and elapsed + statistics.median(durations) > args.seconds:
            break
    untraced = [record for record in records if record["mode"] == "0"]
    traced = [record for record in records if record["mode"] == "1"]

    wall, critical = fastest_pass(untraced)
    counters_repeat = True
    if args.trace:
        units = per_layer_units(catalogue)
        layer_runs = [record["layers"] for record in traced]
        values = {}
        for name in layer_runs[0]:
            samples = [run[name] for run in layer_runs]
            if units[name] in ("s", "ns"):
                values[name] = min(samples)
            else:
                values[name] = samples[0]
                counters_repeat = counters_repeat and len(set(samples)) == 1
        values["trace.overhead_s"] = fastest_pass(traced)[0] - wall
    else:
        values = {
            "wall_s": wall,
            "critical_path_s": critical,
            "setup_s": statistics.median(child.setup_s),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(untraced)} passes, "
        f"{len(traced)} traced, {len(child.setup_s)} set-ups"
    )
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    for failure in checker.failures:
        print(f"  FAILED {failure}")
    if not cold_ok:
        print("  FAILED a pass did not start with empty process-level caches")
    if not counters_repeat:
        print("  FAILED simulated counters differ between traced passes")
    return {
        "correct": not checker.failures and cold_ok and counters_repeat,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    catalogue = load_catalogue()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalogue["workloads"]))
    parser.add_argument("--seed", type=int, default=catalogue["default_seed"])
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")) or not os.path.isfile(PAPER_DIGESTS):
        print(f"error: {ROOT} is not a checkout of the repro package", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, ".perfbench_work")
    work_dir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        result = run(args, catalogue, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not os.listdir(work_root):
            os.rmdir(work_root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
