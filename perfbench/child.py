"""One workload pass in a fresh interpreter (spawned by ``run.py``).

Usage: ``python3 perfbench/child.py WORKLOAD SEED MODE SPAWNED_NS [SPANS_PATH]``
with ``PYTHONPATH`` holding the checkout's ``src`` and
``REPRO_RESULTS_DIR`` an empty directory. ``MODE`` is ``0`` (timed
pass), ``1`` (traced pass) or ``setup`` (set up, then exit);
``SPAWNED_NS`` is the parent's ``time.monotonic_ns()`` just before the
spawn, so set-up time counts from before the interpreter started.

The child prints one JSON line describing its set-up and pass.
Each pass starts cold: the process-level caches (``lru_cache``) of the
SGX metadata sampling and of the steady-state TenAnalyzer rates are
empty, as in every real ``repro run``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def load_catalogue() -> dict:
    with open(os.path.join(HERE, "catalogue.json"), encoding="utf-8") as f:
        return json.load(f)


def all_experiments(catalogue: dict) -> list:
    """Every experiment any workload runs, paper and scenario."""
    names = [n for w in catalogue["workloads"].values() for n in w.get("experiments", [])]
    return names + catalogue["scenario_experiments"]


def digest(text: str) -> str:
    """SHA-256 of an artifact as ``save_result`` writes it to disk."""
    return hashlib.sha256((text.rstrip() + "\n").encode("utf-8")).hexdigest()


def cold_start_state() -> dict:
    """Entries in the two process-level caches a real run pays to fill."""
    from repro.core import system
    from repro.cpu import sgx

    return {
        "cpu.sgx._measured": sgx._measured.cache_info().currsize,
        "core.system.steady_state_rates": system.steady_state_rates.cache_info().currsize,
    }


def _op(run, sweep_pass: str = "") -> dict:
    return {
        "name": run.name,
        "experiment": run.experiment,
        "pass": sweep_pass,
        "status": run.status,
        "elapsed_s": run.elapsed_s,
        "digest": digest(run.text) if run.status != "failed" else None,
        "error_type": run.error_type,
    }


def run_experiments(names, seed: int) -> list:
    from repro.eval.orchestrator import Orchestrator
    from repro.eval.registry import REGISTRY

    params = {}
    if "fig18_hit_rate" in names:
        config = REGISTRY.get("fig18_hit_rate").default_of("config")
        params["fig18_hit_rate"] = {"config": dataclasses.replace(config, seed=seed)}
    orchestrator = Orchestrator(jobs=1, use_cache=False, run_seed=seed, verbose=False)
    report = orchestrator.run(only=names, params=params)
    return [_op(run) for run in report.runs]


def run_sweeps(specs, seed: int, tracer) -> list:
    """Every sweep uncached into the empty results tree, then all again cached."""
    from repro.eval.sweep import run_sweep

    def span(name: str):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    def sweep(spec, label: str) -> list:
        with span("eval.sweep"):
            result = run_sweep(dataclasses.replace(spec, seed=seed), jobs=1, verbose=False)
        return [_op(run, label) for run in result.report.runs]

    ops = []
    for spec in specs:
        ops += sweep(spec, "uncached")
    with span("eval.sweep.cached_pass"):
        for spec in specs:
            ops += sweep(spec, "cached")
    return ops


def main(argv) -> int:
    workload, seed, mode, spawned_ns = argv[1], int(argv[2]), argv[3], int(argv[4])
    spans_path = argv[5] if len(argv) > 5 else None
    catalogue = load_catalogue()
    spec = catalogue["workloads"][workload]

    # -- set-up, timed from the parent's spawn (CLOCK_MONOTONIC is system-wide)
    import repro  # noqa: F401
    from repro.eval.registry import REGISTRY
    from repro.eval.sweep import expand, load_spec

    REGISTRY.load_all()
    sweep_names = catalogue["workloads"]["scenario_sweep"]["sweeps"]
    specs = [load_spec(name) for name in sweep_names]
    for sweep_spec in specs:
        expand(sweep_spec)
    result = {"setup_s": (time.monotonic_ns() - spawned_ns) / 1e9, "cold": cold_start_state()}
    if mode == "setup":
        print(json.dumps(result), flush=True)
        return 0

    tracer = None
    if mode == "1":
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
        tracer.enter("pass")
    start = time.perf_counter()
    if "sweeps" in spec:
        ops = run_sweeps(specs, seed, tracer)
    else:
        ops = run_experiments(spec["experiments"], seed)
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["ops"] = ops
    if tracer is not None:
        tracer.exit()
        result["layers"] = layers.layer_metrics(tracer, all_experiments(catalogue))
        if spans_path:
            tracer.write(spans_path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
