"""Microbenchmark subsystem: registry, timing harness, and kernel benches.

``python -m repro bench`` drives this package: benchmarks register through
the :func:`repro.perf.registry.benchmark` decorator (mirroring the
experiment registry), the harness times each one with warmup/repeat
statistics, and the CLI emits a machine-readable ``BENCH_<timestamp>.json``
whose trajectory the CI ``bench-smoke`` job tracks against
``benchmarks/baseline.json``.
"""

from repro.perf.harness import (
    BENCH_SCHEMA,
    BenchContext,
    compare_reports,
    run_benchmarks,
    validate_report,
)
from repro.perf.registry import BENCH_REGISTRY, BenchSpec, benchmark
