"""Benchmark timing harness, report schema, and baseline comparison.

One report is a JSON document (``BENCH_<timestamp>.json``)::

    {
      "schema_version": 2,
      "schema": 2,                    # legacy spelling, same number
      "kind": "repro-bench",
      "generated_at": "...",          # UTC ISO-8601
      "quick": false,
      "python": "3.12.1 ...",
      "platform": "Linux-...",
      "machine": "x86_64",
      "numpy": "2.4.6",
      "benchmarks": [
        {
          "name": "crypto.ctr_keystream",
          "tags": ["crypto", "vector"],
          "items": 1024,              # work units per call (throughput basis)
          "modes": {
            "vector": {"median_s": ..., "p10_s": ..., "p90_s": ...,
                        "mean_s": ..., "min_s": ..., "max_s": ...,
                        "repeat": 7, "warmup": 2,
                        "throughput_items_per_s": ...}
          },
          "speedup": null,            # kept for schema 2; always null
          "extra": {...}              # optional free-form workload metrics
                                      # (e.g. serve claim-latency p50/p90,
                                      # queue-depth series); never compared
        }, ...
      ]
    }

Each bench is timed once, under the single mode label ``vector``; older
reports may also carry a ``scalar`` mode and a numeric ``speedup`` from
when kernels had scalar twins. Comparison (``repro bench --compare
BASELINE --threshold 1.25``) checks each (benchmark, mode) median present
on both sides against the baseline's and flags a regression when
``current > baseline * threshold``. Readers check
``schema_version`` first (:func:`repro.schema.check_schema_version`), so a
stale baseline fails with :class:`repro.errors.SchemaVersionError` rather
than a KeyError mid-comparison.
"""

from __future__ import annotations

import datetime
import platform
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.perf.registry import BenchSpec
from repro.schema import check_schema_version

#: ``BENCH_*.json`` layout version; bump on breaking changes.
#: 1 -> 2: explicit ``schema_version`` field + trace_replay bench family.
BENCH_SCHEMA = 2
REPORT_KIND = "repro-bench"

#: The one mode label a record's ``modes`` carries (schema 2 keeps the map).
MODE_VECTOR = "vector"

_FULL_REPEAT, _FULL_WARMUP = 7, 2
_QUICK_REPEAT, _QUICK_WARMUP = 3, 1


@dataclass
class BenchContext:
    """What a benchmark factory gets to size and seed its workload."""

    quick: bool
    seed: int = 0xBEEF
    #: Work units one workload call processes; factories set it so the
    #: harness can report throughput. 0 means "unknown".
    items: int = 0
    #: Free-form JSON-safe metrics a workload records as it runs (e.g.
    #: the serve load benches' claim-latency percentiles and queue-depth
    #: series); lands in the report record under ``"extra"``. Baseline
    #: comparison ignores it — extras are observability, not a gate.
    extra: Dict[str, object] = field(default_factory=dict)
    rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    def n(self, full: int, quick: Optional[int] = None) -> int:
        """Problem size: ``full`` normally, ``quick`` (default full/8) in
        ``--quick`` mode."""
        if not self.quick:
            return full
        return quick if quick is not None else max(1, full // 8)

    def random_bytes(self, count: int) -> bytes:
        return self.rng.randbytes(count)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not sorted_values:
        raise ConfigError("percentile of an empty sample")
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def _time_workload(workload: Callable[[], object], repeat: int, warmup: int) -> List[float]:
    for _ in range(warmup):
        workload()
    samples: List[float] = []
    for _ in range(repeat):
        start = time.perf_counter()
        workload()
        samples.append(time.perf_counter() - start)
    return samples


def _mode_record(samples: List[float], items: int, warmup: int) -> dict:
    ordered = sorted(samples)
    median = _percentile(ordered, 0.5)
    record = {
        "median_s": median,
        "p10_s": _percentile(ordered, 0.1),
        "p90_s": _percentile(ordered, 0.9),
        "mean_s": sum(ordered) / len(ordered),
        "min_s": ordered[0],
        "max_s": ordered[-1],
        "repeat": len(ordered),
        "warmup": warmup,
        "throughput_items_per_s": (items / median) if items and median > 0 else None,
    }
    return record


def run_spec(spec: BenchSpec, quick: bool = False) -> dict:
    """Time one benchmark; returns its report record.

    A factory-returned workload may carry a ``close`` attribute — a
    zero-argument teardown the harness calls once timing is done (the
    serve load benches use it to stop their localhost server and delete
    its temp queue). Anything the workload put into ``context.extra``
    rides along in the record under ``"extra"``.
    """
    repeat = _QUICK_REPEAT if quick else _FULL_REPEAT
    warmup = _QUICK_WARMUP if quick else _FULL_WARMUP
    context = BenchContext(quick=quick)
    samples = _time_and_close(spec.factory(context), repeat, warmup)
    record = {
        "name": spec.name,
        "tags": list(spec.tags),
        "description": spec.description,
        "items": context.items,
        "modes": {MODE_VECTOR: _mode_record(samples, context.items, warmup)},
        "speedup": None,
    }
    if context.extra:
        record["extra"] = dict(context.extra)
    return record


def _time_and_close(workload: Callable[[], object], repeat: int, warmup: int) -> List[float]:
    """Time a workload, then run its ``close`` teardown if it has one."""
    try:
        return _time_workload(workload, repeat, warmup)
    finally:
        close = getattr(workload, "close", None)
        if callable(close):
            close()


def run_benchmarks(
    specs: Sequence[BenchSpec],
    quick: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run ``specs`` and assemble the full report document."""
    records = []
    for spec in specs:
        record = run_spec(spec, quick=quick)
        records.append(record)
        if progress is not None:
            progress(format_record_line(record))
    return {
        "schema_version": BENCH_SCHEMA,
        "schema": BENCH_SCHEMA,  # legacy spelling kept for older tooling
        "kind": REPORT_KIND,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "quick": quick,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "benchmarks": records,
    }


def format_record_line(record: dict) -> str:
    """One human-readable summary line per benchmark."""
    vector = record["modes"].get(MODE_VECTOR)
    parts = [f"{record['name']:<28}"]
    if vector is not None:
        parts.append(f"median {vector['median_s'] * 1e3:9.3f} ms")
        throughput = vector.get("throughput_items_per_s")
        if throughput:
            parts.append(f"{throughput:12.0f} items/s")
    return "  ".join(parts)


#: How to re-record a bench document that fails the version check.
_BENCH_REFRESH_HINT = (
    "Re-record it with `python -m repro bench --json <path>` "
    "(add --quick for the committed benchmarks/baseline.json)."
)


def validate_report(report: dict) -> List[str]:
    """Schema sanity check; returns a list of problems (empty = valid).

    Raises :class:`repro.errors.SchemaVersionError` when the document was
    written under a different ``schema_version`` — everything else about
    such a report is suspect, so no problem list is attempted.
    """
    check_schema_version(report, BENCH_SCHEMA, "bench report", _BENCH_REFRESH_HINT)
    problems: List[str] = []
    if report.get("kind") != REPORT_KIND:
        problems.append(f"kind must be {REPORT_KIND!r}, got {report.get('kind')!r}")
    for key in ("generated_at", "python", "platform", "benchmarks"):
        if key not in report:
            problems.append(f"missing key {key!r}")
    for record in report.get("benchmarks", []):
        name = record.get("name", "<unnamed>")
        if not record.get("modes"):
            problems.append(f"{name}: no modes")
            continue
        for mode, stats in record["modes"].items():
            for stat_key in ("median_s", "p10_s", "p90_s", "repeat"):
                if stat_key not in stats:
                    problems.append(f"{name}/{mode}: missing {stat_key!r}")
            if stats.get("median_s", 0) < 0:
                problems.append(f"{name}/{mode}: negative median")
    return problems


@dataclass(frozen=True)
class Regression:
    """One (benchmark, mode) that got slower than the baseline allows."""

    name: str
    mode: str
    baseline_s: float
    current_s: float
    ratio: float


def compare_reports(
    current: dict, baseline: dict, threshold: float = 1.25
) -> Tuple[List[str], List[Regression]]:
    """Compare per-mode medians against a baseline report.

    Returns human-readable lines plus the regressions (``current >
    baseline * threshold``). Benchmarks present on only one side are
    reported informationally, never as failures — the suite is allowed
    to grow.
    """
    if threshold <= 0:
        raise ConfigError("threshold must be positive")
    check_schema_version(current, BENCH_SCHEMA, "bench report", _BENCH_REFRESH_HINT)
    check_schema_version(baseline, BENCH_SCHEMA, "bench baseline", _BENCH_REFRESH_HINT)
    if current.get("quick") != baseline.get("quick"):
        raise ConfigError(
            "cannot compare across --quick modes: current quick="
            f"{current.get('quick')!r}, baseline quick={baseline.get('quick')!r} "
            "(re-run with matching flags or refresh the baseline)"
        )
    base_by_name = {r["name"]: r for r in baseline.get("benchmarks", [])}
    lines: List[str] = []
    regressions: List[Regression] = []
    for record in current.get("benchmarks", []):
        name = record["name"]
        base = base_by_name.pop(name, None)
        if base is None:
            lines.append(f"{name}: new benchmark (no baseline)")
            continue
        if record.get("items") != base.get("items"):
            # Different problem sizes make raw medians incomparable.
            lines.append(
                f"{name}: work size changed ({base.get('items')} -> "
                f"{record.get('items')} items), skipping comparison"
            )
            continue
        for mode, stats in record["modes"].items():
            base_stats = base.get("modes", {}).get(mode)
            if base_stats is None:
                lines.append(f"{name}/{mode}: new mode (no baseline)")
                continue
            baseline_s = base_stats["median_s"]
            current_s = stats["median_s"]
            ratio = (current_s / baseline_s) if baseline_s > 0 else float("inf")
            verdict = "ok"
            if ratio > threshold:
                verdict = f"REGRESSION (> {threshold:.2f}x)"
                regressions.append(
                    Regression(
                        name=name,
                        mode=mode,
                        baseline_s=baseline_s,
                        current_s=current_s,
                        ratio=ratio,
                    )
                )
            lines.append(
                f"{name}/{mode}: {current_s * 1e3:.3f} ms vs baseline "
                f"{baseline_s * 1e3:.3f} ms ({ratio:.2f}x) {verdict}"
            )
    for name in base_by_name:
        lines.append(f"{name}: in baseline but not in this run")
    return lines, regressions
