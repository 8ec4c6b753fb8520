"""Per-layer spans installed from outside the program.

:func:`install` replaces the public functions and methods that the
catalogue's callers use with thin wrappers that open a span, call the
original and close the span. Functions are replaced under every name a
loaded ``repro`` module binds them to (``from x import f`` copies the
name); methods are replaced on their class. Nothing under ``src/``
changes, and an uninstalled process runs the original code.

A span's *self time* is its duration minus the durations of its direct
child spans; self times of all spans plus the root's add up to the
traced wall time. Spans are kept in memory and written out by
:meth:`Tracer.write` after the pass.

Besides time, some wrappers read public state around the call:
trace lengths, sampled lines, and the simulated-hardware counters of
the TenAnalyzer (``analyzer.stats``) and of the SGX metadata model
(``MetaTraffic``). Those counters depend only on the inputs, so they
repeat exactly between runs of the same seed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
import types
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: Modules the shipped catalogue never calls. Their public entry points
#: get zero-call spans, so the report shows each at 0 instead of omitting
#: it; a ``<layer>.calls`` metric above 0 means a workload reached it.
UNREACHED_LAYERS: Dict[str, Tuple[str, ...]] = {
    "crypto": (
        "repro.crypto.aes",
        "repro.crypto.attestation",
        "repro.crypto.ctr",
        "repro.crypto.keys",
        "repro.crypto.mac",
        "repro.crypto.merkle",
    ),
    "mem.mee": ("repro.mem.mee",),
    "mem.metadata_cache": ("repro.mem.metadata_cache",),
    "npu.pipeline": ("repro.npu.pipeline",),
    "npu.delayed": ("repro.npu.delayed",),
    "tee": ("repro.tee.attack", "repro.tee.device", "repro.tee.enclave"),
    "serve": (
        "repro.serve.client",
        "repro.serve.execution",
        "repro.serve.schema",
        "repro.serve.server",
        "repro.serve.store",
        "repro.serve.worker",
    ),
}

#: Spans whose self time is reported as ``<span>_s``.
SELF_TIME_SPANS = (
    "cpu.tenanalyzer.replay",
    "cpu.tenanalyzer.install",
    "cpu.adam.verify",
    "workloads.adam_batch",
    "workloads.attention_batch",
    "tensor.line_addresses",
    "cpu.metadata_model.measure",
    "core.system.breakdown",
    "npu.kernels",
    "comm.transfer",
    "eval.orchestrator",
    "eval.cache.store",
    "eval.cache.load",
    "eval.cost.from_results",
    "eval.sweep",
    "pass",
)

_TENANALYZER_COUNTERS = {
    "sim_read_hits": ("read_hit_in", "read_hit_boundary"),
    "sim_read_misses": ("read_miss",),
    "sim_violations": ("write_violation",),
}
_META_TABLE_COUNTERS = {"sim_merges": "merges", "sim_evictions": "evictions"}


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self) -> None:
        #: Closed spans: (id, parent id or -1, name, start, end).
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Work counts and simulated counters, by metric name.
        self.counts: Dict[str, float] = defaultdict(float)
        self._open: List[list] = []  # [id, name, start, child seconds]
        self._next_id = 0

    def enter(self, name: str) -> None:
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, name, 0.0, 0.0]
        self._open.append(frame)
        frame[2] = time.perf_counter()

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._open.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        parent = self._open[-1] if self._open else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else -1, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def write(self, path: str) -> None:
        """Dump every span as ``[id, parent, name, start_s, end_s]`` rows."""
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": sorted(self.spans)}, f, separators=(",", ":"))
            f.write("\n")


def _span(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return traced


def _replace_function(fn: Callable, wrapper: Callable) -> None:
    """Rebind every ``repro`` module attribute that is ``fn`` to ``wrapper``."""
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)
                replaced += 1
    if not replaced:
        raise RuntimeError(f"no module binds {fn.__module__}.{fn.__qualname__}")


def _wrap_function(tracer: Tracer, name: str, module: str, attr: str) -> None:
    fn = getattr(importlib.import_module(module), attr)
    _replace_function(fn, _span(tracer, name, fn))


def _wrap_method(tracer: Tracer, name: str, cls: type, attr: str, wrapper=None) -> None:
    fn = vars(cls)[attr]
    setattr(cls, attr, (wrapper or _span)(tracer, name, fn))


def _public_callables(module: types.ModuleType) -> Iterable[Tuple[Any, str, Callable]]:
    """(owner, attribute, function) for each public entry point defined in ``module``."""
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, types.FunctionType):
            yield module, attr, value
        elif inspect.isclass(value) and not issubclass(value, BaseException):
            for method, fn in sorted(vars(value).items()):
                if isinstance(fn, types.FunctionType) and (
                    method == "__init__" or not method.startswith("_")
                ):
                    yield value, method, fn


def _install_counted_spans(tracer: Tracer) -> None:
    """Spans that also read work counts and simulated counters."""
    from repro.cpu.adam import AdamExperiment
    from repro.cpu.tenanalyzer.analyzer import TenAnalyzer
    from repro.tensor.geometry import TensorGeometry
    from repro.tensor.tensor import TensorDesc
    from repro.workloads import traces

    counts = tracer.counts

    def analyzer_state(analyzer) -> Dict[str, float]:
        stats, table = analyzer.stats, analyzer.table.stats
        state = {
            metric: sum(stats[key] for key in keys)
            for metric, keys in _TENANALYZER_COUNTERS.items()
        }
        state.update({metric: table[key] for metric, key in _META_TABLE_COUNTERS.items()})
        return state

    def analyzer_span(tracer: Tracer, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(self, *args: Any, **kwargs: Any) -> Any:
            before = analyzer_state(self)
            tracer.enter(name)
            try:
                result = fn(self, *args, **kwargs)
            finally:
                tracer.exit()
            for metric, value in analyzer_state(self).items():
                counts[f"cpu.tenanalyzer.{metric}"] += value - before[metric]
            if name == "cpu.tenanalyzer.replay":
                counts["cpu.tenanalyzer.replay_accesses"] += len(args[0])
            return result

        return traced

    _wrap_method(tracer, "cpu.tenanalyzer.replay", TenAnalyzer, "replay_window", analyzer_span)
    _wrap_method(
        tracer, "cpu.tenanalyzer.install", TenAnalyzer, "install_from_transfer", analyzer_span
    )
    # The VN ground-truth check is run_iteration's own loop: its self time
    # once trace generation, install and replay are child spans.
    _wrap_method(tracer, "cpu.adam.verify", AdamExperiment, "run_iteration")

    def batch_span(name: str, fn: Callable) -> Callable:
        traced = _span(tracer, name, fn)

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            batch = traced(*args, **kwargs)
            counts["workloads.accesses"] += len(batch)
            return batch

        return counted

    for name, fn in (
        ("workloads.adam_batch", traces.adam_iteration_batch),
        ("workloads.attention_batch", traces.attention_batch),
    ):
        _replace_function(fn, batch_span(name, fn))

    for cls, attr in (
        (TensorDesc, "tile_row_lines"),
        (TensorDesc, "shard_lines"),
        (TensorGeometry, "line_addresses"),
    ):
        _wrap_method(tracer, "tensor.line_addresses", cls, attr)
    lazy_lines = vars(TensorDesc)["line_addresses"]

    @functools.wraps(lazy_lines)
    def line_addresses(self):
        # The original is a generator; materialise inside the span so the
        # span times the enumeration, not the consumer's loop.
        with tracer.span("tensor.line_addresses"):
            return iter(list(lazy_lines(self)))

    TensorDesc.line_addresses = line_addresses

    from repro.cpu import metadata_model

    measure = metadata_model.measure_sgx_metadata
    traced_measure = _span(tracer, "cpu.metadata_model.measure", measure)
    signature = inspect.signature(measure)

    @functools.wraps(measure)
    def measured(*args: Any, **kwargs: Any):
        traffic = traced_measure(*args, **kwargs)
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        sample = call.arguments["sample_lines"]
        counts["cpu.metadata_model.sample_lines"] += sample
        counts["cpu.metadata_model.sim_hit_lines"] += traffic.metadata_hit_rate * sample
        return traffic

    _replace_function(measure, measured)


def install(tracer: Tracer) -> None:
    """Install every span on the loaded program (call once per process)."""
    from repro.core.system import CollaborativeSystem
    from repro.eval import orchestrator
    from repro.eval.cache import ResultCache
    from repro.eval.cost import CostModel

    _install_counted_spans(tracer)
    _wrap_method(tracer, "core.system.breakdown", CollaborativeSystem, "iteration_breakdown")
    for attr in ("iteration_time_s", "iteration_kernels", "iteration_io_bytes"):
        _wrap_function(tracer, "npu.kernels", "repro.npu.kernels", attr)
    for attr in ("plain_transfer", "graviton_transfer", "direct_transfer"):
        _wrap_function(tracer, "comm.transfer", "repro.comm.scheduler", attr)

    _wrap_method(tracer, "eval.orchestrator", orchestrator.Orchestrator, "run_points")
    _wrap_method(tracer, "eval.cache.store", ResultCache, "store")
    _wrap_method(tracer, "eval.cache.load", ResultCache, "load")
    from_results = vars(CostModel)["from_results"].__func__
    CostModel.from_results = classmethod(_span(tracer, "eval.cost.from_results", from_results))

    execute_one = orchestrator._execute_one

    @functools.wraps(execute_one)
    def execute(name: str, seed: int, params: Dict[str, Any]) -> dict:
        with tracer.span(f"eval.exp.{name}"):
            return execute_one(name, seed, params)

    orchestrator._execute_one = execute

    for layer, modules in UNREACHED_LAYERS.items():
        for module_name in modules:
            module = importlib.import_module(module_name)
            for owner, attr, fn in list(_public_callables(module)):
                wrapper = _span(tracer, f"unreached.{layer}", fn)
                if owner is module:
                    _replace_function(fn, wrapper)
                else:
                    setattr(owner, attr, wrapper)


def layer_metrics(tracer: Tracer, experiments: Iterable[str]) -> Dict[str, float]:
    """Fold one traced pass into the per-layer metric names of the report."""
    metrics: Dict[str, float] = {}
    for name in SELF_TIME_SPANS:
        metrics[f"{name}_s"] = tracer.self_s.get(name, 0.0)
    metrics["eval.orchestrator.overhead_s"] = metrics.pop("eval.orchestrator_s")
    metrics["eval.sweep.overhead_s"] = metrics.pop("eval.sweep_s")
    metrics["eval.sweep.cached_pass_s"] = tracer.total_s.get("eval.sweep.cached_pass", 0.0)
    metrics["pass.self_s"] = metrics.pop("pass_s")
    for experiment in experiments:
        metrics[f"eval.exp.{experiment}_s"] = tracer.total_s.get(f"eval.exp.{experiment}", 0.0)
    counts = tracer.counts
    accesses = counts["cpu.tenanalyzer.replay_accesses"]
    metrics["cpu.tenanalyzer.replay_accesses"] = accesses
    metrics["cpu.tenanalyzer.ns_per_access"] = (
        metrics["cpu.tenanalyzer.replay_s"] * 1e9 / accesses if accesses else 0.0
    )
    for metric in list(_TENANALYZER_COUNTERS) + list(_META_TABLE_COUNTERS):
        metrics[f"cpu.tenanalyzer.{metric}"] = counts[f"cpu.tenanalyzer.{metric}"]
    sample = counts["cpu.metadata_model.sample_lines"]
    metrics["cpu.metadata_model.sample_lines"] = sample
    metrics["cpu.metadata_model.ns_per_line"] = (
        metrics["cpu.metadata_model.measure_s"] * 1e9 / sample if sample else 0.0
    )
    metrics["cpu.metadata_model.sim_hit_rate"] = (
        counts["cpu.metadata_model.sim_hit_lines"] / sample if sample else 0.0
    )
    metrics["workloads.accesses"] = counts["workloads.accesses"]
    metrics["tensor.line_addresses_calls"] = tracer.calls["tensor.line_addresses"]
    for layer in UNREACHED_LAYERS:
        metrics[f"{layer}.calls"] = tracer.calls[f"unreached.{layer}"]
    return metrics
