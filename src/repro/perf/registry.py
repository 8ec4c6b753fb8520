"""Decorator-based benchmark registry (the perf twin of ``eval.registry``).

A benchmark is a *factory*: the decorated function receives a
:class:`repro.perf.harness.BenchContext` (problem sizes, deterministic RNG)
and returns the zero-argument workload closure the harness times — so
setup cost (building inputs, keying ciphers, growing Merkle trees) never
pollutes the measurement.
"""

from __future__ import annotations

import importlib
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

#: Modules that register benchmarks; imported by ``load_all``.
BENCH_MODULES: Tuple[str, ...] = (
    "repro.perf.kernels",
    "repro.perf.trace_replay",
    "repro.perf.serve_load",
)


@dataclass(frozen=True)
class BenchSpec:
    """One registered microbenchmark."""

    name: str
    factory: Callable[..., Callable[[], object]]
    module: str
    tags: Tuple[str, ...]
    description: str


class BenchRegistry:
    """Name -> :class:`BenchSpec`, in registration order."""

    def __init__(self) -> None:
        self._specs: Dict[str, BenchSpec] = {}
        self._loaded = False
        self._load_lock = threading.Lock()

    def register(self, spec: BenchSpec) -> BenchSpec:
        if spec.name in self._specs:
            existing = self._specs[spec.name]
            raise ConfigError(
                f"duplicate benchmark name {spec.name!r}: already registered "
                f"by {existing.module}, re-registered by {spec.module}"
            )
        self._specs[spec.name] = spec
        return spec

    def load_all(self) -> "BenchRegistry":
        """Import every benchmark module (idempotent) and return self.

        A module that is already imported but has no specs here (the
        registry was cleared) is reloaded so its decorators re-register.
        Thread-safe: concurrent first callers serialize on one load
        instead of racing a reload into duplicate registrations.
        """
        if self._loaded:
            return self
        with self._load_lock:
            if self._loaded:
                return self
            registered = {spec.module for spec in self._specs.values()}
            for module in BENCH_MODULES:
                needs_rerun = (
                    self is BENCH_REGISTRY
                    and module in sys.modules
                    and module not in registered
                )
                if needs_rerun:
                    importlib.reload(sys.modules[module])
                else:
                    importlib.import_module(module)
            self._loaded = True
        return self

    def get(self, name: str) -> BenchSpec:
        self.load_all()
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(sorted(self._specs))
            raise ConfigError(f"unknown benchmark {name!r}; known: {known}") from None

    def specs(self) -> List[BenchSpec]:
        self.load_all()
        return list(self._specs.values())

    def select(
        self,
        only: Optional[Sequence[str]] = None,
        tags: Optional[Iterable[str]] = None,
    ) -> List[BenchSpec]:
        """Subset by explicit names and/or required tags, registry order."""
        chosen = self.specs()
        if only is not None:
            wanted = {self.get(name).name for name in only}
            chosen = [s for s in chosen if s.name in wanted]
        if tags:
            required = set(tags)
            chosen = [s for s in chosen if required.issubset(s.tags)]
        return chosen

    def clear(self) -> None:
        """Drop all registrations (test isolation only)."""
        self._specs.clear()
        self._loaded = False


#: The process-wide registry every perf module registers into.
BENCH_REGISTRY = BenchRegistry()


def benchmark(
    name: str,
    *,
    tags: Sequence[str] = (),
    description: str = "",
    registry: Optional[BenchRegistry] = None,
) -> Callable[[Callable[..., Callable[[], object]]], Callable[..., Callable[[], object]]]:
    """Register the decorated workload factory as a benchmark."""

    def wrap(func: Callable[..., Callable[[], object]]):
        doc = description
        if not doc and func.__doc__:
            doc = func.__doc__.strip().splitlines()[0]
        (registry or BENCH_REGISTRY).register(
            BenchSpec(
                name=name,
                factory=func,
                module=func.__module__,
                tags=tuple(tags),
                description=doc,
            )
        )
        return func

    return wrap
