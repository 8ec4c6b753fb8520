"""The Adam-optimizer CPU experiment driver (Figs. 3, 18, 19).

Runs the *functional* TenAnalyzer over scaled optimizer traces for a number
of iterations, recording per-iteration hit rates (Fig. 18) and converting
them into per-iteration :class:`ModeCosts` whose timing relative to
non-secure/SGX/SoftVN reproduces Fig. 19. The scaling rationale is in
DESIGN.md Sec. 2: stream structure, thread interleaving and table pressure
are preserved; volumes are full-size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.cpu.tenanalyzer import TenAnalyzer
from repro.cpu.tensortee_mode import AnalyzerRates
from repro.errors import ConfigError
from repro.sim.trace_batch import KIND_READ
from repro.tensor.registry import TensorRegistry
from repro.units import KiB
from repro.workloads.traces import (
    AdamTraceConfig,
    adam_iteration_batch,
    build_adam_groups,
)


@dataclass(frozen=True)
class AdamExperimentConfig:
    """Scaled functional Adam experiment.

    Default proportions mirror a mid-size Table-2 model: ~5 fused buffers
    per layer, 8 worker threads, Meta Table pressure above capacity before
    merging and below after (which is what makes Fig. 18 converge
    gradually rather than instantly).
    """

    n_layers: int = 24
    lines_per_tensor: int = 64
    threads: int = 8
    meta_table_capacity: int = 320
    merge_window: int = 8
    burst_lines: int = 4
    thread_skew: float = 0.15
    write_lag_bursts: int = 4
    #: Install the transfer-involved tensors (incoming grad32, outgoing
    #: weight16) from their transfer descriptors at the start of each
    #: iteration — the Sec. 4.2 fast path ("data transfer instructions from
    #: NPU typically include tensor structure information"). On for the
    #: collaborative-system steady state; off for pure-detection ablation.
    install_transfer_descriptors: bool = False
    seed: int = 2024


@dataclass
class IterationStats:
    """Per-iteration measurement of the analyzer."""

    iteration: int
    hit_in: float
    hit_boundary: float
    hit_all: float
    rates: AnalyzerRates
    n_entries: int
    merges: float
    evictions: float
    violations: float


@dataclass
class AdamExperiment:
    """Functional TenAnalyzer run over repeated optimizer iterations."""

    config: AdamExperimentConfig = field(default_factory=AdamExperimentConfig)

    def __post_init__(self) -> None:
        if self.config.n_layers <= 0:
            raise ConfigError("need at least one layer")
        # Checks the trace shape before the groups and the analyzer are built.
        self._trace_config = AdamTraceConfig(
            threads=self.config.threads,
            burst_lines=self.config.burst_lines,
            thread_skew=self.config.thread_skew,
            write_lag_bursts=self.config.write_lag_bursts,
            seed=self.config.seed,
        )
        self._registry = TensorRegistry(alignment=4 * KiB, guard_bytes=256 * KiB)
        self._groups = build_adam_groups(
            self._registry, self.config.n_layers, self.config.lines_per_tensor
        )
        self.analyzer = TenAnalyzer(
            capacity=self.config.meta_table_capacity,
            merge_window=self.config.merge_window,
        )
        self._rng = random.Random(self.config.seed)
        self._truth: Dict[int, int] = {}
        self._iteration = 0

    def run_iteration(self) -> IterationStats:
        """Execute one optimizer iteration through the analyzer."""
        analyzer = self.analyzer
        if self.config.install_transfer_descriptors:
            for group in self._groups:
                for tensor in (group.grad32, group.weight16):
                    vn = self._truth.get(tensor.base_va, 0)
                    analyzer.install_from_transfer(tensor.base_va, tensor.n_lines, vn)
        analyzer.reset_rate_counters()
        sync_before = analyzer.stats.scope("meta_table")["sync_lines"]
        batch = adam_iteration_batch(self._groups, self._trace_config, self._rng)
        vns = analyzer.replay_window(batch.vaddr, batch.kind)
        vaddrs, kinds = batch.columns()
        truth = self._truth
        for vaddr, kind, vn in zip(vaddrs, kinds, vns):
            if kind == KIND_READ:
                expected = truth.get(vaddr, 0)
                if vn != expected:
                    raise AssertionError(
                        f"VN divergence at {vaddr:#x}: "
                        f"analyzer={vn} ground-truth={expected}"
                    )
            else:
                expected = truth.get(vaddr, 0) + 1
                truth[vaddr] = expected
                if vn != expected:
                    raise AssertionError(f"write VN divergence at {vaddr:#x}")
        stats = analyzer.stats
        meta = stats.scope("meta_table")
        hit = analyzer.hit_rates()
        reads = stats["read_hit_in"] + stats["read_hit_boundary"] + stats["read_miss"]
        writes = (
            stats["write_hit_edge"]
            + stats["write_hit_in"]
            + stats["write_miss"]
            + stats["write_violation"]
        )
        total = max(1.0, reads + writes)
        sync_delta = meta["sync_lines"] - sync_before
        rates = AnalyzerRates(
            read_hit_in=stats["read_hit_in"] / max(reads, 1.0),
            read_hit_boundary=stats["read_hit_boundary"] / max(reads, 1.0),
            read_miss=stats["read_miss"] / max(reads, 1.0),
            write_covered=(stats["write_hit_edge"] + stats["write_hit_in"]) / max(writes, 1.0),
            write_miss=(stats["write_miss"] + stats["write_violation"]) / max(writes, 1.0),
            sync_lines_per_access=sync_delta / total,
        )
        record = IterationStats(
            iteration=self._iteration,
            hit_in=hit["hit_in"],
            hit_boundary=hit["hit_boundary"],
            hit_all=hit["hit_all"],
            rates=rates,
            n_entries=analyzer.table.n_entries,
            merges=meta["merges"],
            evictions=meta["evictions"],
            violations=stats["write_violation"],
        )
        self._iteration += 1
        return record

    def run(self, iterations: int) -> List[IterationStats]:
        """Run several iterations, returning the per-iteration records."""
        return [self.run_iteration() for _ in range(iterations)]
