"""The tiled-GEMM CPU experiment (Sec. 6.2's complex-access-pattern study).

A 256x256 matrix multiply with 64x64 tiles: TenAnalyzer must reassemble the
tiled row segments into whole-matrix entries via multi-direction merging
(Fig. 11b). The paper reports a 98.8% hit_in rate on the pass after the
structures are built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.cpu.tenanalyzer import TenAnalyzer
from repro.sim.trace_batch import KIND_READ
from repro.tensor.registry import TensorRegistry
from repro.units import KiB
from repro.workloads.traces import GemmConfig, build_gemm_tensors, gemm_batch


@dataclass
class GemmPassStats:
    """Hit statistics of one full GEMM pass."""

    pass_index: int
    hit_in: float
    hit_boundary: float
    hit_all: float
    n_entries: int


@dataclass
class GemmExperiment:
    """Functional TenAnalyzer run over repeated tiled-GEMM passes."""

    config: GemmConfig = field(default_factory=GemmConfig)
    meta_table_capacity: int = 512

    def __post_init__(self) -> None:
        self._registry = TensorRegistry(alignment=4 * KiB, guard_bytes=256 * KiB)
        self.a, self.b, self.c = build_gemm_tensors(self._registry, self.config)
        self.analyzer = TenAnalyzer(capacity=self.meta_table_capacity)
        self._truth: Dict[int, int] = {}
        self._pass = 0

    def run_pass(self) -> GemmPassStats:
        """Execute one full GEMM through the analyzer."""
        analyzer = self.analyzer
        analyzer.reset_rate_counters()
        batch = gemm_batch(self.a, self.b, self.c, self.config)
        vaddrs, kinds = batch.columns()
        vns = analyzer.replay_window(vaddrs, kinds)
        truth = self._truth
        for vaddr, kind, vn in zip(vaddrs, kinds, vns):
            if kind == KIND_READ:
                if vn != truth.get(vaddr, 0):
                    raise AssertionError(f"GEMM VN divergence at {vaddr:#x}")
            else:
                expected = truth.get(vaddr, 0) + 1
                truth[vaddr] = expected
                if vn != expected:
                    raise AssertionError(f"GEMM write VN divergence at {vaddr:#x}")
        rates = analyzer.hit_rates()
        record = GemmPassStats(
            pass_index=self._pass,
            hit_in=rates["hit_in"],
            hit_boundary=rates["hit_boundary"],
            hit_all=rates["hit_all"],
            n_entries=analyzer.table.n_entries,
        )
        self._pass += 1
        return record

    def run(self, passes: int) -> List[GemmPassStats]:
        return [self.run_pass() for _ in range(passes)]
