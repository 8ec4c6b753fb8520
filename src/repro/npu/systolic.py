"""Output-stationary systolic-array timing (TPUv3-like, Sec. 5.1).

GEMM kernels are tiled over the PE array; per output tile the array streams
K partial sums, plus fill/drain overhead. Kernel time is the roofline
maximum of compute time and GDDR streaming time (weights + activations),
with automatic tiling handled implicitly by the scratchpad double-buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.npu.config import NpuConfig

#: Per-output-tile swap overhead of the back-to-back tile pipeline.
TILE_SWAP_CYCLES = 32


@dataclass(frozen=True)
class GemmShape:
    """C[m, n] += A[m, k] @ B[k, n]."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k) <= 0:
            raise ConfigError(f"GEMM dims must be positive: {self}")

    @property
    def flops(self) -> float:
        return 2.0 * self.m * self.n * self.k

    def io_bytes(self, elem_bytes: int = 2) -> float:
        """Operands read and output written once (consumers charge their
        own re-reads; scratchpad tiling avoids intra-kernel re-fetch)."""
        return elem_bytes * (self.m * self.k + self.k * self.n + self.m * self.n)


@dataclass(frozen=True)
class KernelTime:
    """Timing decomposition of one kernel."""

    compute_s: float
    io_s: float

    @property
    def total_s(self) -> float:
        return max(self.compute_s, self.io_s)

    @property
    def io_bound(self) -> bool:
        return self.io_s > self.compute_s


def gemm_time(config: NpuConfig, shape: GemmShape, elem_bytes: int = 2) -> KernelTime:
    """Roofline time of one GEMM on the systolic array."""
    rows, cols = config.pe_rows, config.pe_cols
    row_tiles = -(-shape.m // rows)
    col_tiles = -(-shape.n // cols)
    # Output-stationary with back-to-back tile pipelining: successive output
    # tiles overlap fill with the previous drain, leaving a modest per-tile
    # swap overhead plus one array fill+drain per kernel.
    cycles = row_tiles * col_tiles * (shape.k + TILE_SWAP_CYCLES) + rows + cols
    compute_s = cycles / (config.freq_hz * config.compute_efficiency)
    io_s = shape.io_bytes(elem_bytes) / config.dram.effective_stream_bw
    return KernelTime(compute_s=compute_s, io_s=io_s)


def gemm_times(
    config: NpuConfig, shapes: Sequence[GemmShape], elem_bytes: int = 2
) -> List[KernelTime]:
    """Roofline times of many GEMMs in one batched sweep.

    Bit-identical to a :func:`gemm_time` loop (same integer cycle counts,
    same float64 divisions): the whole shape sweep is evaluated as array
    arithmetic, which is what the granularity/ablation sweeps and the
    kernel scheduler iterate over.
    """
    if not shapes:
        return []
    m = np.array([s.m for s in shapes], dtype=np.int64)
    n = np.array([s.n for s in shapes], dtype=np.int64)
    k = np.array([s.k for s in shapes], dtype=np.int64)
    rows, cols = config.pe_rows, config.pe_cols
    row_tiles = (m + rows - 1) // rows
    col_tiles = (n + cols - 1) // cols
    cycles = row_tiles * col_tiles * (k + TILE_SWAP_CYCLES) + rows + cols
    compute_s = cycles / (config.freq_hz * config.compute_efficiency)
    io_s = (elem_bytes * (m * k + k * n + m * n)) / config.dram.effective_stream_bw
    return [
        KernelTime(compute_s=float(c), io_s=float(i))
        for c, i in zip(compute_s, io_s)
    ]


def elementwise_time(config: NpuConfig, n_elements: int, elem_bytes: int = 2) -> KernelTime:
    """Memory-bound elementwise kernel (activations, residuals, norms)."""
    if n_elements < 0:
        raise ConfigError("element count must be non-negative")
    io_bytes = 3.0 * n_elements * elem_bytes  # two reads + one write
    io_s = io_bytes / config.dram.effective_stream_bw
    compute_s = n_elements / (config.pe_rows * config.pe_cols * config.freq_hz)
    return KernelTime(compute_s=compute_s, io_s=io_s)
