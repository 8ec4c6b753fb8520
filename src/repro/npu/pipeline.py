"""Decrypt/verify/compute pipeline timing (Fig. 13).

A first-principles simulation of the three pipelines the paper draws:

(a) per-line MAC: each line verifies as it lands — no granule waits, but
    every line's MAC fetch costs extra DRAM time;
(b) granule MAC (MGX/GuardNN style): a line may only feed the array after
    its whole granule arrived and its MAC verified — later verification =
    pipeline bubbles that grow with the granule;
(c) tensor MAC with delayed verification (TensorTEE): compute consumes
    lines immediately; verification runs in the background and only the
    end-of-tensor barrier is exposed.

Scope note: this simulation models an *elastic* consumer (compute grabs a
line whenever it is ready). Under elasticity, later verification mostly
costs a tail, and the 64B scheme's extra MAC traffic dominates — which the
simulation reproduces quantitatively. A systolic array is not elastic: a
line missing its scheduled slot forces a pipeline resync, which is why the
closed-form :meth:`repro.npu.mac.MacScheme.stall_overhead` charges bubbles
proportional to granule size (calibrated to the paper's 13% @4KB). The
test suite checks this simulation against the closed-form model on the
claims they share (traffic cost of fine granularity; delayed verification
strictly dominating granule schemes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.npu.config import NpuConfig
from repro.units import CACHELINE_BYTES, MAC_BITS

LINE = CACHELINE_BYTES


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of streaming one tensor through a verification pipeline."""

    scheme: str
    total_s: float
    ideal_s: float  # no protection at all
    stall_s: float  # time compute spent waiting on verification

    @property
    def overhead(self) -> float:
        return self.total_s / self.ideal_s - 1.0


def _line_times(config: NpuConfig, tensor_bytes: int, extra_bytes_per_line: float):
    """Arrival time of each line given the DMA stream bandwidth."""
    n_lines = tensor_bytes // LINE
    if n_lines <= 0:
        raise ConfigError("tensor must hold at least one line")
    bw = config.dram.effective_stream_bw
    per_line = (LINE + extra_bytes_per_line) / bw
    return n_lines, per_line


def simulate_granule_pipeline(
    config: NpuConfig,
    tensor_bytes: int,
    granule_bytes: int,
    compute_per_line_s: float,
) -> PipelineResult:
    """Fig. 13a/b: verification gates compute at ``granule_bytes``.

    ``granule_bytes == LINE`` is the per-line pipeline (a); larger granules
    produce the later-verification stalls of (b).
    """
    if granule_bytes % LINE:
        raise ConfigError("granule must be a multiple of the line size")
    mac_bytes_per_line = (MAC_BITS // 8) * LINE / granule_bytes
    n_lines, per_line = _line_times(config, tensor_bytes, mac_bytes_per_line)
    lines_per_granule = granule_bytes // LINE
    hash_lat = config.mac_latency_cycles / config.freq_hz
    ideal = n_lines * max(LINE / config.dram.effective_stream_bw, compute_per_line_s)

    # The per-line arrival and granule-verification times are pure
    # functions of the line index, so they come out of one array
    # expression; only the compute_free/stall recurrence stays serial.
    index = np.arange(n_lines, dtype=np.int64)
    last_line = np.minimum((index // lines_per_granule + 1) * lines_per_granule - 1, n_lines - 1)
    verified_at = (last_line + 1) * per_line + hash_lat
    arrivals = (index + 1) * per_line
    readies = np.maximum(arrivals, verified_at)
    compute_free = 0.0
    stall = 0.0
    for arrival, ready in zip(arrivals.tolist(), readies.tolist()):
        wait = ready - max(arrival, compute_free)
        if wait > 0.0:
            stall += wait
        compute_free = max(ready, compute_free) + compute_per_line_s
    return PipelineResult(
        scheme=f"granule-{granule_bytes}B",
        total_s=compute_free,
        ideal_s=ideal,
        stall_s=stall,
    )


def simulate_delayed_pipeline(
    config: NpuConfig,
    tensor_bytes: int,
    compute_per_line_s: float,
) -> PipelineResult:
    """Fig. 13c: compute never waits; only the end barrier is exposed."""
    n_lines, per_line = _line_times(config, tensor_bytes, 0.0)
    hash_lat = config.mac_latency_cycles / config.freq_hz
    compute_free = 0.0
    for arrival in (np.arange(1, n_lines + 1, dtype=np.int64) * per_line).tolist():
        compute_free = max(arrival, compute_free) + compute_per_line_s
    # Barrier: the XOR accumulator finishes one hash latency after the last
    # line; the comparison itself is a few cycles.
    barrier_done = n_lines * per_line + hash_lat
    total = max(compute_free, barrier_done)
    ideal = n_lines * max(LINE / config.dram.effective_stream_bw, compute_per_line_s)
    return PipelineResult(
        scheme="tensor-delayed",
        total_s=total,
        ideal_s=ideal,
        stall_s=max(0.0, barrier_done - compute_free),
    )


def compare_pipelines(
    config: NpuConfig | None = None,
    tensor_bytes: int = 1 << 20,
    granules: tuple[int, ...] = (64, 512, 4096),
) -> list[PipelineResult]:
    """The Fig. 13 comparison for an IO-bound streaming kernel."""
    config = config if config is not None else NpuConfig()
    # IO-bound kernel: compute consumes a line slightly faster than the DMA
    # delivers it, so any verification wait is immediately exposed.
    compute_per_line = 0.9 * LINE / config.dram.effective_stream_bw
    results = [
        simulate_granule_pipeline(config, tensor_bytes, g, compute_per_line)
        for g in granules
    ]
    results.append(simulate_delayed_pipeline(config, tensor_bytes, compute_per_line))
    return results
