"""Per-line reference of the Fig. 13 pipeline timing."""

from __future__ import annotations

from repro.npu import pipeline
from repro.npu.config import NpuConfig
from repro.npu.pipeline import LINE
from repro.units import MAC_BITS


def simulate_granule_pipeline(
    config: NpuConfig, tensor_bytes: int, granule_bytes: int, compute_per_line_s: float
) -> pipeline.PipelineResult:
    """Reference of :func:`repro.npu.pipeline.simulate_granule_pipeline`.

    Line ``i`` arrives at ``(i + 1) * per_line``, so lines are consumed in
    index order; each waits for its granule to verify and for the compute
    unit to be free.
    """
    n_lines = tensor_bytes // LINE
    per_line = (LINE + (MAC_BITS // 8) * LINE / granule_bytes) / config.dram.effective_stream_bw
    lines_per_granule = granule_bytes // LINE
    hash_lat = config.mac_latency_cycles / config.freq_hz
    ideal = n_lines * max(LINE / config.dram.effective_stream_bw, compute_per_line_s)
    compute_free = stall = 0.0
    for line_index in range(n_lines):
        granule_index = line_index // lines_per_granule
        last_line_of_granule = min((granule_index + 1) * lines_per_granule - 1, n_lines - 1)
        verified_at = (last_line_of_granule + 1) * per_line + hash_lat
        arrival = (line_index + 1) * per_line
        ready = max(arrival, verified_at)
        start = max(ready, compute_free)
        stall += max(0.0, ready - max(arrival, compute_free))
        compute_free = start + compute_per_line_s
    return pipeline.PipelineResult(
        scheme=f"granule-{granule_bytes}B",
        total_s=compute_free,
        ideal_s=ideal,
        stall_s=stall,
    )


def simulate_delayed_pipeline(
    config: NpuConfig, tensor_bytes: int, compute_per_line_s: float
) -> pipeline.PipelineResult:
    """Reference of :func:`repro.npu.pipeline.simulate_delayed_pipeline`."""
    n_lines = tensor_bytes // LINE
    per_line = LINE / config.dram.effective_stream_bw
    hash_lat = config.mac_latency_cycles / config.freq_hz
    compute_free = 0.0
    for i in range(n_lines):
        compute_free = max((i + 1) * per_line, compute_free) + compute_per_line_s
    barrier_done = n_lines * per_line + hash_lat
    return pipeline.PipelineResult(
        scheme="tensor-delayed",
        total_s=max(compute_free, barrier_done),
        ideal_s=n_lines * max(LINE / config.dram.effective_stream_bw, compute_per_line_s),
        stall_s=max(0.0, barrier_done - compute_free),
    )
