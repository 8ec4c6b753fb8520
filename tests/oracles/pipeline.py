"""Event-driven reference of the Fig. 13 pipeline timing."""

from __future__ import annotations

from repro.npu import pipeline
from repro.npu.config import NpuConfig
from repro.npu.pipeline import LINE
from repro.sim.engine import EventEngine
from repro.units import MAC_BITS


def simulate_granule_pipeline(
    config: NpuConfig, tensor_bytes: int, granule_bytes: int, compute_per_line_s: float
) -> pipeline.PipelineResult:
    """Reference of :func:`repro.npu.pipeline.simulate_granule_pipeline`.

    Each line is an event at its arrival time; the consumer waits for the
    line's granule to verify and for the compute unit to be free.
    """
    n_lines = tensor_bytes // LINE
    per_line = (LINE + (MAC_BITS // 8) * LINE / granule_bytes) / config.dram.effective_stream_bw
    lines_per_granule = granule_bytes // LINE
    hash_lat = config.mac_latency_cycles / config.freq_hz
    ideal = n_lines * max(LINE / config.dram.effective_stream_bw, compute_per_line_s)
    engine = EventEngine()
    state = {"compute_free": 0.0, "stall": 0.0, "done": 0.0}

    def consume(line_index: int) -> None:
        granule_index = line_index // lines_per_granule
        last_line_of_granule = min((granule_index + 1) * lines_per_granule - 1, n_lines - 1)
        verified_at = (last_line_of_granule + 1) * per_line + hash_lat
        arrival = (line_index + 1) * per_line
        ready = max(arrival, verified_at)
        start = max(ready, state["compute_free"])
        state["stall"] += max(0.0, ready - max(arrival, state["compute_free"]))
        state["compute_free"] = start + compute_per_line_s
        state["done"] = state["compute_free"]

    for i in range(n_lines):
        engine.at((i + 1) * per_line, lambda i=i: consume(i))
    engine.run()
    return pipeline.PipelineResult(
        scheme=f"granule-{granule_bytes}B",
        total_s=state["done"],
        ideal_s=ideal,
        stall_s=state["stall"],
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
