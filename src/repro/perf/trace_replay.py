"""The ``trace_replay`` bench family: whole trace-replay passes.

Times the passes built on the columnar
:class:`repro.sim.trace_batch.TraceBatch` model end to end, one call each.
Two kinds of entries:

- *replay* benches (``mee_walk``, ``pipeline_timing``): consume a whole
  trace window through an array-expressible pass;
- *tracker* benches (``adam_trace``, ``gemm_trace``, ``sgx_metadata``,
  ``mee_geometry``): trace generation and LRU metadata accounting, whose
  inner loops are state-serial (each touch depends on the previous one).
"""

from __future__ import annotations

import random

from repro.cpu.metadata_model import measure_sgx_metadata
from repro.eval.scenarios import mee_cache_geometry
from repro.mem.mee import FunctionalMee
from repro.npu.config import NpuConfig
from repro.npu.pipeline import simulate_granule_pipeline
from repro.perf.harness import BenchContext
from repro.perf.registry import benchmark
from repro.sim.trace_batch import TraceBatch
from repro.tensor.registry import TensorRegistry
from repro.units import CACHELINE_BYTES, KiB, MiB
from repro.workloads.traces import (
    AdamTraceConfig,
    GemmConfig,
    adam_iteration_batch,
    build_adam_groups,
    build_gemm_tensors,
    gemm_batch,
)

LINE = CACHELINE_BYTES

_AES_KEY = bytes(range(16))
_MAC_KEY = bytes(range(16, 32))


@benchmark("trace_replay.mee_walk", tags=("trace_replay", "mem", "vector"))
def bench_mee_walk(ctx: BenchContext):
    """Replay a trace window through the MEE: batch write+read with Merkle
    walk counting."""
    n_lines = ctx.n(256, 64)
    ctx.items = n_lines
    batch = TraceBatch.reads([i * LINE for i in range(n_lines)])
    vaddrs = batch.columns()[0]
    payload = ctx.random_bytes(n_lines * LINE)
    mee = FunctionalMee(_AES_KEY, _MAC_KEY, protected_bytes=4 * MiB)

    def run():
        mee.write_lines(vaddrs, payload, vn=None)
        return mee.read_lines(vaddrs, vn=None, verify=True)

    return run


@benchmark("trace_replay.pipeline_timing", tags=("trace_replay", "npu", "vector"))
def bench_pipeline_timing(ctx: BenchContext):
    """Granule-MAC pipeline timing: array arrival/verify precompute plus the
    serial stall recurrence."""
    tensor_bytes = ctx.n(8, 2) * (1 << 20)
    ctx.items = tensor_bytes // LINE
    config = NpuConfig()
    compute_per_line = 0.9 * LINE / config.dram.effective_stream_bw

    def run():
        return simulate_granule_pipeline(config, tensor_bytes, 4096, compute_per_line)

    return run


@benchmark("trace_replay.adam_trace", tags=("trace_replay", "workloads", "vector"))
def bench_adam_trace(ctx: BenchContext):
    """Columnar Adam iteration-trace assembly (interleave plus gather)."""
    n_layers = ctx.n(24, 6)
    registry = TensorRegistry(alignment=4 * KiB, guard_bytes=256 * KiB)
    groups = build_adam_groups(registry, n_layers, 64)
    config = AdamTraceConfig(threads=8, seed=ctx.seed)
    ctx.items = len(adam_iteration_batch(groups, config, random.Random(ctx.seed)))

    def run():
        return adam_iteration_batch(groups, config, random.Random(ctx.seed))

    return run


@benchmark("trace_replay.gemm_trace", tags=("trace_replay", "workloads", "vector"))
def bench_gemm_trace(ctx: BenchContext):
    """Columnar tiled-GEMM trace assembly."""
    config = GemmConfig() if ctx.quick else GemmConfig(m=512, n=512, k=512)
    registry = TensorRegistry(alignment=4 * KiB, guard_bytes=256 * KiB)
    a, b, c = build_gemm_tensors(registry, config)
    ctx.items = len(gemm_batch(a, b, c, config))

    def run():
        return gemm_batch(a, b, c, config)

    return run


@benchmark("trace_replay.sgx_metadata", tags=("trace_replay", "mem", "vector"))
def bench_sgx_metadata(ctx: BenchContext):
    """SGX metadata-traffic accounting: the inlined LRU replay."""
    sample_lines = ctx.n(40_000, 8_000)
    ctx.items = sample_lines

    def run():
        return measure_sgx_metadata(64 * MiB, sample_lines=sample_lines)

    return run


@benchmark("trace_replay.mee_geometry", tags=("trace_replay", "mem", "vector"))
def bench_mee_geometry(ctx: BenchContext):
    """MEE cache-geometry scenario: stream precompute plus inlined LRU."""
    iterations = ctx.n(4, 1)
    ctx.items = iterations * 48 * 32

    def run():
        return mee_cache_geometry(iterations=iterations)

    return run
