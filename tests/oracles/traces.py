"""Per-access references of the columnar Adam and tiled-GEMM generators."""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.sim.trace import AccessKind, MemAccess
from repro.tensor.tensor import TensorDesc
from repro.workloads.traces import AdamGroup, AdamTraceConfig, GemmConfig


def thread_layer_stream(
    group: AdamGroup, thread: int, threads: int, burst_lines: int, write_lag_bursts: int
) -> List[List[MemAccess]]:
    """Thread ``thread``'s bursts for one layer as per-access objects."""
    shards = {t.name: t.shard_lines(threads, thread) for t in group.all_tensors()}
    w32 = shards[group.weight32.name]
    m = shards[group.momentum.name]
    v = shards[group.variance.name]
    g = shards[group.grad32.name]
    w16 = shards[group.weight16.name]
    n = len(w32)
    n_read_bursts = -(-n // burst_lines)
    bursts: List[List[MemAccess]] = []
    w16_cursor = 0
    for burst_index in range(n_read_bursts + write_lag_bursts):
        burst: List[MemAccess] = []
        start = burst_index * burst_lines
        stop = min(start + burst_lines, n)
        if start < n:
            for role_tensor, lines in (
                (group.weight32, w32),
                (group.momentum, m),
                (group.variance, v),
                (group.grad32, g),
            ):
                for i in range(start, stop):
                    if i < len(lines):
                        burst.append(
                            MemAccess(lines[i], AccessKind.READ, thread, role_tensor.tensor_id)
                        )
        wb_index = burst_index - write_lag_bursts
        wb_start = wb_index * burst_lines
        wb_stop = min(wb_start + burst_lines, n)
        if wb_index >= 0 and wb_start < n:
            for role_tensor, lines in (
                (group.weight32, w32),
                (group.momentum, m),
                (group.variance, v),
            ):
                for i in range(wb_start, wb_stop):
                    if i < len(lines):
                        burst.append(
                            MemAccess(lines[i], AccessKind.WRITE, thread, role_tensor.tensor_id)
                        )
            # fp16 output advances at half the fp32 line rate.
            w16_target = min(len(w16), (wb_stop * len(w16) + n - 1) // n)
            while w16_cursor < w16_target:
                burst.append(
                    MemAccess(w16[w16_cursor], AccessKind.WRITE, thread, group.weight16.tensor_id)
                )
                w16_cursor += 1
        if burst:
            bursts.append(burst)
    return bursts


def adam_iteration_objects(
    groups: Sequence[AdamGroup],
    config: AdamTraceConfig,
    rng: random.Random,
) -> List[MemAccess]:
    """Reference of :func:`repro.workloads.traces.adam_iteration_batch`."""
    trace: List[MemAccess] = []
    for group in groups:
        per_thread = [
            thread_layer_stream(
                group, t, config.threads, config.burst_lines, config.write_lag_bursts
            )
            for t in range(config.threads)
        ]
        cursors = [0] * config.threads
        remaining = sum(len(b) for b in per_thread)
        while remaining:
            for t in range(config.threads):
                if cursors[t] >= len(per_thread[t]):
                    continue
                if config.thread_skew and rng.random() < config.thread_skew:
                    continue
                trace.extend(per_thread[t][cursors[t]])
                cursors[t] += 1
                remaining -= 1
    return trace


def gemm_objects(
    a: TensorDesc,
    b: TensorDesc,
    c: TensorDesc,
    config: GemmConfig,
    thread: int = 0,
) -> List[MemAccess]:
    """Reference of :func:`repro.workloads.traces.gemm_batch`."""
    trace: List[MemAccess] = []

    def emit_rows(
        t: TensorDesc, row0: int, col0: int, rows: int, cols: int, kind: AccessKind
    ) -> None:
        for r in range(row0, row0 + rows):
            for addr in t.tile_row_lines(r, col0, cols):
                trace.append(MemAccess(addr, kind, thread, t.tensor_id))

    for i0 in range(0, config.m, config.tile_m):
        for j0 in range(0, config.n, config.tile_n):
            for k0 in range(0, config.k, config.tile_k):
                emit_rows(a, i0, k0, config.tile_m, config.tile_k, AccessKind.READ)
                emit_rows(b, k0, j0, config.tile_k, config.tile_n, AccessKind.READ)
            emit_rows(c, i0, j0, config.tile_m, config.tile_n, AccessKind.READ)
            emit_rows(c, i0, j0, config.tile_m, config.tile_n, AccessKind.WRITE)
    return trace
