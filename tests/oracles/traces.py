"""Per-access references of the columnar Adam, tiled-GEMM and attention generators.

Each builds its trace one ``(vaddr, kind)`` access at a time and returns
it as ``(vaddrs, kinds)`` lists, the form of ``TraceBatch.columns()``.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.sim.trace_batch import KIND_READ, KIND_WRITE
from repro.tensor.tensor import TensorDesc
from repro.workloads.traces import (
    AdamGroup,
    AdamTraceConfig,
    AttentionConfig,
    AttentionTensors,
    GemmConfig,
)

#: One memory access: (line address, kind code).
Access = Tuple[int, int]
Columns = Tuple[List[int], List[int]]


def _columns(trace: List[Access]) -> Columns:
    return [vaddr for vaddr, _ in trace], [kind for _, kind in trace]


def thread_layer_stream(
    group: AdamGroup, thread: int, threads: int, burst_lines: int, write_lag_bursts: int
) -> List[List[Access]]:
    """Thread ``thread``'s bursts for one layer, one access at a time."""
    shards = {t.name: t.shard_lines(threads, thread) for t in group.all_tensors()}
    w32 = shards[group.weight32.name]
    m = shards[group.momentum.name]
    v = shards[group.variance.name]
    g = shards[group.grad32.name]
    w16 = shards[group.weight16.name]
    n = len(w32)
    n_read_bursts = -(-n // burst_lines)
    bursts: List[List[Access]] = []
    w16_cursor = 0
    for burst_index in range(n_read_bursts + write_lag_bursts):
        burst: List[Access] = []
        start = burst_index * burst_lines
        stop = min(start + burst_lines, n)
        if start < n:
            for lines in (w32, m, v, g):
                for i in range(start, stop):
                    if i < len(lines):
                        burst.append((lines[i], KIND_READ))
        wb_index = burst_index - write_lag_bursts
        wb_start = wb_index * burst_lines
        wb_stop = min(wb_start + burst_lines, n)
        if wb_index >= 0 and wb_start < n:
            for lines in (w32, m, v):
                for i in range(wb_start, wb_stop):
                    if i < len(lines):
                        burst.append((lines[i], KIND_WRITE))
            # fp16 output advances at half the fp32 line rate.
            w16_target = min(len(w16), (wb_stop * len(w16) + n - 1) // n)
            while w16_cursor < w16_target:
                burst.append((w16[w16_cursor], KIND_WRITE))
                w16_cursor += 1
        if burst:
            bursts.append(burst)
    return bursts


def adam_iteration_columns(
    groups: Sequence[AdamGroup],
    config: AdamTraceConfig,
    rng: random.Random,
) -> Columns:
    """Reference of :func:`repro.workloads.traces.adam_iteration_batch`."""
    trace: List[Access] = []
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
    return _columns(trace)


def gemm_columns(a: TensorDesc, b: TensorDesc, c: TensorDesc, config: GemmConfig) -> Columns:
    """Reference of :func:`repro.workloads.traces.gemm_batch`."""
    trace: List[Access] = []

    def emit_rows(t: TensorDesc, row0: int, col0: int, rows: int, cols: int, kind: int) -> None:
        for r in range(row0, row0 + rows):
            for addr in t.tile_row_lines(r, col0, cols):
                trace.append((addr, kind))

    for i0 in range(0, config.m, config.tile_m):
        for j0 in range(0, config.n, config.tile_n):
            for k0 in range(0, config.k, config.tile_k):
                emit_rows(a, i0, k0, config.tile_m, config.tile_k, KIND_READ)
                emit_rows(b, k0, j0, config.tile_k, config.tile_n, KIND_READ)
            emit_rows(c, i0, j0, config.tile_m, config.tile_n, KIND_READ)
            emit_rows(c, i0, j0, config.tile_m, config.tile_n, KIND_WRITE)
    return _columns(trace)


def attention_columns(tensors: AttentionTensors, config: AttentionConfig) -> Columns:
    """Reference of :func:`repro.workloads.traces.attention_batch`.

    Row by row: every burst walks each whole row it reads through the
    view's strided geometry and dedupes the block's lines as it goes, so
    a K/V block is enumerated again for every query block and an O block
    for every key block. Each head is one hardware thread; the controller
    sees one burst per head in turn.
    """

    def emit_rows(burst: List[Access], view: TensorDesc, row0: int, rows: int, kind: int) -> None:
        geometry = view.geometry
        seen = set()
        for r in range(row0, row0 + rows):
            for addr in geometry.slice_(0, r, r + 1).line_addresses(view.base_va):
                if addr not in seen:
                    seen.add(addr)
                    burst.append((addr, kind))

    per_head: List[List[List[Access]]] = []
    for head in tensors.heads:
        bursts: List[List[Access]] = []
        for q0 in range(0, config.seq_len, config.block_q):
            q_burst: List[Access] = []
            emit_rows(q_burst, head.q, q0, config.block_q, KIND_READ)
            bursts.append(q_burst)
            for k0 in range(0, config.seq_len, config.block_k):
                kv_burst: List[Access] = []
                emit_rows(kv_burst, head.k, k0, config.block_k, KIND_READ)
                emit_rows(kv_burst, head.v, k0, config.block_k, KIND_READ)
                emit_rows(kv_burst, head.o, q0, config.block_q, KIND_READ)
                emit_rows(kv_burst, head.o, q0, config.block_q, KIND_WRITE)
                bursts.append(kv_burst)
        per_head.append(bursts)
    trace: List[Access] = []
    for turn in range(max(len(bursts) for bursts in per_head)):
        for bursts in per_head:
            if turn < len(bursts):
                trace.extend(bursts[turn])
    return _columns(trace)
