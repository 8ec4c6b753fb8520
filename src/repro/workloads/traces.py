"""Synthetic memory-access trace generators.

Two workloads from the paper's CPU evaluation:

- **Adam optimizer step** (Sec. 3.1 / 6.2): element-wise streaming over the
  fused per-layer optimizer buffers (DeepSpeed's CPU-Adam flattens parameter
  groups into per-layer fp32 buffers; we model one w32/m/v/g/w16 quintet per
  layer). Each hardware thread updates a contiguous shard; the memory
  controller sees the round-robin interleaving of all thread streams.
- **Tiled GEMM** (Sec. 6.2): the 256x256 matrix multiply with 64x64 tiles
  used to demonstrate entry merging on complex access patterns.

Full-size models have millions of lines per tensor; generators take a
``lines_per_tensor`` scale so functional simulations stay tractable while
preserving stream structure (see DESIGN.md Sec. 2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.sim.trace import MemAccess
from repro.sim.trace_batch import KIND_READ, KIND_WRITE, TraceBatch
from repro.tensor.dtype import DType
from repro.tensor.registry import TensorRegistry
from repro.tensor.tensor import TensorDesc
from repro.units import CACHELINE_BYTES


@dataclass
class AdamGroup:
    """The five fused buffers of one layer's optimizer step.

    Under the default ``"flat"`` layout each role is its own contiguous
    allocation. Under ``"interleaved"`` the four fp32 roles are *views*
    into one fused array-of-structs buffer (``fused``, shape
    ``(elems, 4)``): role ``k`` is ``fused.select(1, k)`` with element
    stride 4, so every role's walk covers every line of the buffer — the
    per-role streams the memory controller sees are no longer
    line-contiguous and the read-modify-write rounds revisit lines they
    already wrote, which is exactly the layout-sensitivity the
    TenAnalyzer sweeps measure.
    """

    layer: int
    weight32: TensorDesc
    momentum: TensorDesc
    variance: TensorDesc
    grad32: TensorDesc
    weight16: TensorDesc
    layout: str = "flat"
    fused: Optional[TensorDesc] = None
    #: Per-thread burst streams by ``(threads, burst_lines,
    #: write_lag_bursts)``, built on first use by :func:`_layer_streams`.
    _streams: Dict[Tuple[int, int, int], "_LayerStreams"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def read_tensors(self) -> Tuple[TensorDesc, ...]:
        return (self.weight32, self.momentum, self.variance, self.grad32)

    @property
    def rmw_tensors(self) -> Tuple[TensorDesc, ...]:
        return (self.weight32, self.momentum, self.variance)

    def all_tensors(self) -> Tuple[TensorDesc, ...]:
        return (self.weight32, self.momentum, self.variance, self.grad32, self.weight16)


def build_adam_groups(
    registry: TensorRegistry,
    n_layers: int,
    lines_per_tensor: int,
    layout: str = "flat",
) -> List[AdamGroup]:
    """Allocate per-layer Adam buffers scaled to ``lines_per_tensor``.

    ``layout="flat"`` (default) allocates each fp32 role contiguously —
    the DeepSpeed fused-buffer model every earlier experiment used.
    ``layout="interleaved"`` packs the four fp32 roles as one
    array-of-structs buffer per layer and derives the role tensors as
    stride-4 :meth:`TensorDesc.select` views (registered by name, same
    storage ``tensor_id``); the fp16 output stays a separate allocation.
    """
    if layout not in ("flat", "interleaved"):
        raise ConfigError(f"unknown adam layout {layout!r}")
    if lines_per_tensor < 8:
        raise ConfigError("need at least 8 lines per tensor for sharding")
    elems32 = lines_per_tensor * CACHELINE_BYTES // DType.FP32.nbytes
    elems16_lines = max(1, lines_per_tensor // 2)
    elems16 = elems16_lines * CACHELINE_BYTES // DType.FP16.nbytes
    roles = ("weight32", "momentum", "variance", "grad32")
    suffixes = ("w32", "m", "v", "g")
    groups = []
    for layer in range(n_layers):
        prefix = f"adam.layer{layer}"
        if layout == "flat":
            role_tensors = tuple(
                registry.allocate(f"{prefix}.{sfx}", (elems32,), DType.FP32, role)
                for role, sfx in zip(roles, suffixes)
            )
            fused = None
        else:
            fused = registry.allocate(
                f"{prefix}.fused", (elems32, len(roles)), DType.FP32, "fused"
            )
            role_tensors = tuple(
                registry.register_view(
                    replace(
                        fused.select(1, slot, name=f"{prefix}.{sfx}"), role=role
                    )
                )
                for slot, (role, sfx) in enumerate(zip(roles, suffixes))
            )
        groups.append(
            AdamGroup(
                layer=layer,
                weight32=role_tensors[0],
                momentum=role_tensors[1],
                variance=role_tensors[2],
                grad32=role_tensors[3],
                weight16=registry.allocate(f"{prefix}.w16", (elems16,), DType.FP16, "weight16"),
                layout=layout,
                fused=fused,
            )
        )
    return groups


@dataclass
class AdamTraceConfig:
    """Shape of the generated Adam iteration trace."""

    threads: int = 8
    burst_lines: int = 4  # lines each role-stream advances per thread turn
    thread_skew: float = 0.15  # probability a thread skips a turn (progress jitter)
    #: Write-backs reach the memory controller from LLC evictions, trailing
    #: the read stream by this many bursts (Fig. 12: "writing addresses from
    #: cores are filtered by LLC").
    write_lag_bursts: int = 4
    seed: int = 1234


#: Per-thread, per-layer column stream: (vaddr, kind, tensor_id, burst bounds).
_ThreadColumns = Tuple[List[int], List[int], List[int], List[Tuple[int, int]]]


def _thread_layer_columns(
    group: AdamGroup, thread: int, threads: int, burst_lines: int, write_lag_bursts: int
) -> _ThreadColumns:
    """Thread ``thread``'s bursts for one layer, in issue order.

    Each burst advances every role stream by ``burst_lines`` lines: reads of
    w32/m/v/g, plus the *lagged* read-modify-write write-backs of w32/m/v
    and the fp16 weight output (half as many lines). Trailing bursts drain
    the remaining write-backs after reads finish.

    Columns are assembled by whole-slice extends — no per-access objects;
    ``bounds`` marks each burst's ``[start, stop)`` window so the
    interleaver can replay round-robin turns as slice copies.
    """
    shards = {t.name: t.shard_lines(threads, thread) for t in group.all_tensors()}
    w32 = shards[group.weight32.name]
    m = shards[group.momentum.name]
    v = shards[group.variance.name]
    g = shards[group.grad32.name]
    w16 = shards[group.weight16.name]
    n = len(w32)
    n_read_bursts = -(-n // burst_lines)
    vaddr: List[int] = []
    kind: List[int] = []
    tensor_id: List[int] = []
    bounds: List[Tuple[int, int]] = []
    w16_cursor = 0
    for burst_index in range(n_read_bursts + write_lag_bursts):
        burst_start = len(vaddr)
        start = burst_index * burst_lines
        stop = min(start + burst_lines, n)
        if start < n:
            for role_tensor, lines in (
                (group.weight32, w32),
                (group.momentum, m),
                (group.variance, v),
                (group.grad32, g),
            ):
                segment = lines[start:stop]
                if segment:
                    vaddr.extend(segment)
                    kind.extend([KIND_READ] * len(segment))
                    tensor_id.extend([role_tensor.tensor_id] * len(segment))
        wb_index = burst_index - write_lag_bursts
        wb_start = wb_index * burst_lines
        wb_stop = min(wb_start + burst_lines, n)
        if wb_index >= 0 and wb_start < n:
            for role_tensor, lines in (
                (group.weight32, w32),
                (group.momentum, m),
                (group.variance, v),
            ):
                segment = lines[wb_start:wb_stop]
                if segment:
                    vaddr.extend(segment)
                    kind.extend([KIND_WRITE] * len(segment))
                    tensor_id.extend([role_tensor.tensor_id] * len(segment))
            # fp16 output advances at half the fp32 line rate.
            w16_target = min(len(w16), (wb_stop * len(w16) + n - 1) // n)
            segment = w16[w16_cursor:w16_target]
            if segment:
                vaddr.extend(segment)
                kind.extend([KIND_WRITE] * len(segment))
                tensor_id.extend([group.weight16.tensor_id] * len(segment))
            w16_cursor = w16_target
        if len(vaddr) > burst_start:
            bounds.append((burst_start, len(vaddr)))
    return vaddr, kind, tensor_id, bounds


class _LayerStreams(NamedTuple):
    """Every thread's bursts for one layer, built once per group and shape."""

    #: vaddr, kind, thread and tensor_id arrays, thread-major. Kind and
    #: thread are stored narrow to keep the cache small; ``TraceBatch``
    #: widens every column to int64.
    columns: Tuple[Any, ...]
    #: Per thread, each burst's ``[start, stop)`` span of ``columns``.
    bursts: List[List[Tuple[int, int]]]


#: Column dtypes of :class:`_LayerStreams`.
_STREAM_DTYPES = ("int64", "int8", "int16", "int64")


def _layer_streams(group: AdamGroup, config: AdamTraceConfig) -> _LayerStreams:
    """The group's per-thread column streams for ``config``'s shape.

    They depend only on the group and on ``threads`` / ``burst_lines`` /
    ``write_lag_bursts``, so they are built once and reused by every
    iteration; only the RNG-driven interleave runs per iteration.
    """
    key = (config.threads, config.burst_lines, config.write_lag_bursts)
    streams = group._streams.get(key)
    if streams is None:
        rows: Tuple[List[int], ...] = ([], [], [], [])
        bursts = []
        for t in range(config.threads):
            t_vaddr, t_kind, t_tensor, bounds = _thread_layer_columns(group, t, *key)
            offset = len(rows[0])
            rows[0].extend(t_vaddr)
            rows[1].extend(t_kind)
            rows[2].extend([t] * len(t_vaddr))
            rows[3].extend(t_tensor)
            bursts.append([(offset + start, offset + stop) for start, stop in bounds])
        columns = tuple(np.array(row, dtype=dtype) for row, dtype in zip(rows, _STREAM_DTYPES))
        streams = _LayerStreams(columns, bursts)
        group._streams[key] = streams
    return streams


def adam_iteration_batch(
    groups: Sequence[AdamGroup],
    config: AdamTraceConfig,
    rng: random.Random | None = None,
) -> TraceBatch:
    """One optimizer iteration as seen by the memory controller.

    All threads walk the layers in order; within a layer the MC sees a
    round-robin interleave of thread bursts with random skew (while
    ``thread_skew`` is nonzero, each turn of a thread with bursts left
    draws once from ``rng`` and skips with that probability). Each
    group's per-thread column streams are reused
    (:func:`_layer_streams`) and the interleaved bursts are gathered with
    one array index per layer.
    """
    rng = rng if rng is not None else random.Random(config.seed)
    skew = config.thread_skew
    parts = []
    for group in groups:
        streams = _layer_streams(group, config)
        cursors = [0] * config.threads
        remaining = sum(len(bursts) for bursts in streams.bursts)
        starts: List[int] = []
        stops: List[int] = []
        while remaining:
            for t, bursts in enumerate(streams.bursts):
                if cursors[t] >= len(bursts):
                    continue
                if skew and rng.random() < skew:
                    continue
                start, stop = bursts[cursors[t]]
                starts.append(start)
                stops.append(stop)
                cursors[t] += 1
                remaining -= 1
        # Gather index of the chosen bursts, in the order the controller sees them.
        first = np.array(starts)
        lengths = np.array(stops) - first
        ends = np.cumsum(lengths)
        index = np.arange(ends[-1]) + np.repeat(first - (ends - lengths), lengths)
        parts.append([column[index] for column in streams.columns])
    if not parts:
        return TraceBatch.empty()
    return TraceBatch.from_columns(*(np.concatenate(column) for column in zip(*parts)))


def adam_iteration_trace(
    groups: Sequence[AdamGroup],
    config: AdamTraceConfig,
    rng: random.Random | None = None,
) -> List[MemAccess]:
    """Object view of :func:`adam_iteration_batch` (legacy API)."""
    return adam_iteration_batch(groups, config, rng).to_accesses()


# -- tiled GEMM -------------------------------------------------------------


@dataclass
class GemmConfig:
    """C[M,N] += A[M,K] @ B[K,N] with (tile_m, tile_n, tile_k) tiling."""

    m: int = 256
    n: int = 256
    k: int = 256
    tile_m: int = 64
    tile_n: int = 64
    tile_k: int = 64
    dtype: DType = DType.FP32

    def __post_init__(self) -> None:
        for total, tile, label in (
            (self.m, self.tile_m, "m"),
            (self.n, self.tile_n, "n"),
            (self.k, self.tile_k, "k"),
        ):
            if total % tile:
                raise ConfigError(f"gemm dim {label}={total} not divisible by tile {tile}")


def build_gemm_tensors(
    registry: TensorRegistry, config: GemmConfig
) -> Tuple[TensorDesc, TensorDesc, TensorDesc]:
    """Allocate the A, B and C matrices."""
    a = registry.allocate("gemm.A", (config.m, config.k), config.dtype, "input")
    b = registry.allocate("gemm.B", (config.k, config.n), config.dtype, "input")
    c = registry.allocate("gemm.C", (config.m, config.n), config.dtype, "output")
    return a, b, c


def gemm_batch(
    a: TensorDesc,
    b: TensorDesc,
    c: TensorDesc,
    config: GemmConfig,
    thread: int = 0,
) -> TraceBatch:
    """One full tiled GEMM pass (output-stationary: C written once per tile).

    Loop order: for each output tile (i, j): accumulate over k reading A and
    B tile rows; after the k loop, read-modify-write the C tile rows. The
    columns are emitted row-segment by row-segment.
    """
    vaddr: List[int] = []
    kind: List[int] = []
    tensor_id: List[int] = []

    def emit_rows(t: TensorDesc, row0: int, col0: int, rows: int, cols: int, code: int) -> None:
        tid = t.tensor_id
        for r in range(row0, row0 + rows):
            lines = list(t.tile_row_lines(r, col0, cols))
            vaddr.extend(lines)
            kind.extend([code] * len(lines))
            tensor_id.extend([tid] * len(lines))

    for i0 in range(0, config.m, config.tile_m):
        for j0 in range(0, config.n, config.tile_n):
            for k0 in range(0, config.k, config.tile_k):
                emit_rows(a, i0, k0, config.tile_m, config.tile_k, KIND_READ)
                emit_rows(b, k0, j0, config.tile_k, config.tile_n, KIND_READ)
            emit_rows(c, i0, j0, config.tile_m, config.tile_n, KIND_READ)
            emit_rows(c, i0, j0, config.tile_m, config.tile_n, KIND_WRITE)
    return TraceBatch.from_columns(vaddr, kind, [thread] * len(vaddr), tensor_id)


def gemm_trace(
    a: TensorDesc,
    b: TensorDesc,
    c: TensorDesc,
    config: GemmConfig,
    thread: int = 0,
) -> List[MemAccess]:
    """Object view of :func:`gemm_batch` (legacy API)."""
    return gemm_batch(a, b, c, config, thread).to_accesses()


# -- blockwise attention (QK^T / softmax / V) --------------------------------


@dataclass
class AttentionConfig:
    """One attention layer's blockwise (FlashAttention-style) pass.

    ``block_q`` x ``block_k`` is the score tile: for each query block the
    kernel streams every key/value block and *rescales* the output block
    in place (the online-softmax read-modify-write), so O lines are
    written once per key block — the repeated-write pattern that trips
    TenAnalyzer's Assert1 on layouts where heads share cachelines.
    """

    n_heads: int = 8
    seq_len: int = 128
    head_dim: int = 64
    block_q: int = 32
    block_k: int = 32
    dtype: DType = DType.FP32

    def __post_init__(self) -> None:
        for total, block, label in (
            (self.seq_len, self.block_q, "block_q"),
            (self.seq_len, self.block_k, "block_k"),
        ):
            if total % block:
                raise ConfigError(
                    f"seq_len={total} not divisible by {label}={block}"
                )


@dataclass
class AttentionHead:
    """Per-head 2D ``(seq_len, head_dim)`` views of Q/K/V/O."""

    head: int
    q: TensorDesc
    k: TensorDesc
    v: TensorDesc
    o: TensorDesc

    def all_views(self) -> Tuple[TensorDesc, ...]:
        return (self.q, self.k, self.v, self.o)


@dataclass
class AttentionTensors:
    """The four storage tensors plus their per-head views."""

    layout: str
    q: TensorDesc
    k: TensorDesc
    v: TensorDesc
    o: TensorDesc
    heads: List[AttentionHead]

    def storage_tensors(self) -> Tuple[TensorDesc, ...]:
        return (self.q, self.k, self.v, self.o)


def build_attention_tensors(
    registry: TensorRegistry,
    config: AttentionConfig,
    layout: str = "head_major",
) -> AttentionTensors:
    """Allocate Q/K/V/O and derive one 2D view per head.

    ``layout="head_major"`` stores ``(n_heads, seq_len, head_dim)``: each
    head's view (``select(0, h)``) walks a private contiguous block, so
    its line stream is line-contiguous — the friendly case.
    ``layout="interleaved"`` stores ``(seq_len, n_heads * head_dim)``
    (the fused-projection layout attention kernels actually read before
    any transpose): each head's view (``slice_`` over the feature dim)
    touches ``head_dim`` elements per row then skips the other heads'
    features, producing short runs with large gaps — the case that
    degrades stream detection.
    """
    if layout not in ("head_major", "interleaved"):
        raise ConfigError(f"unknown attention layout {layout!r}")
    h, s, d = config.n_heads, config.seq_len, config.head_dim
    shape = (h, s, d) if layout == "head_major" else (s, h * d)
    tensors = {}
    for sym in ("q", "k", "v", "o"):
        role = "activation" if sym != "o" else "output"
        tensors[sym] = registry.allocate(f"attn.{sym.upper()}", shape, config.dtype, role)
    heads = []
    for head in range(h):
        views = {}
        for sym, storage in tensors.items():
            name = f"attn.{sym.upper()}.h{head}"
            if layout == "head_major":
                view = storage.select(0, head, name=name)
            else:
                view = storage.slice_(1, head * d, (head + 1) * d, name=name)
            views[sym] = registry.register_view(view)
        heads.append(AttentionHead(head=head, **views))
    return AttentionTensors(layout=layout, heads=heads, **tensors)


#: Column burst: (vaddr, kind, tensor_id) triples of one scheduling unit.
_Burst = Tuple[List[int], List[int], List[int]]


def _attention_head_bursts(head: AttentionHead, config: AttentionConfig) -> List[_Burst]:
    """One head's blockwise pass as an ordered burst list.

    Per query block: one burst reading the Q rows, then one burst per key
    block reading the K and V rows and read-modify-writing the O rows
    (the online-softmax rescale). Line enumeration follows each view's
    strides via :meth:`TensorDesc.tile_row_lines`.
    """
    d = config.head_dim

    def emit_rows(burst: _Burst, view: TensorDesc, row0: int, rows: int, code: int) -> None:
        vaddr, kind, tensor_id = burst
        seen_rows = set()
        for r in range(row0, row0 + rows):
            lines = view.tile_row_lines(r, 0, d)
            fresh = [a for a in lines if a not in seen_rows]
            seen_rows.update(fresh)
            vaddr.extend(fresh)
            kind.extend([code] * len(fresh))
            tensor_id.extend([view.tensor_id] * len(fresh))

    bursts: List[_Burst] = []
    for q0 in range(0, config.seq_len, config.block_q):
        q_burst: _Burst = ([], [], [])
        emit_rows(q_burst, head.q, q0, config.block_q, KIND_READ)
        bursts.append(q_burst)
        for k0 in range(0, config.seq_len, config.block_k):
            kv_burst: _Burst = ([], [], [])
            emit_rows(kv_burst, head.k, k0, config.block_k, KIND_READ)
            emit_rows(kv_burst, head.v, k0, config.block_k, KIND_READ)
            # Rescale: the O block is re-read and re-written every key
            # block — within one logical update round, so a covering Meta
            # Table entry sees the same line written twice (Assert1).
            emit_rows(kv_burst, head.o, q0, config.block_q, KIND_READ)
            emit_rows(kv_burst, head.o, q0, config.block_q, KIND_WRITE)
            bursts.append(kv_burst)
    return bursts


def attention_batch(
    tensors: AttentionTensors, config: AttentionConfig
) -> TraceBatch:
    """One attention layer as seen by the memory controller.

    One hardware thread per head; the controller sees the deterministic
    round-robin interleave of per-head bursts, assembled by column extends.
    """
    per_head = [_attention_head_bursts(h, config) for h in tensors.heads]
    vaddr: List[int] = []
    kind: List[int] = []
    thread_col: List[int] = []
    tensor_id: List[int] = []
    cursors = [0] * len(per_head)
    remaining = sum(len(b) for b in per_head)
    while remaining:
        for t, bursts in enumerate(per_head):
            if cursors[t] >= len(bursts):
                continue
            b_vaddr, b_kind, b_tensor = bursts[cursors[t]]
            vaddr.extend(b_vaddr)
            kind.extend(b_kind)
            tensor_id.extend(b_tensor)
            thread_col.extend([t] * len(b_vaddr))
            cursors[t] += 1
            remaining -= 1
    return TraceBatch.from_columns(vaddr, kind, thread_col, tensor_id)


def attention_trace(
    tensors: AttentionTensors, config: AttentionConfig
) -> List[MemAccess]:
    """Object view of :func:`attention_batch`."""
    return attention_batch(tensors, config).to_accesses()
