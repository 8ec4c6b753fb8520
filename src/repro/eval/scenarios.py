"""Off-design-point scenario experiments (the sweep engine's targets).

The 16 paper experiments each pin one configuration; these three are
*parameterized* so `repro.eval.sweep` can expand matrices over them:

- ``scale_npu_pipeline`` — the collaborative pipeline on the synthetic
  scaling zoo (``repro.workloads.models.SCALING_PRESETS``), any batch size:
  model-size x batch-size scaling beyond the fixed Table-2 rows;
- ``mee_cache_geometry`` — MEE metadata-cache (VN/MAC/Merkle) hit behaviour
  as a function of capacity and associativity, generalizing the fixed
  32 KB/8-way Table-1 point;
- ``mac_policy`` — MAC granularity x verification policy (eager vs
  delayed), generalizing Fig. 20's eager-only granularity axis;
- ``attention_layout`` — TenAnalyzer detection/merge behaviour on a
  blockwise attention pass as a function of head dim and Q/K/V storage
  layout (head-major vs feature-interleaved views);
- ``stride_detection`` — detection accuracy on a constant-stride line
  walk as a function of the stride, with the stride-aware Tensor Filter
  on or off.

Each returns a result with ``as_dict`` so sweep metrics can be extracted
from the orchestrator summary by dotted path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.config import baseline_system, non_secure_system, tensortee_system
from repro.core.system import CollaborativeSystem
from repro.cpu.tenanalyzer.analyzer import TenAnalyzer
from repro.errors import ConfigError
from repro.eval.registry import experiment
from repro.eval.tables import ascii_table, fmt, pct
from repro.mem.cache import LruCacheCore
from repro.mem.metadata_cache import KEY_SHIFT, MAC_BASE, TREE_BASE
from repro.npu.config import NpuConfig
from repro.npu.kernels import iteration_time_s
from repro.npu.mac import MacScheme
from repro.sim.trace_batch import KIND_READ
from repro.tensor.dtype import DType
from repro.tensor.registry import TensorRegistry
from repro.units import CACHELINE_BYTES, KiB, PAGE_BYTES
from repro.workloads.models import scaled_model
from repro.workloads.traces import (
    AttentionConfig,
    attention_batch,
    build_attention_tensors,
)

# -- scale_npu_pipeline -------------------------------------------------------


@dataclass(frozen=True)
class ScaleResult:
    """One (model size, batch size) point of the scaling scenario."""

    model: str
    n_params: int
    batch_size: int
    tokens_per_batch: int
    non_secure_s: float
    baseline_s: float
    tensortee_s: float
    npu_fraction: float  #: NPU share of the TensorTEE iteration

    @property
    def speedup(self) -> float:
        return self.baseline_s / self.tensortee_s

    @property
    def overhead_vs_ns(self) -> float:
        return self.tensortee_s / self.non_secure_s - 1.0

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "n_params": self.n_params,
            "batch_size": self.batch_size,
            "tokens_per_batch": self.tokens_per_batch,
            "non_secure_s": self.non_secure_s,
            "baseline_s": self.baseline_s,
            "tensortee_s": self.tensortee_s,
            "speedup": self.speedup,
            "overhead_vs_ns": self.overhead_vs_ns,
            "npu_fraction": self.npu_fraction,
        }


@experiment(
    "scale_npu_pipeline",
    tags=("scenario", "e2e", "sweep"),
    cost="slow",
    render="render_scale",
)
def scale_npu_pipeline(
    preset: str = "410m", batch_size: int = 0, seq_len: int = 1024
) -> ScaleResult:
    """Collaborative-pipeline latency for one synthetic (size, batch) point."""
    model = scaled_model(preset, batch_size=batch_size, seq_len=seq_len)
    systems = {
        "ns": CollaborativeSystem(non_secure_system()),
        "base": CollaborativeSystem(baseline_system()),
        "ours": CollaborativeSystem(tensortee_system()),
    }
    ours = systems["ours"].iteration_breakdown(model)
    return ScaleResult(
        model=model.name,
        n_params=model.n_params,
        batch_size=model.batch_size,
        tokens_per_batch=model.tokens_per_batch,
        non_secure_s=systems["ns"].iteration_breakdown(model).total_s,
        baseline_s=systems["base"].iteration_breakdown(model).total_s,
        tensortee_s=ours.total_s,
        npu_fraction=ours.fractions()["NPU"],
    )


def render_scale(result: ScaleResult) -> str:
    table = ascii_table(
        ["model", "params", "batch", "non-secure (s)", "SGX+MGX (s)", "TensorTEE (s)", "speedup"],
        [
            (
                result.model,
                f"{result.n_params / 1e6:.0f}M",
                result.batch_size,
                fmt(result.non_secure_s, 3),
                fmt(result.baseline_s, 3),
                fmt(result.tensortee_s, 3),
                fmt(result.speedup),
            )
        ],
    )
    return (
        "Scenario — collaborative pipeline at one (model size, batch) point\n"
        f"(TensorTEE {pct(result.overhead_vs_ns)} over non-secure, "
        f"NPU fraction {pct(result.npu_fraction)})\n\n" + table
    )


# -- mee_cache_geometry -------------------------------------------------------


@dataclass(frozen=True)
class MeeGeometryResult:
    """Metadata-cache behaviour for one (capacity, ways) geometry."""

    capacity_kib: int
    ways: int
    capacity_lines: int
    vn_lines: int
    levels: int
    accesses: int
    hit_rate: float
    kind_hit_rates: Dict[str, float]
    mean_covered_level: float

    def as_dict(self) -> dict:
        return {
            "capacity_kib": self.capacity_kib,
            "ways": self.ways,
            "capacity_lines": self.capacity_lines,
            "vn_lines": self.vn_lines,
            "levels": self.levels,
            "accesses": self.accesses,
            "hit_rate": self.hit_rate,
            "vn_hit_rate": self.kind_hit_rates["vn"],
            "mac_hit_rate": self.kind_hit_rates["mac"],
            "tree_hit_rate": self.kind_hit_rates["tree"],
            "mean_covered_level": self.mean_covered_level,
        }


def _tree_levels(vn_lines: int, arity: int = 8) -> int:
    levels = 1
    nodes = vn_lines
    while nodes > 1:
        nodes = (nodes + arity - 1) // arity
        levels += 1
    return levels


@experiment(
    "mee_cache_geometry",
    tags=("scenario", "mem", "sweep"),
    cost="fast",
    render="render_mee",
)
def mee_cache_geometry(
    capacity_kib: int = 32,
    ways: int = 8,
    tensors: int = 48,
    lines_per_tensor: int = 32,
    iterations: int = 4,
    seed: int = 2024,
) -> MeeGeometryResult:
    """Stream an optimizer-shaped metadata workload through one geometry.

    Each iteration walks every tensor (seeded-shuffled order, as the
    per-core shards interleave) and touches, per VN line: the VN and MAC
    lines on the read, a Merkle walk that stops at the lowest cached tree
    level, the read-modify-write reuse of both lines, and the tree-path
    update on the write-back. Capacity and associativity are the swept
    geometry; Table 1's fixed point is 32 KB / 8-way.
    """
    if tensors <= 0 or lines_per_tensor <= 0 or iterations <= 0:
        raise ConfigError("tensors, lines_per_tensor and iterations must be positive")
    # The shuffled per-iteration line order is one NumPy expression; the
    # cache replay is state-serial, so it runs as a tight loop over
    # :class:`repro.mem.cache.LruCacheCore` state with the touch/probe
    # bodies inlined — no synthetic-address reconstruction, no ``Stats``
    # call and no enum dispatch per touch.
    core = LruCacheCore.for_cache(capacity_kib * KiB, ways=ways)
    vn_lines = tensors * lines_per_tensor
    levels = _tree_levels(vn_lines)
    rng = random.Random(seed)
    order = list(range(tensors))
    offsets = np.arange(lines_per_tensor, dtype=np.int64)[None, :]
    stream: list = []
    for _ in range(iterations):
        rng.shuffle(order)
        bases = np.asarray(order, dtype=np.int64)[:, None] * lines_per_tensor
        stream.extend((bases + offsets).ravel().tolist())

    sets = core.sets
    n_sets = core.n_sets
    tree_base = [TREE_BASE + (level << KEY_SHIFT) for level in range(levels + 1)]
    vn_hits = vn_misses = mac_hits = mac_misses = tree_hits = tree_misses = 0
    covered_total = 0
    for index in stream:
        # Read path: VN + MAC fetch, tree walk to the covered level.
        cache_set = sets[index % n_sets]
        tag = index // n_sets
        dirty = cache_set.pop(tag, None)
        if dirty is not None:
            cache_set[tag] = dirty
            vn_hits += 1
        else:
            if len(cache_set) >= ways:
                cache_set.pop(next(iter(cache_set)))
            cache_set[tag] = False
            vn_misses += 1
        key = MAC_BASE + index
        cache_set = sets[key % n_sets]
        tag = key // n_sets
        dirty = cache_set.pop(tag, None)
        if dirty is not None:
            cache_set[tag] = dirty
            mac_hits += 1
        else:
            if len(cache_set) >= ways:
                cache_set.pop(next(iter(cache_set)))
            cache_set[tag] = False
            mac_misses += 1
        # Covered-level probe: presence only, no LRU update, no counters.
        covered = levels
        node = index
        for level in range(1, levels):
            node //= 8
            key = tree_base[level] + node
            if key // n_sets in sets[key % n_sets]:
                covered = level
                break
        covered_total += covered
        node = index
        for level in range(1, covered + 1):
            node //= 8
            key = tree_base[level] + node
            cache_set = sets[key % n_sets]
            tag = key // n_sets
            dirty = cache_set.pop(tag, None)
            if dirty is not None:
                cache_set[tag] = dirty
                tree_hits += 1
            else:
                if len(cache_set) >= ways:
                    cache_set.pop(next(iter(cache_set)))
                cache_set[tag] = False
                tree_misses += 1
        # Write-back of the updated line: VN bump + fresh MAC,
        # then the tree path re-hashes up to the root.
        cache_set = sets[index % n_sets]
        tag = index // n_sets
        dirty = cache_set.pop(tag, None)
        if dirty is not None:
            cache_set[tag] = True
            vn_hits += 1
        else:
            if len(cache_set) >= ways:
                cache_set.pop(next(iter(cache_set)))
            cache_set[tag] = True
            vn_misses += 1
        key = MAC_BASE + index
        cache_set = sets[key % n_sets]
        tag = key // n_sets
        dirty = cache_set.pop(tag, None)
        if dirty is not None:
            cache_set[tag] = True
            mac_hits += 1
        else:
            if len(cache_set) >= ways:
                cache_set.pop(next(iter(cache_set)))
            cache_set[tag] = True
            mac_misses += 1
        node = index
        for level in range(1, levels):
            node //= 8
            key = tree_base[level] + node
            cache_set = sets[key % n_sets]
            tag = key // n_sets
            dirty = cache_set.pop(tag, None)
            if dirty is not None:
                cache_set[tag] = True
                tree_hits += 1
            else:
                if len(cache_set) >= ways:
                    cache_set.pop(next(iter(cache_set)))
                cache_set[tag] = True
                tree_misses += 1

    hits = vn_hits + mac_hits + tree_hits
    total = hits + vn_misses + mac_misses + tree_misses
    kind_hit_rates = {
        "vn": vn_hits / (vn_hits + vn_misses) if vn_hits + vn_misses else 0.0,
        "mac": mac_hits / (mac_hits + mac_misses) if mac_hits + mac_misses else 0.0,
        "tree": tree_hits / (tree_hits + tree_misses) if tree_hits + tree_misses else 0.0,
    }
    return MeeGeometryResult(
        capacity_kib=capacity_kib,
        ways=ways,
        capacity_lines=capacity_kib * KiB // 64,
        vn_lines=vn_lines,
        levels=levels,
        accesses=total,
        hit_rate=hits / total if total else 0.0,
        kind_hit_rates=kind_hit_rates,
        mean_covered_level=covered_total / max(len(stream), 1),
    )


def render_mee(result: MeeGeometryResult) -> str:
    table = ascii_table(
        ["capacity", "ways", "VN hit", "MAC hit", "tree hit", "all", "covered lvl"],
        [
            (
                f"{result.capacity_kib} KiB",
                result.ways,
                pct(result.kind_hit_rates["vn"]),
                pct(result.kind_hit_rates["mac"]),
                pct(result.kind_hit_rates["tree"]),
                pct(result.hit_rate),
                fmt(result.mean_covered_level),
            )
        ],
    )
    return (
        "Scenario — MEE metadata-cache geometry "
        f"({result.vn_lines} VN lines, {result.levels}-level tree, "
        f"{result.accesses} accesses)\n\n" + table
    )


# -- mac_policy ---------------------------------------------------------------

POLICIES = ("eager", "delayed")


@dataclass(frozen=True)
class MacPolicyResult:
    """One (granularity, verification policy) trade-off point."""

    scheme: str
    granule_bytes: int
    policy: str
    model: str
    storage_overhead: float
    traffic_overhead: float
    stall_overhead: float
    perf_overhead: float
    base_iteration_s: float

    @property
    def secure_iteration_s(self) -> float:
        return self.base_iteration_s * (1.0 + self.perf_overhead)

    def as_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "granule_bytes": self.granule_bytes,
            "policy": self.policy,
            "model": self.model,
            "storage_overhead": self.storage_overhead,
            "traffic_overhead": self.traffic_overhead,
            "stall_overhead": self.stall_overhead,
            "perf_overhead": self.perf_overhead,
            "base_iteration_s": self.base_iteration_s,
            "secure_iteration_s": self.secure_iteration_s,
        }


@experiment(
    "mac_policy",
    tags=("scenario", "npu", "sweep"),
    cost="fast",
    render="render_mac",
)
def mac_policy(
    granule_bytes: int = 512, policy: str = "eager", preset: str = "2.8b"
) -> MacPolicyResult:
    """Storage/perf trade-off of one MAC granularity under one policy.

    ``granule_bytes=0`` is the tensor-wise scheme; ``policy`` picks eager
    (consume-after-verify, Fig. 20's axis) or delayed (poison-tracked)
    verification. Fig. 20 only ever pairs delayed with tensor-wise; the
    full cross product is the off-paper scenario.
    """
    if policy not in POLICIES:
        raise ConfigError(f"unknown policy {policy!r}; known: {', '.join(POLICIES)}")
    config = NpuConfig()
    label = "tensor" if granule_bytes == 0 else f"{granule_bytes}B"
    scheme = MacScheme(f"{label}/{policy}", granule_bytes, delayed=policy == "delayed")
    model = scaled_model(preset)
    return MacPolicyResult(
        scheme=scheme.name,
        granule_bytes=granule_bytes,
        policy=policy,
        model=model.name,
        storage_overhead=scheme.storage_overhead(),
        traffic_overhead=scheme.traffic_overhead(),
        stall_overhead=scheme.stall_overhead(config),
        perf_overhead=scheme.performance_overhead(config),
        base_iteration_s=iteration_time_s(config, model),
    )


# -- attention_layout ---------------------------------------------------------


@dataclass(frozen=True)
class AttentionLayoutResult:
    """TenAnalyzer behaviour on one (layout, head_dim) attention point."""

    layout: str
    head_dim: int
    n_heads: int
    seq_len: int
    stride_detect: bool
    accesses: int
    trace_lines: int
    covered_fraction: float  #: distinct trace lines under a Meta Table entry
    hit_in: float
    hit_boundary: float
    hit_all: float
    write_violations: int
    insertions: int
    insertions_strided: int
    merges: int
    n_entries: int
    n_strided_entries: int

    def as_dict(self) -> dict:
        return {
            "layout": self.layout,
            "head_dim": self.head_dim,
            "n_heads": self.n_heads,
            "seq_len": self.seq_len,
            "stride_detect": self.stride_detect,
            "accesses": self.accesses,
            "trace_lines": self.trace_lines,
            "covered_fraction": self.covered_fraction,
            "hit_in": self.hit_in,
            "hit_boundary": self.hit_boundary,
            "hit_all": self.hit_all,
            "write_violations": self.write_violations,
            "insertions": self.insertions,
            "insertions_strided": self.insertions_strided,
            "merges": self.merges,
            "n_entries": self.n_entries,
            "n_strided_entries": self.n_strided_entries,
        }


def _covered_fraction(analyzer: TenAnalyzer, vaddrs) -> tuple[int, float]:
    """(distinct trace lines, fraction covered by resident entries)."""
    lines = {va - va % CACHELINE_BYTES for va in vaddrs}
    covered = sum(1 for va in lines if analyzer.table.entry_of(va) is not None)
    return len(lines), covered / len(lines) if lines else 0.0


@experiment(
    "attention_layout",
    tags=("scenario", "cpu", "sweep"),
    cost="fast",
    render="render_attention",
)
def attention_layout(
    layout: str = "head_major",
    head_dim: int = 64,
    n_heads: int = 8,
    seq_len: int = 128,
    block_q: int = 32,
    block_k: int = 32,
    stride_detect: bool = False,
) -> AttentionLayoutResult:
    """Replay one blockwise attention layer through the TenAnalyzer.

    ``head_major`` storage gives each head a private contiguous block, so
    per-head streams satisfy the paper's line-contiguity condition;
    ``interleaved`` storage (fused-projection feature dim) makes each
    head's stream run ``head_dim`` elements then skip the other heads —
    short runs the Tensor Filter cannot collect once the run drops below
    its collect target. The online-softmax rescale also rewrites O lines
    once per key block, so covering entries trip Assert1.
    """
    config = AttentionConfig(
        n_heads=n_heads,
        seq_len=seq_len,
        head_dim=head_dim,
        block_q=block_q,
        block_k=block_k,
    )
    registry = TensorRegistry(guard_bytes=PAGE_BYTES)
    tensors = build_attention_tensors(registry, config, layout)
    batch = attention_batch(tensors, config)
    vaddrs, kinds, _, _ = batch.columns()
    analyzer = TenAnalyzer(stride_detect=stride_detect)
    analyzer.replay_window(vaddrs, kinds)
    rates = analyzer.hit_rates()
    trace_lines, covered = _covered_fraction(analyzer, vaddrs)
    table_stats = analyzer.table.stats
    return AttentionLayoutResult(
        layout=layout,
        head_dim=head_dim,
        n_heads=n_heads,
        seq_len=seq_len,
        stride_detect=stride_detect,
        accesses=len(batch),
        trace_lines=trace_lines,
        covered_fraction=covered,
        hit_in=rates["hit_in"],
        hit_boundary=rates["hit_boundary"],
        hit_all=rates["hit_all"],
        write_violations=int(analyzer.stats["write_violation"]),
        insertions=int(table_stats["insertions"]),
        insertions_strided=int(table_stats["insertions_strided"]),
        merges=int(table_stats["merges"]),
        n_entries=analyzer.table.n_entries,
        n_strided_entries=analyzer.table.n_strided_entries,
    )


def render_attention(result: AttentionLayoutResult) -> str:
    table = ascii_table(
        ["layout", "head dim", "hit_in", "hit_all", "covered", "violations", "merges"],
        [
            (
                result.layout,
                result.head_dim,
                pct(result.hit_in),
                pct(result.hit_all),
                pct(result.covered_fraction),
                result.write_violations,
                result.merges,
            )
        ],
    )
    return (
        "Scenario — TenAnalyzer on a blockwise attention pass "
        f"({result.n_heads} heads, seq {result.seq_len}, "
        f"stride_detect={'on' if result.stride_detect else 'off'}, "
        f"{result.accesses} accesses)\n\n" + table
    )


# -- stride_detection ---------------------------------------------------------


@dataclass(frozen=True)
class StrideDetectionResult:
    """Detection accuracy on one constant-stride walk."""

    stride_lines: int
    rows: int
    detect: bool
    trace_lines: int
    covered_fraction: float  #: after the cold (detection) pass
    hit_all: float  #: warm-pass read hit rate
    detections: int
    stride_locks: int
    insertions_strided: int
    merges: int

    def as_dict(self) -> dict:
        return {
            "stride_lines": self.stride_lines,
            "rows": self.rows,
            "detect": self.detect,
            "trace_lines": self.trace_lines,
            "covered_fraction": self.covered_fraction,
            "hit_all": self.hit_all,
            "detections": self.detections,
            "stride_locks": self.stride_locks,
            "insertions_strided": self.insertions_strided,
            "merges": self.merges,
        }


@experiment(
    "stride_detection",
    tags=("scenario", "cpu", "sweep"),
    cost="fast",
    render="render_stride",
)
def stride_detection(
    stride_lines: int = 1, rows: int = 256, detect: bool = True
) -> StrideDetectionResult:
    """Cold + warm read passes over a stride-``stride_lines`` line walk.

    The walk is a width-one-line column slice of a ``(rows, stride_lines
    * elems_per_line)`` tensor: one line per row, consecutive lines
    ``stride_lines`` apart (``stride_lines=1`` degenerates to the
    contiguous stream every prior experiment used). The cold pass feeds
    detection; ``covered_fraction`` is how much of the walk ends up under
    Meta Table entries, and ``hit_all`` is the warm-pass hit rate those
    entries buy.
    """
    if stride_lines <= 0 or rows <= 0:
        raise ConfigError("stride_lines and rows must be positive")
    elems_per_line = CACHELINE_BYTES // DType.FP32.nbytes
    registry = TensorRegistry(guard_bytes=PAGE_BYTES)
    storage = registry.allocate(
        "stride.walk", (rows, stride_lines * elems_per_line), DType.FP32
    )
    view = storage.slice_(1, 0, elems_per_line, name="stride.walk.col")
    vaddrs = list(view.line_addresses())
    kinds = [KIND_READ] * len(vaddrs)
    analyzer = TenAnalyzer(stride_detect=detect)
    analyzer.replay_window(vaddrs, kinds)  # cold: detection
    trace_lines, covered = _covered_fraction(analyzer, vaddrs)
    analyzer.reset_rate_counters()
    analyzer.replay_window(vaddrs, kinds)  # warm: measure the benefit
    return StrideDetectionResult(
        stride_lines=stride_lines,
        rows=rows,
        detect=detect,
        trace_lines=trace_lines,
        covered_fraction=covered,
        hit_all=analyzer.hit_rates()["hit_all"],
        detections=int(analyzer.filter.stats["detections"]),
        stride_locks=int(analyzer.filter.stats["stride_locks"]),
        insertions_strided=int(analyzer.table.stats["insertions_strided"]),
        merges=int(analyzer.table.stats["merges"]),
    )


def render_stride(result: StrideDetectionResult) -> str:
    table = ascii_table(
        ["stride (lines)", "detect", "covered", "warm hit_all", "detections", "merges"],
        [
            (
                result.stride_lines,
                "on" if result.detect else "off",
                pct(result.covered_fraction),
                pct(result.hit_all),
                result.detections,
                result.merges,
            )
        ],
    )
    return (
        "Scenario — stream detection vs line stride "
        f"({result.rows} lines walked)\n\n" + table
    )


def render_mac(result: MacPolicyResult) -> str:
    table = ascii_table(
        ["scheme", "storage", "traffic", "stall", "perf overhead", "iteration (s)"],
        [
            (
                result.scheme,
                pct(result.storage_overhead),
                pct(result.traffic_overhead),
                pct(result.stall_overhead),
                pct(result.perf_overhead),
                fmt(result.secure_iteration_s, 3),
            )
        ],
    )
    return (
        "Scenario — MAC granularity x verification policy "
        f"(model {result.model})\n\n" + table
    )
