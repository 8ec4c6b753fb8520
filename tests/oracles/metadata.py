"""Metadata-cache references: an OrderedDict LRU and the loops over it.

The cache is byte-addressed and keeps each metadata object at its
synthetic address ``(kind * 8 + level) * REGION_STRIDE + index * 64``, so
the production replay loops' line-index keys (``KEY_SHIFT``,
``MAC_BASE``, ``TREE_BASE``) are checked against the address layout
rather than reused. Result classes are looked up on their modules at call
time: some tests reload the experiment modules, which replaces the
classes, and dataclass equality needs the same class on both sides.
"""

from __future__ import annotations

import random
from collections import Counter, OrderedDict
from typing import Dict

from repro.cpu import metadata_model
from repro.cpu.metadata_model import MACS_PER_LINE, TREE_ARITY, VNS_PER_LINE
from repro.eval import scenarios
from repro.mem.metadata_cache import REGION_STRIDE, MetadataKind
from repro.units import CACHELINE_BYTES, KiB


class SetAssocLru:
    """Write-back set-associative cache with LRU replacement over byte addresses."""

    def __init__(self, capacity_bytes: int, ways: int, line_bytes: int = CACHELINE_BYTES):
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = max(1, capacity_bytes // line_bytes // ways)
        self.sets: Dict[int, OrderedDict] = {}  # set index -> tag -> dirty, LRU first
        self.hits = self.misses = self.evictions = self.writebacks = 0

    def _locate(self, addr: int):
        line = addr // self.line_bytes
        return self.sets.setdefault(line % self.n_sets, OrderedDict()), line // self.n_sets

    def access(self, addr: int, write: bool = False) -> bool:
        """Touch ``addr``; returns hit/miss. Misses fill, evicting the LRU line."""
        cache_set, tag = self._locate(addr)
        if tag in cache_set:
            cache_set.move_to_end(tag)
            cache_set[tag] = cache_set[tag] or write
            self.hits += 1
            return True
        self.misses += 1
        if len(cache_set) >= self.ways:
            _, dirty = cache_set.popitem(last=False)
            self.evictions += 1
            self.writebacks += dirty
        cache_set[tag] = write
        return False

    def contains(self, addr: int) -> bool:
        cache_set, tag = self._locate(addr)
        return tag in cache_set

    def flush(self) -> int:
        """Empty the cache; returns (and counts) the dirty lines written back."""
        dirty = sum(d for cache_set in self.sets.values() for d in cache_set.values())
        self.sets.clear()
        self.writebacks += dirty
        return dirty

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class MetadataCache:
    """VN/MAC/Merkle-node cache with per-kind hit/miss tallies."""

    def __init__(self, capacity_bytes: int = 32 * KiB, ways: int = 8) -> None:
        self.lru = SetAssocLru(capacity_bytes, ways)
        self.kind_hits: Counter = Counter()
        self.kind_misses: Counter = Counter()

    @staticmethod
    def address(kind: MetadataKind, index: int, level: int = 0) -> int:
        return (kind.value * 8 + level) * REGION_STRIDE + index * CACHELINE_BYTES

    def access(self, kind: MetadataKind, index: int, level: int = 0, write: bool = False) -> bool:
        hit = self.lru.access(self.address(kind, index, level), write=write)
        (self.kind_hits if hit else self.kind_misses)[kind] += 1
        return hit

    def covered_level(self, vn_line_index: int, levels: int, arity: int = 8) -> int:
        """Lowest cached Merkle level above a VN line; ``levels`` when none is."""
        node = vn_line_index
        for level in range(1, levels):
            node //= arity
            if self.lru.contains(self.address(MetadataKind.TREE, node, level)):
                return level
        return levels


def measure_sgx_metadata(
    protected_bytes: int,
    sample_lines: int = 200_000,
    write_fraction: float = 0.45,
    metadata_cache_bytes: int = 32 * KiB,
    streams: int = 8,
) -> metadata_model.MetaTraffic:
    """Reference of :func:`repro.cpu.metadata_model.measure_sgx_metadata`."""
    protected_lines = protected_bytes // 64
    levels = metadata_model.tree_levels(protected_lines)
    cache = MetadataCache(capacity_bytes=metadata_cache_bytes)
    stride = max(1, protected_lines // streams)
    read_txns = write_misses = dependent = reads = writes = 0
    per_stream = max(1, sample_lines // streams)
    writes_every = max(2, round(1.0 / max(write_fraction, 1e-6)))
    for position in range(per_stream):
        for stream in range(streams):
            line = (stream * stride + stream * 137 + position) % protected_lines
            vn_line = line // VNS_PER_LINE
            mac_line = line // MACS_PER_LINE
            reads += 1
            if not cache.access(MetadataKind.VN, vn_line):
                read_txns += 1
                node = vn_line
                for level in range(1, levels + 1):
                    node //= TREE_ARITY
                    dependent += 1
                    if cache.access(MetadataKind.TREE, node, level=level):
                        break
                    read_txns += 1
            if not cache.access(MetadataKind.MAC, mac_line):
                read_txns += 1
            if position % writes_every == 0:
                writes += 1
                if not cache.access(MetadataKind.VN, vn_line, write=True):
                    write_misses += 1
                if not cache.access(MetadataKind.MAC, mac_line, write=True):
                    write_misses += 1
                if not cache.access(MetadataKind.TREE, vn_line // TREE_ARITY, level=1, write=True):
                    write_misses += 1
    write_txns = write_misses + cache.lru.writebacks + cache.lru.flush()
    return metadata_model.MetaTraffic(
        read_txns_per_line=read_txns / max(1, reads),
        write_txns_per_line=write_txns / max(1, writes),
        dependent_levels_per_read=dependent / max(1, reads),
        metadata_hit_rate=cache.lru.hit_rate,
    )


def mee_cache_geometry(
    capacity_kib: int = 32,
    ways: int = 8,
    tensors: int = 48,
    lines_per_tensor: int = 32,
    iterations: int = 4,
    seed: int = 2024,
) -> scenarios.MeeGeometryResult:
    """Reference of :func:`repro.eval.scenarios.mee_cache_geometry`."""
    cache = MetadataCache(capacity_bytes=capacity_kib * KiB, ways=ways)
    vn_lines = tensors * lines_per_tensor
    levels = scenarios._tree_levels(vn_lines)
    rng = random.Random(seed)
    covered_total = 0
    covered_samples = 0
    order = list(range(tensors))
    for _ in range(iterations):
        rng.shuffle(order)
        for tensor in order:
            for index in range(tensor * lines_per_tensor, (tensor + 1) * lines_per_tensor):
                # Read path: VN + MAC fetch, tree walk to the covered level.
                cache.access(MetadataKind.VN, index)
                cache.access(MetadataKind.MAC, index)
                covered = cache.covered_level(index, levels)
                covered_total += covered
                covered_samples += 1
                node = index
                for level in range(1, covered + 1):
                    node //= 8
                    cache.access(MetadataKind.TREE, node, level=level)
                # Write-back: VN bump + fresh MAC, tree path re-hashed to the root.
                cache.access(MetadataKind.VN, index, write=True)
                cache.access(MetadataKind.MAC, index, write=True)
                node = index
                for level in range(1, levels):
                    node //= 8
                    cache.access(MetadataKind.TREE, node, level=level, write=True)
    kind_hit_rates = {}
    for kind in MetadataKind:
        total = cache.kind_hits[kind] + cache.kind_misses[kind]
        kind_hit_rates[kind.name.lower()] = cache.kind_hits[kind] / total if total else 0.0
    return scenarios.MeeGeometryResult(
        capacity_kib=capacity_kib,
        ways=ways,
        capacity_lines=capacity_kib * KiB // 64,
        vn_lines=vn_lines,
        levels=levels,
        accesses=cache.lru.hits + cache.lru.misses,
        hit_rate=cache.lru.hit_rate,
        kind_hit_rates=kind_hit_rates,
        mean_covered_level=covered_total / max(covered_samples, 1),
    )
