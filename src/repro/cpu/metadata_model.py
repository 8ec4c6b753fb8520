"""SGX-baseline metadata traffic accounting.

Runs the real 32 KB metadata-cache simulator over a sampled streaming
window to measure, per data cacheline, how many *extra* DRAM transactions
the SGX-like MEE issues: VN-line fetches and write-backs, MAC-line fetches
and write-backs, and Merkle-tree node reads/updates down to the first
cached level (Sec. 2.2). The measured rates drive the Fig. 3 / Fig. 19
timing model; the per-byte cost of those scattered transactions is the
``metadata_txn_cost`` calibration constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.mem.cache import LruCacheCore
from repro.mem.metadata_cache import KEY_SHIFT, MAC_BASE, TREE_BASE
from repro.units import KiB

#: VNs per metadata line: 56-bit VN -> 8 per 64-byte line (Sec. 2.2).
VNS_PER_LINE = 8
#: MACs per metadata line: 56-bit MAC -> 8 per 64-byte line.
MACS_PER_LINE = 8
#: Merkle tree arity (8-ary, Table 1 baseline).
TREE_ARITY = 8


@dataclass(frozen=True)
class MetaTraffic:
    """Measured per-data-line metadata behaviour."""

    read_txns_per_line: float  # extra DRAM transactions per read line
    write_txns_per_line: float  # extra DRAM transactions per write line
    dependent_levels_per_read: float  # serialized tree-walk depth per read
    metadata_hit_rate: float

    def txns_per_line(self, write_fraction: float) -> float:
        """Blend read/write transaction rates."""
        if not 0 <= write_fraction <= 1:
            raise ConfigError("write fraction must be within [0, 1]")
        return (
            (1 - write_fraction) * self.read_txns_per_line
            + write_fraction * self.write_txns_per_line
        )


def tree_levels(protected_lines: int) -> int:
    """Merkle levels above the VN lines for a protected region."""
    vn_lines = max(1, protected_lines // VNS_PER_LINE)
    levels = 0
    width = vn_lines
    while width > 1:
        width = -(-width // TREE_ARITY)
        levels += 1
    return max(1, levels)


def measure_sgx_metadata(
    protected_bytes: int,
    sample_lines: int = 200_000,
    write_fraction: float = 0.45,
    metadata_cache_bytes: int = 32 * KiB,
    streams: int = 8,
) -> MetaTraffic:
    """Stream ``sample_lines`` data lines through the metadata cache.

    ``streams`` parallel sequential streams model the per-thread Adam shards;
    their interleaving is what defeats the 32 KB metadata cache at the upper
    tree levels for large protected regions.
    """
    if protected_bytes <= 0 or sample_lines <= 0:
        raise ConfigError("protected region and sample must be positive")
    protected_lines = protected_bytes // 64
    if protected_lines <= 0:
        raise ConfigError("protected region smaller than one cacheline")
    if streams <= 0:
        raise ConfigError(f"streams must be positive, got {streams}")
    levels = tree_levels(protected_lines)
    # Interleave `streams` sequential walks, spread across the region. The
    # stride is de-aliased (odd offset per stream) — real shard bases are
    # not power-of-two aligned, and exact alignment would make all streams
    # collide in the same metadata-cache sets.
    stride = max(1, protected_lines // streams)
    per_stream = max(1, sample_lines // streams)
    writes_every = max(2, round(1.0 / max(write_fraction, 1e-6)))

    # Interleave-order address grid: position-major, stream-minor.
    pos = np.arange(per_stream, dtype=np.int64)[:, None]
    stream = np.arange(streams, dtype=np.int64)[None, :]
    line = (stream * stride + stream * 137 + pos) % protected_lines
    vn_lines = (line // VNS_PER_LINE).ravel().tolist()
    mac_lines = (line // MACS_PER_LINE).ravel().tolist()

    core = LruCacheCore.for_cache(metadata_cache_bytes, ways=8)
    sets = core.sets
    n_sets = core.n_sets
    ways = core.ways
    tree_base = [TREE_BASE + (level << KEY_SHIFT) for level in range(levels + 1)]
    tree_write_base = tree_base[1]

    # The LRU replay cannot vectorize (each access depends on the state the
    # previous one left) and is the single hottest path of the whole repro
    # run (the Fig. 3/16/19 SGX baselines stream ~0.5M cache touches per
    # call), so the LruCacheCore.touch body is inlined at each touch site:
    # a dict pop + reinsert is move-to-end, next(iter(d)) is the LRU victim.
    hits = 0
    misses = 0
    writebacks = 0
    read_txns = 0
    write_misses = 0
    dependent = 0
    writes = 0
    i = 0
    for position in range(per_stream):
        is_write_position = position % writes_every == 0
        for _ in range(streams):
            vn_line = vn_lines[i]
            mac_line = mac_lines[i]
            i += 1
            # VN read.
            cache_set = sets[vn_line % n_sets]
            tag = vn_line // n_sets
            dirty = cache_set.pop(tag, None)
            if dirty is not None:
                cache_set[tag] = dirty
                hits += 1
            else:
                misses += 1
                if len(cache_set) >= ways:
                    if cache_set.pop(next(iter(cache_set))):
                        writebacks += 1
                cache_set[tag] = False
                read_txns += 1
                # Walk the tree until a cached (already-verified) node.
                node = vn_line
                for level in range(1, levels + 1):
                    node //= TREE_ARITY
                    dependent += 1
                    key = tree_base[level] + node
                    cache_set = sets[key % n_sets]
                    tag = key // n_sets
                    dirty = cache_set.pop(tag, None)
                    if dirty is not None:
                        cache_set[tag] = dirty
                        hits += 1
                        break
                    misses += 1
                    if len(cache_set) >= ways:
                        if cache_set.pop(next(iter(cache_set))):
                            writebacks += 1
                    cache_set[tag] = False
                    read_txns += 1
            # MAC read.
            key = MAC_BASE + mac_line
            cache_set = sets[key % n_sets]
            tag = key // n_sets
            dirty = cache_set.pop(tag, None)
            if dirty is not None:
                cache_set[tag] = dirty
                hits += 1
            else:
                misses += 1
                if len(cache_set) >= ways:
                    if cache_set.pop(next(iter(cache_set))):
                        writebacks += 1
                cache_set[tag] = False
                read_txns += 1
            if is_write_position:
                writes += 1
                # Read-modify-write VN / MAC / first tree level: only fetch
                # misses count here; dirtied lines are written back when
                # evicted or flushed (8 neighbouring VNs share one line).
                for key in (vn_line, MAC_BASE + mac_line, tree_write_base + vn_line // TREE_ARITY):
                    cache_set = sets[key % n_sets]
                    tag = key // n_sets
                    dirty = cache_set.pop(tag, None)
                    if dirty is not None:
                        cache_set[tag] = True
                        hits += 1
                    else:
                        misses += 1
                        if len(cache_set) >= ways:
                            if cache_set.pop(next(iter(cache_set))):
                                writebacks += 1
                        cache_set[tag] = True
                        write_misses += 1
    reads = per_stream * streams
    writebacks_total = writebacks + core.flush()
    write_txns = write_misses + writebacks_total
    total = hits + misses
    return MetaTraffic(
        read_txns_per_line=read_txns / max(1, reads),
        write_txns_per_line=write_txns / max(1, writes),
        dependent_levels_per_read=dependent / max(1, reads),
        metadata_hit_rate=hits / total if total else 0.0,
    )
