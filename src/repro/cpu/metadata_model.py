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
    if not 0 <= write_fraction <= 1:
        raise ConfigError(f"write fraction must be within [0, 1], got {write_fraction}")
    levels = tree_levels(protected_lines)
    # Interleave `streams` sequential walks, spread across the region. The
    # stride is de-aliased (odd offset per stream) — real shard bases are
    # not power-of-two aligned, and exact alignment would make all streams
    # collide in the same metadata-cache sets.
    stride = max(1, protected_lines // streams)
    per_stream = max(1, sample_lines // streams)
    writes_every = max(2, round(1.0 / max(write_fraction, 1e-6)))
    stream_base = [stream * (stride + 137) for stream in range(streams)]

    core = LruCacheCore.for_cache(metadata_cache_bytes, ways=8)
    sets = core.sets
    n_sets = core.n_sets
    ways = core.ways
    tree_base = [TREE_BASE + (level << KEY_SHIFT) for level in range(levels + 1)]
    tree_write_base = tree_base[1]

    # The LRU replay cannot vectorize (each touch depends on the state the
    # previous one left), so the LruCacheCore.touch body is inlined at each
    # touch site: a dict pop + reinsert is move-to-end, next(iter(d)) is the
    # LRU victim. Only misses are counted: every touch hits or misses, so
    # the hits follow from the touch count at the end.
    #
    # A slot is one stream at one position. Most slots re-touch the VN line
    # V and MAC line M of the stream's previous slot. When V and M share a
    # set whose two most-recently-used tags are V then M, the slot's touches
    # of V and M (read V, read M and, on write positions, write V, write M)
    # all hit and leave that order as it was; only the dirty bits can change,
    # and assigning to an existing dict key keeps its position. Such a steady
    # slot sets those bits in place and skips the touches. T1, the first-level
    # tree line a write dirties, is touched as in every other slot. No cache
    # geometry is assumed: when V and M fall in different sets, the skip
    # never fires.
    misses = 0
    writebacks = 0
    read_txns = 0
    write_misses = 0
    dependent = 0
    # A stream's key is its VN line and the set objects and tags of its VN,
    # MAC and T1 lines. It holds for a visit: the run of positions until the
    # stream's walk enters a new VN or MAC line (every VNS_PER_LINE
    # positions, sooner when it wraps to line 0). ring[p % span] lists the
    # streams whose next visit starts at position p; no visit is longer than
    # the ring, so each stream sits in exactly one bucket.
    span = max(VNS_PER_LINE, MACS_PER_LINE)
    ring = [list(range(streams))] + [[] for _ in range(span - 1)]
    keys = [()] * streams
    for pos in range(per_stream):
        slot = pos % span
        due = ring[slot]
        if due:
            ring[slot] = []
            for stream in due:
                line = (pos + stream_base[stream]) % protected_lines
                vn = line // VNS_PER_LINE
                mac = MAC_BASE + line // MACS_PER_LINE
                t1 = tree_write_base + vn // TREE_ARITY
                keys[stream] = (
                    sets[vn % n_sets],
                    vn // n_sets,
                    sets[mac % n_sets],
                    mac // n_sets,
                    sets[t1 % n_sets],
                    t1 // n_sets,
                    vn,
                )
                visit = min(
                    VNS_PER_LINE - line % VNS_PER_LINE,
                    MACS_PER_LINE - line % MACS_PER_LINE,
                    protected_lines - line,
                )
                ring[(pos + visit) % span].append(stream)
        # One round of slots in stream order: the interleave is
        # position-major, stream-minor.
        is_write = pos % writes_every == 0
        for vn_set, vn_tag, mac_set, mac_tag, t1_set, t1_tag, vn_line in keys:
            if vn_set is mac_set:
                recent = reversed(vn_set)
                if next(recent, None) == mac_tag and next(recent, None) == vn_tag:
                    if is_write:
                        vn_set[vn_tag] = True
                        vn_set[mac_tag] = True
                        if t1_set.pop(t1_tag, None) is None:
                            misses += 1
                            write_misses += 1
                            if len(t1_set) >= ways:
                                if t1_set.pop(next(iter(t1_set))):
                                    writebacks += 1
                        t1_set[t1_tag] = True
                    continue
            # VN read.
            dirty = vn_set.pop(vn_tag, None)
            if dirty is not None:
                vn_set[vn_tag] = dirty
            else:
                misses += 1
                if len(vn_set) >= ways:
                    if vn_set.pop(next(iter(vn_set))):
                        writebacks += 1
                vn_set[vn_tag] = False
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
                        break
                    misses += 1
                    if len(cache_set) >= ways:
                        if cache_set.pop(next(iter(cache_set))):
                            writebacks += 1
                    cache_set[tag] = False
                    read_txns += 1
            # MAC read.
            dirty = mac_set.pop(mac_tag, None)
            if dirty is not None:
                mac_set[mac_tag] = dirty
            else:
                misses += 1
                if len(mac_set) >= ways:
                    if mac_set.pop(next(iter(mac_set))):
                        writebacks += 1
                mac_set[mac_tag] = False
                read_txns += 1
            if is_write:
                # Read-modify-write VN / MAC / first tree level: only fetch
                # misses count here; dirtied lines are written back when
                # evicted or flushed (8 neighbouring VNs share one line).
                for cache_set, tag in ((vn_set, vn_tag), (mac_set, mac_tag), (t1_set, t1_tag)):
                    if cache_set.pop(tag, None) is None:
                        misses += 1
                        write_misses += 1
                        if len(cache_set) >= ways:
                            if cache_set.pop(next(iter(cache_set))):
                                writebacks += 1
                    cache_set[tag] = True
    reads = per_stream * streams
    writes = streams * -(-per_stream // writes_every)
    writebacks_total = writebacks + core.flush()
    write_txns = write_misses + writebacks_total
    total = 2 * reads + 3 * writes + dependent
    hits = total - misses
    return MetaTraffic(
        read_txns_per_line=read_txns / max(1, reads),
        write_txns_per_line=write_txns / max(1, writes),
        dependent_levels_per_read=dependent / max(1, reads),
        metadata_hit_rate=hits / total if total else 0.0,
    )
