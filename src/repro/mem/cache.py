"""A set-associative write-back cache simulator with LRU replacement.

Used for the MEE metadata cache (Table 1: 32 KB). Functional-only: it
tracks presence and dirtiness, not contents (contents live in
:class:`repro.mem.backing.SimulatedDram`).

LRU replacement cannot be expressed as an array program — every access
depends on the state the previous access left behind — so the replay
loops (``cpu/metadata_model.py``, ``eval/scenarios.py``) win by stripping
per-access overhead: flat per-set ``dict`` state, plain-``int`` counters,
no per-line objects, a pop and a reinsert per touch. The SGX sampler also
skips touches that cannot reorder a set: when a set's two most recently
used lines are the two a slot re-touches, in that order, only their dirty
bits change, and it sets those in place (EXPERIMENTS.md, "SGX sampler
contract"). Replacement semantics are pinned against an independent
``OrderedDict`` reference in ``tests/oracles/`` (``tests/test_trace_batch.py``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigError
from repro.units import CACHELINE_BYTES


class LruCacheCore:
    """Flat LRU residency state for the metadata-cache replay loops.

    Python dicts preserve insertion order, so each set is a plain ``dict``
    mapping ``tag -> dirty``: re-inserting on hit is ``move_to_end``, and
    ``next(iter(d))`` is the LRU victim. Counters are plain ints.
    """

    __slots__ = ("n_sets", "ways", "sets", "hits", "misses", "evictions", "writebacks")

    def __init__(self, n_sets: int, ways: int) -> None:
        if n_sets <= 0 or ways <= 0:
            raise ConfigError("cache sets and associativity must be positive")
        self.n_sets = n_sets
        self.ways = ways
        self.sets: List[Dict[int, bool]] = [{} for _ in range(n_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    @classmethod
    def for_cache(cls, capacity_bytes: int, ways: int = 8, line_bytes: int = CACHELINE_BYTES):
        """Core for a ``capacity_bytes`` cache of ``ways``-way sets."""
        if capacity_bytes <= 0 or ways <= 0:
            raise ConfigError("cache capacity and associativity must be positive")
        n_lines = capacity_bytes // line_bytes
        if n_lines < ways:
            raise ConfigError("cache smaller than one set")
        return cls(max(1, n_lines // ways), ways)

    def touch(self, line: int, write: bool = False) -> bool:
        """Touch line index ``line``; returns hit/miss. Misses fill."""
        cache_set = self.sets[line % self.n_sets]
        tag = line // self.n_sets
        dirty = cache_set.pop(tag, None)
        if dirty is not None:
            cache_set[tag] = dirty or write
            self.hits += 1
            return True
        self.misses += 1
        if len(cache_set) >= self.ways:
            if cache_set.pop(next(iter(cache_set))):
                self.writebacks += 1
            self.evictions += 1
        cache_set[tag] = bool(write)
        return False

    def contains(self, line: int) -> bool:
        """Presence check without LRU update or fill."""
        return line // self.n_sets in self.sets[line % self.n_sets]

    def flush(self) -> int:
        """Empty every set; returns (and counts) dirty lines written back."""
        dirty = 0
        for cache_set in self.sets:
            dirty += sum(1 for d in cache_set.values() if d)
            cache_set.clear()
        self.writebacks += dirty
        return dirty
