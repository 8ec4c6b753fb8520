"""The Meta Table: on-chip tensor structures with LRU capacity management.

Holds up to 512 entries (Sec. 6.5). Lookup distinguishes *hit-in* (the
request falls inside an entry's coverage) from *hit-boundary* (the request
is an entry's next-extension address). A read run inside one entry is one
step (:meth:`MetaTable.read_run`), and so is a write run inside one entry up
to and including the write that completes its tensor update
(:meth:`MetaTable.write_run`). Insertions and completions attempt the
Fig.-11 entry merging against a window of recently-updated entries;
capacity overflow evicts the LRU entry, syncing its VN back to the off-chip
per-line store.
"""

from __future__ import annotations

import enum
import random
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.cpu.tenanalyzer.entry import (
    EntryGeometry,
    MetaTableEntry,
    try_merge_geometries,
)
from repro.cpu.tenanalyzer.vn_store import OffChipVnStore
from repro.errors import ConfigError
from repro.sim.stats import Stats
from repro.units import CACHELINE_BYTES

LINE = CACHELINE_BYTES


class LookupKind(enum.Enum):
    """Read-path classification (Fig. 10)."""

    HIT_IN = "hit_in"
    HIT_BOUNDARY = "hit_boundary"
    MISS = "miss"


class MetaTable:
    """Entry storage with line/boundary indexes and merge orchestration."""

    def __init__(
        self,
        capacity: int = 512,
        merge_window: int = 8,
        vn_store: Optional[OffChipVnStore] = None,
        stats: Optional[Stats] = None,
        replacement: str = "random",
        seed: int = 0xC0FFEE,
    ) -> None:
        """``replacement`` is "random" (default) or "lru".

        Pseudo-random replacement avoids the pathological cyclic-thrash of
        strict LRU when the per-core shard entries of an iteration exceed
        capacity — with LRU no entry would ever survive until its next use,
        whereas random replacement lets a growing fraction persist, which is
        what produces the gradual hit_in convergence of Fig. 18.
        """
        if capacity < 1:
            raise ConfigError("Meta Table capacity must be positive")
        if merge_window < 1:
            raise ConfigError(f"merge window must be at least 1 entry, got {merge_window}")
        if replacement not in ("random", "lru"):
            raise ConfigError(f"unknown replacement policy {replacement!r}")
        self.capacity = capacity
        self.merge_window = merge_window
        self.replacement = replacement
        self._rng = random.Random(seed)
        self.vn_store = vn_store if vn_store is not None else OffChipVnStore()
        self.stats = stats if stats is not None else Stats("meta_table")
        self._entries: Dict[int, MetaTableEntry] = {}
        #: Covered line VA -> its entry's cell: a one-element list holding
        #: the entry, which every line of the entry shares, so a merge
        #: re-points only the lines of its smaller part (:meth:`_apply_merge`).
        self._line_map: Dict[int, List[MetaTableEntry]] = {}
        self._boundary_map: Dict[int, int] = {}  # boundary VA -> entry id
        #: Recently updated entry ids as an insertion-ordered dict (values
        #: unused), most recent last, at most ``4 * merge_window`` long.
        self._recent_updates: Dict[int, None] = {}
        self._recent_limit = 4 * merge_window
        self._next_id = 0
        self._tick = 0

    # -- indexing helpers ----------------------------------------------------

    def _index_entry(self, entry: MetaTableEntry) -> None:
        self._line_map.update(dict.fromkeys(entry.geometry.covered_lines(), [entry]))
        self._boundary_map[entry.geometry.boundary_va()] = entry.entry_id

    def _cell_of(self, entry: MetaTableEntry) -> List[MetaTableEntry]:
        """The cell of indexed ``entry`` (every entry covers its base line)."""
        return self._line_map[entry.geometry.base_va]

    def _unindex_entry(self, entry_id: int, entry: MetaTableEntry) -> None:
        # Resident entries never overlap (_admit steals collisions, a merge
        # covers exactly its two parts), so each covered line maps to this one.
        pop = self._line_map.pop
        for vaddr in entry.geometry.covered_lines():
            pop(vaddr)
        boundary = entry.geometry.boundary_va()
        if self._boundary_map.get(boundary) == entry_id:
            del self._boundary_map[boundary]

    def touch_run(self, entry: MetaTableEntry, n_lines: int = 1) -> None:
        """LRU effect of ``n_lines`` consecutive lookups of ``entry``."""
        self._tick += n_lines
        entry.lru_tick = self._tick
        self._note_updated(entry.entry_id)

    def _note_updated(self, entry_id: int) -> None:
        """Track recently-touched entries: the candidate window for merging.

        Merges are only *attempted* when a new entry is created (Sec. 4.2);
        the window makes a surviving neighbour (recently re-read) visible to
        the re-detected shard next to it, which is how sharded tensors
        consolidate across iterations.
        """
        recent = self._recent_updates
        recent.pop(entry_id, None)
        recent[entry_id] = None
        if len(recent) > self._recent_limit:
            del recent[next(iter(recent))]

    def _retire(self, entry_id: int) -> MetaTableEntry:
        """Take ``entry_id`` out of the table and the merge window (the
        caller unindexes or re-points its lines)."""
        self._recent_updates.pop(entry_id, None)
        return self._entries.pop(entry_id)

    # -- lookup ---------------------------------------------------------------

    def lookup(self, vaddr: int) -> Tuple[LookupKind, Optional[MetaTableEntry]]:
        """Classify one request address against the table."""
        entry, n = self.read_run(vaddr, 1)
        if n:
            return LookupKind.HIT_IN, entry
        entry_id = self._boundary_map.get(vaddr)
        if entry_id is not None:
            entry = self._entries[entry_id]
            self.touch_run(entry)
            return LookupKind.HIT_BOUNDARY, entry
        return LookupKind.MISS, None

    def entry_of(self, vaddr: int) -> Optional[MetaTableEntry]:
        """Covering entry without LRU side effects."""
        cell = self._line_map.get(vaddr)
        return cell[0] if cell is not None else None

    # -- run steps (Figs. 10 and 12) -------------------------------------------

    def read_run(self, vaddr: int, n_lines: int) -> Tuple[Optional[MetaTableEntry], int]:
        """Fig. 10 hit-in, one run at a time.

        Returns the entry covering ``vaddr`` and how many of the ``n_lines``
        lines from ``vaddr`` it covers, and gives them the LRU and
        merge-window effect of that many hit-in lookups; ``(None, 0)``
        (nothing changed) when ``vaddr`` is uncovered. Every covered line of
        a resident entry maps to that entry in the line index, so the count
        comes from the entry's geometry in O(1).
        """
        cell = self._line_map.get(vaddr)
        if cell is None:
            return None, 0
        entry = cell[0]
        n = entry.geometry.run_from(vaddr)
        if n > n_lines:
            n = n_lines
        # touch_run and _note_updated, inlined: this is the hottest step.
        self._tick += n
        entry.lru_tick = self._tick
        recent, entry_id = self._recent_updates, entry.entry_id
        recent.pop(entry_id, None)
        recent[entry_id] = None
        if len(recent) > self._recent_limit:
            del recent[next(iter(recent))]
        return entry, n

    def write_run(self, vaddr: int, n_lines: int) -> Tuple[int, int, int, bool]:
        """Fig. 12 for covered writes, one run at a time.

        Writes the lines of the ``n_lines`` from ``vaddr`` that the entry
        covering ``vaddr`` covers, stopping before a line already flipped
        this round (Assert1) and after the line that completes the tensor
        update. Returns ``(vn, written, edges, completed)``: the VN the
        written lines are encrypted under, how many were written, how many
        of them per-line writes classify as hit-edge, and whether the last
        one completed the update. A completing write counts as hit-edge
        wherever it falls; it increments the entry VN, resets UF and the
        bitmap, and then attempts the completion merge.

        ``written == 0`` (nothing changed) leaves ``vaddr`` to the caller:
        no entry covers it, or it is an Assert1 violation.
        """
        cell = self._line_map.get(vaddr)
        if cell is None:
            return 0, 0, 0, False
        entry = cell[0]
        geometry, flipped = entry.geometry, entry.flipped
        n = geometry.run_from(vaddr)
        if n > n_lines:
            n = n_lines
        if flipped:
            lines = range(vaddr, vaddr + n * LINE, LINE)
            if not flipped.isdisjoint(lines):
                n = next(i for i, line in enumerate(lines) if line in flipped)
                if not n:
                    return 0, 0, 0, False
        vn = entry.vn + 1
        base, last = geometry.base_va, geometry.last_line_va
        left = geometry.n_lines - len(flipped)  # writes until completion
        if n < left:
            end = vaddr + n * LINE
            entry.updating = True  # UF := 1 (start updating, any position)
            flipped.update(range(vaddr, end, LINE))
            return vn, n, (vaddr <= base < end) + (vaddr <= last < end), False
        # The left-th line completes the update (the Assert2 condition): the
        # lines before it are flipped and cleared again at once.
        end = vaddr + (left - 1) * LINE
        edges = (vaddr <= base < end) + (vaddr <= last < end) + 1
        entry.vn = vn
        flipped.clear()
        entry.updating = False
        # Completion is when an entry becomes "recently updated" in the
        # paper's sense; neighbouring shards of the same tensor complete
        # within a few bursts of each other, so this is where sharded
        # streaming tensors consolidate. Completion merges are single-entry
        # attempts (no window sweep): consolidation of a fully sharded
        # tensor takes several iterations, the gradual hit_in convergence
        # of Fig. 18.
        self._note_updated(entry.entry_id)
        self._merge_against_window(entry.entry_id)
        return vn, left, edges, True

    # -- mutation ---------------------------------------------------------------

    def extend_run(self, vaddr: int, n_lines: int) -> Tuple[Optional[MetaTableEntry], int]:
        """Fig. 10 hit-boundary, one streak at a time.

        When uncovered ``vaddr`` is an entry's boundary, grows that entry
        over the longest streak of the ``n_lines`` lines from ``vaddr`` that
        per-line boundary reads would each extend by one line, and returns
        ``(entry, streak)``. The streak stops before the first line that

        - has an off-chip VN other than the entry VN (a mispredict);
        - another entry covers;
        - no longer is the boundary: a strided entry's boundary jumps to
          the next row once the current row is complete.

        The table is left as ``streak`` :meth:`lookup` + :meth:`extend`
        pairs leave it. ``(entry, 0)`` (the first line mispredicts) and
        ``(None, 0)`` (``vaddr`` is no boundary) change nothing.
        """
        entry_id = self._boundary_map.get(vaddr)
        if entry_id is None:
            return None, 0
        entry = self._entries[entry_id]
        geometry = entry.geometry
        if not geometry.extensible_run:
            n_lines = min(n_lines, geometry.run_lines - geometry.tail_lines)
        vn, line_map, read = entry.vn, self._line_map, self.vn_store.read
        streak = 0
        for line in range(vaddr, vaddr + n_lines * LINE, LINE):
            if read(line) != vn or line in line_map:
                break
            streak += 1
        if streak:
            self.touch_run(entry, streak)
            self.extend(entry, streak)
        return entry, streak

    def extend(self, entry: MetaTableEntry, n_lines: int = 1) -> None:
        """Grow an entry by ``n_lines`` lines at its boundary (verified by
        the caller: uncovered, and the boundary stays the next line until
        the last of them)."""
        entry_id = self._id_of(entry)
        boundary_map = self._boundary_map
        old_boundary = entry.geometry.boundary_va()
        if boundary_map.get(old_boundary) == entry_id:
            del boundary_map[old_boundary]
        grown = range(old_boundary, old_boundary + n_lines * LINE, LINE)
        # One line at a time, each intermediate boundary would be claimed
        # for this entry and then released, whoever held it before.
        for line in grown[1:]:
            boundary_map.pop(line, None)
        entry.geometry.extend(n_lines)
        self._line_map.update(dict.fromkeys(grown, self._cell_of(entry)))
        new_boundary = entry.geometry.boundary_va()
        if new_boundary not in self._line_map:
            boundary_map[new_boundary] = entry_id
        self.stats.add("extensions", n_lines)
        self._note_updated(entry_id)

    def insert(self, geometry: EntryGeometry, vn: int, source: str = "filter") -> MetaTableEntry:
        """Add a detected entry, merging with recent neighbours when possible."""
        entry = MetaTableEntry(geometry=geometry, vn=vn, source=source)
        entry_id = self._admit(entry)
        self.stats.add("insertions")
        if geometry.count > 1:
            # Strided (2D) detections tracked separately: layout sweeps
            # compare how much coverage arrives as strided vs. 1D entries.
            self.stats.add("insertions_strided")
        merged = self._attempt_merges(entry_id)
        return self._entries[merged]

    def _admit(self, entry: MetaTableEntry) -> int:
        # Steal coverage collisions: a new detection overlapping an existing
        # entry invalidates the stale one (conservative, keeps maps 1:1).
        overlapping = {
            self._line_map[va][0].entry_id
            for va in entry.geometry.covered_lines()
            if va in self._line_map
        }
        for stale_id in overlapping:
            self.invalidate(self._entries[stale_id], reason="overlap")
        while len(self._entries) >= self.capacity:
            if self.replacement == "random":
                victim_id = self._rng.choice(list(self._entries))
            else:
                victim_id = min(self._entries, key=lambda i: self._entries[i].lru_tick)
            self._evict(victim_id)
        entry_id = self._next_id
        self._next_id += 1
        self._entries[entry_id] = entry
        entry.entry_id = entry_id
        self._tick += 1
        entry.lru_tick = self._tick
        entry.created_tick = self._tick
        self._index_entry(entry)
        self._note_updated(entry_id)
        return entry_id

    def _attempt_merges(self, entry_id: int) -> int:
        """Try merging within the recently-touched window (new entry first).

        Triggered only on entry creation (Sec. 4.2: "attempts to merge a few
        recently updated entries when creating new entries"). After the new
        entry's own merges, one sweep over window pairs picks up bands whose
        coverage completed since their creation (Fig. 11b tiling).
        """
        current_id = self._merge_against_window(entry_id)
        for candidate_id in list(islice(reversed(self._recent_updates), self.merge_window)):
            if candidate_id in self._entries and candidate_id != current_id:
                merged_to = self._merge_against_window(candidate_id)
                if current_id not in self._entries:
                    current_id = merged_to
        return current_id

    def _merge_against_window(self, entry_id: int) -> int:
        entries, width = self._entries, self.merge_window
        current_id = entry_id
        current = entries[current_id]
        while current.mergeable:
            # The ``width`` most recent ids other than the current one.
            window = list(islice(reversed(self._recent_updates), width + 1))
            if current_id in window:
                window.remove(current_id)
            else:
                del window[width:]
            for other_id in window:
                other = entries.get(other_id)
                if (
                    other is None
                    or other is current
                    or other.vn != current.vn
                    or not other.mergeable
                ):
                    continue
                combined = try_merge_geometries(current.geometry, other.geometry)
                if combined is not None:
                    current_id = self._apply_merge(current_id, other_id, combined)
                    self.stats.add("merges")
                    current = entries[current_id]
                    break
            else:
                break
        return current_id

    def _apply_merge(self, a_id: int, b_id: int, combined: EntryGeometry) -> int:
        """Replace parts ``a_id`` and ``b_id`` by one entry under a fresh id.

        A fresh id keeps a merged-away part dead for callers that hold its
        id (:meth:`_attempt_merges` scans a snapshot of the window). A
        merge covers exactly the union of its two disjoint parts, so the
        merged entry takes over the cell of the part with more lines and
        only the other part's lines are re-pointed at it: the index ends as
        unindexing both parts and indexing the merged entry would leave it.
        """
        a, b = self._retire(a_id), self._retire(b_id)
        boundary_map = self._boundary_map
        for stale_id, stale in ((a_id, a), (b_id, b)):
            boundary = stale.geometry.boundary_va()
            if boundary_map.get(boundary) == stale_id:
                del boundary_map[boundary]
        merged = MetaTableEntry(geometry=combined, vn=a.vn, mac=a.mac ^ b.mac, source="merge")
        merged_id = self._next_id
        self._next_id += 1
        self._entries[merged_id] = merged
        merged.entry_id = merged_id
        self._tick += 1
        merged.lru_tick = self._tick
        large, small = (a, b) if a.geometry.n_lines >= b.geometry.n_lines else (b, a)
        cell = self._cell_of(large)
        cell[0] = merged
        self._line_map.update(dict.fromkeys(small.geometry.covered_lines(), cell))
        boundary_map[combined.boundary_va()] = merged_id
        self._note_updated(merged_id)
        return merged_id

    def invalidate(self, entry: MetaTableEntry, reason: str = "assert") -> int:
        """Drop an entry, syncing per-line VNs off-chip; returns sync count."""
        entry_id = self._id_of(entry)
        if entry.flipped:
            synced = 0
            for vaddr, vn in entry.per_line_vns():
                if self.vn_store.read(vaddr) != vn:
                    self.vn_store.set(vaddr, vn)
                    synced += 1
        else:
            synced = self.vn_store.sync(entry.geometry.covered_lines(), entry.vn)
        self._unindex_entry(entry_id, entry)
        self._retire(entry_id)
        self.stats.add(f"invalidations_{reason}")
        self.stats.add("sync_lines", synced)
        return synced

    def _evict(self, entry_id: int) -> None:
        entry = self._entries[entry_id]
        self.invalidate(entry, reason="eviction")
        self.stats.add("evictions")

    def _id_of(self, entry: MetaTableEntry) -> int:
        if self._entries.get(entry.entry_id) is entry:
            return entry.entry_id
        raise KeyError("entry not resident in table")

    # -- introspection ----------------------------------------------------------

    @property
    def n_entries(self) -> int:
        return len(self._entries)

    @property
    def n_strided_entries(self) -> int:
        """Resident entries with a multi-run (strided) geometry."""
        return sum(1 for e in self._entries.values() if e.geometry.count > 1)

    def entries(self) -> List[MetaTableEntry]:
        return list(self._entries.values())

    def covering_range(self, base_va: int, n_lines: int) -> Optional[MetaTableEntry]:
        """Entry covering every line of the contiguous range, or None."""
        entry = self.entry_of(base_va)
        if entry is None or not 0 < n_lines <= entry.geometry.run_from(base_va):
            return None
        return entry
