"""The Tensor Filter: cold-stream pattern collection (Fig. 10).

Meta Table misses land here. Each filter entry collects up to
``collect_target`` line addresses of one candidate stream; when full, the
addresses are checked for the tensor condition — consecutive lines with the
same off-chip VN — and a fresh Meta Table entry is initialised from them.
The filter is tiny (10 entries, Table in Sec. 6.5) because kernels touch few
tensors concurrently; LRU eviction discards noise streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cpu.tenanalyzer.entry import MAX_STRIDE_LINES, EntryGeometry
from repro.sim.stats import Stats
from repro.units import CACHELINE_BYTES

LINE = CACHELINE_BYTES


def _stream_geometry(base_va: int, run: int, stride_lines: int) -> EntryGeometry:
    """Geometry of one detected run: 1D when unit-stride, strided otherwise."""
    if stride_lines == 1:
        return EntryGeometry(
            base_va=base_va,
            run_lines=run,
            stride_lines=run,
            count=1,
            extensible_run=True,
        )
    return EntryGeometry(
        base_va=base_va,
        run_lines=1,
        stride_lines=stride_lines,
        count=run,
        extensible_run=False,
    )


def _detect_strided(
    vaddrs: Sequence[int], vns: Sequence[int], min_run: int
) -> List[tuple[EntryGeometry, int]]:
    """Maximal constant-stride (arithmetic-progression) run scan.

    A run is a maximal sequence of line-aligned addresses with one locked
    positive line stride (any multiple of the line size up to
    :data:`MAX_STRIDE_LINES` — the Meta Table's stride field width) and
    one shared VN. Alternating-stride patterns (e.g. run-2-skip-6 from a
    sliced row walk) break into sub-``min_run`` pieces and stay
    undetected — that is the realistic accuracy degradation the layout
    sweeps measure. Runs never share elements, so the resulting entries
    never overlap. State-serial by nature.
    """
    total = len(vaddrs)
    streams: List[tuple[EntryGeometry, int]] = []
    start = 0
    locked = 0  # locked byte stride; 0 = not locked yet

    def emit(start: int, stop: int, stride: int) -> bool:
        run = stop - start
        if run < min_run or stride == 0:
            return False
        streams.append((_stream_geometry(vaddrs[start], run, stride // LINE), vns[start]))
        return True

    for i in range(1, total + 1):
        if i < total:
            diff = vaddrs[i] - vaddrs[i - 1]
            valid = (
                diff > 0
                and diff % LINE == 0
                and diff // LINE <= MAX_STRIDE_LINES
                and vns[i] == vns[i - 1]
            )
            if valid and (locked == 0 or diff == locked):
                locked = diff
                continue
            if valid:
                # Stride changed: close the run; the boundary element seeds
                # the next run only when the closed run was too short to
                # emit (emitted runs must not overlap the next entry).
                if emit(start, i, locked):
                    start = i
                    locked = 0
                else:
                    start = i - 1
                    locked = diff
                continue
        emit(start, i, locked)
        start = i
        locked = 0
    return streams


def detect_streams(
    vaddrs: Sequence[int],
    vns: Sequence[int],
    min_run: int = 4,
    detect_strides: bool = False,
) -> List[tuple[EntryGeometry, int]]:
    """Batch tensor-condition scan over a whole (address, VN) trace.

    Finds every maximal run of line-contiguous addresses sharing one VN —
    the same condition :meth:`TensorFilter.observe` checks one miss at a
    time — and returns ``(geometry, vn)`` per run of at least ``min_run``
    lines. The scan reduces to two array diffs.

    ``detect_strides=True`` relaxes the contiguity condition to *any*
    constant line stride (up to the Meta Table's representable
    :data:`MAX_STRIDE_LINES`), returning strided geometries for
    non-unit-stride runs — see :func:`_detect_strided`.
    """
    if len(vaddrs) != len(vns):
        raise ValueError("vaddrs and vns must pair up one per access")
    total = len(vaddrs)
    if total == 0:
        return []
    if detect_strides:
        return _detect_strided(vaddrs, vns, min_run)

    def stream(start: int, run: int) -> tuple[EntryGeometry, int]:
        geometry = EntryGeometry(
            base_va=vaddrs[start],
            run_lines=run,
            stride_lines=run,
            count=1,
            extensible_run=True,
        )
        return geometry, vns[start]

    va = np.asarray(vaddrs, dtype=np.int64)
    vn = np.asarray(vns, dtype=np.int64)
    breaks = np.flatnonzero((np.diff(va) != LINE) | (np.diff(vn) != 0))
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks + 1, [total]))
    runs = ends - starts
    keep = np.flatnonzero(runs >= min_run)
    return [stream(int(starts[i]), int(runs[i])) for i in keep]


@dataclass
class FilterEntry:
    """One in-flight candidate stream."""

    base_va: int
    vn: int
    collected: int = 1
    lru_tick: int = 0
    #: Locked line stride of the candidate (1 = contiguous). Stride-aware
    #: collection locks it on the second observation; the default filter
    #: never changes it.
    stride_lines: int = 1

    @property
    def next_va(self) -> int:
        return self.base_va + self.collected * self.stride_lines * LINE


class TensorFilter:
    """Collects read-miss addresses and proposes Meta Table entries.

    ``stride_detect=True`` additionally locks a constant line stride onto
    a one-miss-old candidate (the second miss of a stream defines its
    stride, the way transfer descriptors carry ``(address, size,
    stride)``), so non-unit-stride streams can still reach the
    ``collect_target`` and seed strided Meta Table entries. Off by
    default: the paper's filter checks strict line contiguity.
    """

    def __init__(
        self,
        n_entries: int = 10,
        collect_target: int = 4,
        stats: Optional[Stats] = None,
        stride_detect: bool = False,
        max_stride_lines: int = MAX_STRIDE_LINES,
    ) -> None:
        self.n_entries = n_entries
        self.collect_target = collect_target
        self.stats = stats if stats is not None else Stats("tensor_filter")
        self.stride_detect = stride_detect
        self.max_stride_lines = max_stride_lines
        self._entries: List[FilterEntry] = []
        self._tick = 0

    def observe(self, vaddr: int, vn: int) -> Optional[EntryGeometry]:
        """Feed one read-miss; returns a detected geometry when ready.

        The stream check is the paper's tensor condition: a consistent
        (line-contiguous, or constant-stride when ``stride_detect`` is on)
        address pattern with one shared VN.
        """
        self._tick += 1
        for index, entry in enumerate(self._entries):
            if vaddr == entry.next_va:
                if vn != entry.vn:
                    # VN broke the tensor condition: restart the stream here.
                    self._entries[index] = FilterEntry(vaddr, vn, lru_tick=self._tick)
                    self.stats.add("vn_restarts")
                    return None
                entry.collected += 1
                entry.lru_tick = self._tick
                if entry.collected >= self.collect_target:
                    self._entries.pop(index)
                    self.stats.add("detections")
                    return _stream_geometry(
                        entry.base_va, entry.collected, entry.stride_lines
                    )
                return None
        if self.stride_detect:
            for entry in self._entries:
                if entry.collected != 1 or vn != entry.vn:
                    continue
                diff = vaddr - entry.base_va
                if diff > LINE and diff % LINE == 0 and diff // LINE <= self.max_stride_lines:
                    entry.stride_lines = diff // LINE
                    entry.collected = 2
                    entry.lru_tick = self._tick
                    self.stats.add("stride_locks")
                    return None
        self._allocate(vaddr, vn)
        return None

    def _allocate(self, vaddr: int, vn: int) -> None:
        if len(self._entries) >= self.n_entries:
            victim = min(range(len(self._entries)), key=lambda i: self._entries[i].lru_tick)
            self._entries.pop(victim)
            self.stats.add("evictions")
        self._entries.append(FilterEntry(vaddr, vn, lru_tick=self._tick))
        self.stats.add("allocations")

    def drop_covering(self, vaddr: int, n_lines: int = 1) -> None:
        """Drop any stream that already reached past one of the ``n_lines``
        line addresses from ``vaddr`` (rare overlap).

        Point-exact: drops the same streams as ``n_lines`` single-address
        calls. A stream is reached when the first run address at or above
        its base lies inside the run and below its next address.
        """
        if not self._entries:
            return
        last = vaddr + (n_lines - 1) * LINE
        self._entries = [
            e
            for e in self._entries
            if not (
                e.base_va <= last
                and max(vaddr, vaddr - (vaddr - e.base_va) // LINE * LINE) < e.next_va
            )
        ]

    @property
    def occupancy(self) -> int:
        return len(self._entries)
