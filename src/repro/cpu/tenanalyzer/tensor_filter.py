"""The Tensor Filter: cold-stream pattern collection (Fig. 10).

Meta Table misses land here. Each filter entry collects up to
``collect_target`` line addresses of one candidate stream; when full, the
addresses are checked for the tensor condition — consecutive lines with the
same off-chip VN — and a fresh Meta Table entry is initialised from them.
The filter is tiny (10 entries, Table in Sec. 6.5) because kernels touch few
tensors concurrently; LRU eviction discards noise streams.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cpu.tenanalyzer.entry import MAX_STRIDE_LINES, EntryGeometry
from repro.errors import ConfigError
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
        if n_entries < 1:
            raise ConfigError(f"Tensor Filter needs at least 1 entry, got {n_entries}")
        if collect_target < 2:
            raise ConfigError(
                f"Tensor Filter collect target must be at least 2 lines, got {collect_target}"
            )
        self.n_entries = n_entries
        self.collect_target = collect_target
        self.stats = stats if stats is not None else Stats("tensor_filter")
        self.stride_detect = stride_detect
        self.max_stride_lines = max_stride_lines
        # In-flight candidate streams as parallel columns, one slot per
        # stream in allocation order: first line, VN, lines collected, tick
        # of the last observation, locked line stride (1 = contiguous;
        # stride-aware collection locks it on the second observation) and
        # the address that continues the stream.
        self._base: List[int] = []
        self._vn: List[int] = []
        self._collected: List[int] = []
        self._lru_tick: List[int] = []
        self._stride: List[int] = []
        self._next: List[int] = []
        self._columns = (
            self._base,
            self._vn,
            self._collected,
            self._lru_tick,
            self._stride,
            self._next,
        )
        self._tick = 0

    def observe(self, vaddr: int, vn: int) -> Optional[EntryGeometry]:
        """Feed one read-miss; returns a detected geometry when ready.

        The stream check is the paper's tensor condition: a consistent
        (line-contiguous, or constant-stride when ``stride_detect`` is on)
        address pattern with one shared VN.
        """
        self._tick += 1
        nexts = self._next
        if vaddr in nexts:
            index = nexts.index(vaddr)  # the first stream it continues
            if vn != self._vn[index]:
                # VN broke the tensor condition: restart the stream here.
                for column, value in zip(self._columns, self._new_stream(vaddr, vn)):
                    column[index] = value
                self.stats.add("vn_restarts")
                return None
            collected = self._collected[index] + 1
            if collected >= self.collect_target:
                base, stride = self._base[index], self._stride[index]
                self._drop(index)
                self.stats.add("detections")
                return _stream_geometry(base, collected, stride)
            self._collected[index] = collected
            self._lru_tick[index] = self._tick
            nexts[index] = vaddr + self._stride[index] * LINE
            return None
        if self.stride_detect:
            for index, (base, stream_vn, collected) in enumerate(
                zip(self._base, self._vn, self._collected)
            ):
                if collected != 1 or vn != stream_vn:
                    continue
                diff = vaddr - base
                if diff > LINE and diff % LINE == 0 and diff // LINE <= self.max_stride_lines:
                    self._stride[index] = diff // LINE
                    self._collected[index] = 2
                    self._lru_tick[index] = self._tick
                    nexts[index] = vaddr + diff
                    self.stats.add("stride_locks")
                    return None
        self._allocate(vaddr, vn)
        return None

    def _allocate(self, vaddr: int, vn: int) -> None:
        if len(self._base) >= self.n_entries:
            ticks = self._lru_tick
            self._drop(ticks.index(min(ticks)))  # the first least-recent
            self.stats.add("evictions")
        for column, value in zip(self._columns, self._new_stream(vaddr, vn)):
            column.append(value)
        self.stats.add("allocations")

    def _new_stream(self, vaddr: int, vn: int) -> tuple:
        """The column values of a one-line contiguous stream at ``vaddr``."""
        return vaddr, vn, 1, self._tick, 1, vaddr + LINE

    def _drop(self, index: int) -> None:
        for column in self._columns:
            del column[index]

    def drop_covering(self, vaddr: int, n_lines: int = 1) -> None:
        """Drop any stream that already reached past one of the ``n_lines``
        line addresses from ``vaddr`` (rare overlap).

        Point-exact: drops the same streams as ``n_lines`` single-address
        calls. A stream is reached when the first run address at or above
        its base lies inside the run and below its next address.
        """
        if not self._base:
            return
        last = vaddr + (n_lines - 1) * LINE
        reached = [
            index
            for index, (base, next_va) in enumerate(zip(self._base, self._next))
            if base <= last and max(vaddr, vaddr - (vaddr - base) // LINE * LINE) < next_va
        ]
        for index in reversed(reached):
            self._drop(index)

    @property
    def occupancy(self) -> int:
        return len(self._base)
