"""Off-chip per-cacheline version numbers.

This is the SGX-compatible VN layer TenAnalyzer stays consistent with
(Fig. 12: "maintains consistency with off-chip cacheline-granularity VN").
While an entry covers a line, the off-chip copy may lag; on eviction or
invalidation the entry's VN is synchronised back (``sync``), so the MEE can
always fall back to the off-chip value for uncovered lines.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.units import CACHELINE_BYTES


class OffChipVnStore:
    """Per-line VN dictionary with write counters for invariant checks."""

    def __init__(self) -> None:
        self._vn: Dict[int, int] = {}

    @staticmethod
    def _line(vaddr: int) -> int:
        return vaddr - (vaddr % CACHELINE_BYTES)

    def read(self, vaddr: int) -> int:
        """Current off-chip VN of the line containing ``vaddr``."""
        return self._vn.get(vaddr - vaddr % CACHELINE_BYTES, 0)

    def bump(self, vaddr: int) -> int:
        """Increment on a line write-back; returns the new VN."""
        line = self._line(vaddr)
        new = self._vn.get(line, 0) + 1
        self._vn[line] = new
        return new

    def sync(self, vaddrs: Iterable[int], vn: int) -> int:
        """Entry eviction: force lines to the entry-tracked VN.

        Returns how many lines actually changed (the write-back traffic).
        """
        store = self._vn
        get = store.get
        changed = 0
        for vaddr in vaddrs:
            line = vaddr - vaddr % CACHELINE_BYTES
            if get(line, 0) != vn:
                store[line] = vn
                changed += 1
        return changed

    def set(self, vaddr: int, vn: int) -> None:
        """Directly set a line's VN (used by transfer-descriptor installs)."""
        self._vn[self._line(vaddr)] = vn

    def set_range(self, base_va: int, n_lines: int, vn: int) -> None:
        """Set ``n_lines`` consecutive lines to ``vn`` in one update."""
        base = self._line(base_va)
        line = CACHELINE_BYTES
        self._vn.update(dict.fromkeys(range(base, base + n_lines * line, line), vn))

    def set_strided(
        self, base_va: int, count: int, stride_lines: int, vn: int, run_lines: int = 1
    ) -> None:
        """Set a strided line pattern to ``vn``: ``count`` runs of
        ``run_lines`` consecutive lines, run starts ``stride_lines`` apart.

        ``count=1`` (or ``stride_lines == run_lines``) degenerates to
        :meth:`set_range`; used by strided transfer-descriptor installs.
        """
        base = self._line(base_va)
        line = CACHELINE_BYTES
        self._vn.update(
            (base + (r * stride_lines + i) * line, vn)
            for r in range(count)
            for i in range(run_lines)
        )

    @property
    def tracked_lines(self) -> int:
        return len(self._vn)
