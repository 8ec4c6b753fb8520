"""Meta Table entries: detected tensor structures and their write tracking.

An entry's *geometry* is a strided rectangle of cachelines:

- a **1D** entry is a contiguous, still-extensible run (streaming detection,
  Fig. 11a);
- a **2D** entry has a fixed ``run_lines`` per row and a fixed row stride,
  growing row by row (tiled detection, Fig. 11b). 2D entries arise from
  merging 1D row entries and can collapse back to 1D when rows become
  contiguous (``stride == run``).

Write tracking state implements Fig. 12: an Updating Flag (UF) and a bitmap
(the set of lines flipped this round; BS is implicit — the set is cleared at
each completion). The Meta Table's write step
(:meth:`~repro.cpu.tenanalyzer.meta_table.MetaTable.write_run`) applies the
assertions that guarantee every covered line is written exactly once per
tensor update, keeping the single on-chip VN consistent with the off-chip
per-line VNs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Set

from repro.errors import SimulationError
from repro.units import CACHELINE_BYTES

LINE = CACHELINE_BYTES


@dataclass(slots=True)
class EntryGeometry:
    """A strided rectangle of cachelines.

    ``count`` complete runs of ``run_lines`` lines, each ``stride_lines``
    apart, plus ``tail_lines`` of the next (partial) run. A fully contiguous
    region has ``stride_lines == run_lines``; a plain 1D entry additionally
    has ``count == 1, tail_lines == 0`` and grows by bumping ``run_lines``.
    """

    base_va: int
    run_lines: int
    stride_lines: int
    count: int = 1
    tail_lines: int = 0
    extensible_run: bool = True  # True only for 1D streaming entries

    def __post_init__(self) -> None:
        if self.base_va % LINE:
            raise SimulationError("entry base must be line-aligned")
        if self.run_lines <= 0 or self.stride_lines < self.run_lines or self.count <= 0:
            raise SimulationError(
                f"bad geometry run={self.run_lines} stride={self.stride_lines} "
                f"count={self.count}"
            )
        if self.tail_lines >= self.run_lines and not (self.tail_lines == 0):
            raise SimulationError("tail must be shorter than a run")

    # -- coverage ------------------------------------------------------------

    @property
    def is_contiguous(self) -> bool:
        return self.stride_lines == self.run_lines

    @property
    def n_lines(self) -> int:
        """Covered lines (complete runs + tail)."""
        return self.count * self.run_lines + self.tail_lines

    @property
    def last_line_va(self) -> int:
        """Highest covered line address."""
        if self.tail_lines:
            return self.base_va + (self.count * self.stride_lines + self.tail_lines - 1) * LINE
        return self.base_va + ((self.count - 1) * self.stride_lines + self.run_lines - 1) * LINE

    def run_from(self, vaddr: int) -> int:
        """How many consecutive covered lines start at ``vaddr`` (0 if uncovered).

        O(1): the covered lines of a contiguous geometry run to its end;
        a strided one's run to the end of ``vaddr``'s row (or tail).
        """
        line, misaligned = divmod(vaddr - self.base_va, LINE)
        if line < 0 or misaligned:
            return 0
        run, stride = self.run_lines, self.stride_lines
        if stride == run:
            left = self.count * run + self.tail_lines - line
        else:
            row, col = divmod(line, stride)
            if row < self.count:
                left = run - col
            elif row == self.count:
                left = self.tail_lines - col
            else:
                return 0
        return left if left > 0 else 0

    def contains_line(self, vaddr: int) -> bool:
        return self.run_from(vaddr) > 0

    def boundary_va(self) -> int:
        """The single next-extension address (Fig. 10 "hit boundary")."""
        if self.extensible_run:
            return self.base_va + self.run_lines * LINE
        return self.base_va + (self.count * self.stride_lines + self.tail_lines) * LINE

    def extend(self, n_lines: int = 1) -> None:
        """Grow coverage by ``n_lines`` lines from the boundary address; a
        strided geometry grows at most to the end of its current row."""
        if self.extensible_run:
            self.run_lines += n_lines
            self.stride_lines = self.run_lines
            return
        self.tail_lines += n_lines
        if self.tail_lines > self.run_lines:
            raise SimulationError("extension runs past the end of a row")
        if self.tail_lines == self.run_lines:
            self.count += 1
            self.tail_lines = 0

    def covered_lines(self) -> Sequence[int]:
        """All covered line addresses, ascending (a ``range`` when contiguous)."""
        if self.stride_lines == self.run_lines:
            return range(self.base_va, self.base_va + self.n_lines * LINE, LINE)
        row_bytes = self.stride_lines * LINE
        lines = [
            self.base_va + row * row_bytes + col * LINE
            for row in range(self.count)
            for col in range(self.run_lines)
        ]
        tail_base = self.base_va + self.count * row_bytes
        lines.extend(range(tail_base, tail_base + self.tail_lines * LINE, LINE))
        return lines


#: Largest representable row stride: the Meta Table stride field is 10 bits
#: (Sec. 6.5 hardware budget), so strides beyond 1023 lines cannot form 2D
#: entries. This is also what keeps far-apart unrelated tensors from being
#: mistaken for rows of one tiled tensor.
MAX_STRIDE_LINES = (1 << 10) - 1


def try_merge_geometries(a: EntryGeometry, b: EntryGeometry) -> Optional[EntryGeometry]:
    """Merge two complete geometries into one, or return None.

    Handles the multi-direction merges of Fig. 11b: outer (row-wise)
    concatenation, inner (column-wise) concatenation of equal-shape bands,
    contiguous 1D concatenation, and the contiguity collapse back to 1D.
    Ordering is normalised so both "directions" per dimension are covered.
    Partial geometries (a tail row in progress) never merge.
    """
    if a.tail_lines or b.tail_lines:
        return None
    if b.base_va < a.base_va:
        a, b = b, a
    base_a, run_a, stride_a, count_a = a.base_va, a.run_lines, a.stride_lines, a.count
    base_b, run_b, stride_b, count_b = b.base_va, b.run_lines, b.stride_lines, b.count
    if run_a != run_b and base_b != base_a + run_a * LINE:
        return None  # every merge below needs equal runs or abutting bands

    merged: Optional[EntryGeometry] = None

    # Contiguous 1D concatenation (shards of a streaming tensor).
    if (
        count_a == 1
        and count_b == 1
        and stride_a == run_a
        and stride_b == run_b
        and base_b == base_a + run_a * LINE
    ):
        merged = EntryGeometry(
            base_va=base_a,
            run_lines=run_a + run_b,
            stride_lines=run_a + run_b,
            count=1,
            extensible_run=a.extensible_run or b.extensible_run,
        )
    # Outer concatenation: equal runs stacked along a (possibly new) stride.
    elif run_a == run_b:
        if count_a == 1 and count_b == 1:
            gap_lines = (base_b - base_a) // LINE
            if (
                (base_b - base_a) % LINE == 0
                and run_a < gap_lines <= MAX_STRIDE_LINES
            ):
                merged = EntryGeometry(
                    base_va=base_a,
                    run_lines=run_a,
                    stride_lines=gap_lines,
                    count=2,
                    extensible_run=False,
                )
        elif count_a > 1 and base_b == base_a + count_a * stride_a * LINE:
            if count_b == 1 or stride_b == stride_a:
                merged = EntryGeometry(
                    base_va=base_a,
                    run_lines=run_a,
                    stride_lines=stride_a,
                    count=count_a + count_b,
                    extensible_run=False,
                )
        elif count_b > 1 and count_a == 1 and base_b == base_a + stride_b * LINE:
            merged = EntryGeometry(
                base_va=base_a,
                run_lines=run_a,
                stride_lines=stride_b,
                count=count_b + 1,
                extensible_run=False,
            )
    # Inner concatenation: same stride/count bands side by side.
    if (
        merged is None
        and count_a == count_b
        and count_a > 1
        and stride_a == stride_b
        and base_b == base_a + run_a * LINE
        and run_a + run_b <= stride_a
    ):
        merged = EntryGeometry(
            base_va=base_a,
            run_lines=run_a + run_b,
            stride_lines=stride_a,
            count=count_a,
            extensible_run=False,
        )

    if merged is not None and merged.is_contiguous and merged.count > 1:
        # Rows became contiguous: collapse to an extensible 1D run.
        merged = EntryGeometry(
            base_va=merged.base_va,
            run_lines=merged.n_lines,
            stride_lines=merged.n_lines,
            count=1,
            extensible_run=True,
        )
    return merged


@dataclass(slots=True)
class MetaTableEntry:
    """One Meta Table row: geometry + VN + MAC + write-tracking state."""

    geometry: EntryGeometry
    vn: int
    mac: int = 0
    updating: bool = False  # UF
    flipped: Set[int] = field(default_factory=set)  # bitmap bits != BS
    lru_tick: int = 0
    created_tick: int = 0
    source: str = "filter"  # filter | merge | transfer
    entry_id: int = -1  # assigned by the MetaTable on admission

    # -- read path -----------------------------------------------------------

    def vn_for_line(self, vaddr: int) -> int:
        """Effective VN of a covered line (post-update lines are vn+1)."""
        if not self.geometry.contains_line(vaddr):
            raise SimulationError(f"line {vaddr:#x} not covered by entry")
        return self.vn + 1 if vaddr in self.flipped else self.vn

    def vns_for_run(self, vaddr: int, n_lines: int) -> List[int]:
        """Effective VNs of ``n_lines`` covered lines from ``vaddr``."""
        vn, flipped = self.vn, self.flipped
        if not flipped:
            return [vn] * n_lines
        return [
            vn + 1 if line in flipped else vn
            for line in range(vaddr, vaddr + n_lines * LINE, LINE)
        ]

    def per_line_vns(self) -> Iterator[tuple[int, int]]:
        """(line VA, effective VN) pairs, used to sync off-chip VNs."""
        for vaddr in self.geometry.covered_lines():
            yield vaddr, (self.vn + 1 if vaddr in self.flipped else self.vn)

    @property
    def mergeable(self) -> bool:
        """Entries mid-update or mid-row cannot merge."""
        return not self.updating and self.geometry.tail_lines == 0
