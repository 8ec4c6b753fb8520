"""The TenAnalyzer facade: read/write dataflows of Figs. 10 and 12.

Sits logically in the memory controller, receiving the cores'
virtual-address request stream. For reads it supplies the VN without
off-chip access on *hit-in*, speculatively on *hit-boundary* (the off-chip
VN is fetched in the background to confirm and extend coverage), and falls
back to the off-chip VN + Tensor Filter on *miss*. For writes it runs the
bitmap/UF tracking that keeps the single on-chip tensor VN consistent with
per-line off-chip VNs, invalidating the entry on assertion violations.

``EnTMF`` (Enable Tensor-wise Management Flag) disables the whole unit for
non-tensor applications.
"""

from __future__ import annotations

import enum
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from repro.cpu.tenanalyzer.entry import MetaTableEntry
from repro.cpu.tenanalyzer.meta_table import LookupKind, MetaTable
from repro.cpu.tenanalyzer.tensor_filter import TensorFilter
from repro.cpu.tenanalyzer.vn_store import OffChipVnStore
from repro.errors import ConfigError
from repro.sim.stats import Stats
from repro.sim.trace_batch import KIND_READ, trace_columns
from repro.units import CACHELINE_BYTES

LINE = CACHELINE_BYTES


class ReadKind(enum.Enum):
    """Read-path outcomes reported to the MEE/timing model."""

    HIT_IN = "hit_in"
    HIT_BOUNDARY = "hit_boundary"
    MISS = "miss"


class WriteKind(enum.Enum):
    """Write-path outcomes (Fig. 12)."""

    HIT_EDGE = "hit_edge"
    HIT_IN = "hit_in"
    MISS = "miss"


class ReadResult(NamedTuple):
    """VN decision for one read."""

    kind: ReadKind
    vn: int
    #: Off-chip VN lines fetched (0 for hit-in; 1 for miss; 1 for boundary,
    #: but off the critical path in the boundary case).
    offchip_vn_fetches: int
    critical_fetch: bool  # True when the fetch stalls the request (miss)


class WriteResult(NamedTuple):
    """Bookkeeping outcome of one write."""

    kind: WriteKind
    vn: int  # VN the line is encrypted under
    completed_tensor: bool
    violation: bool
    offchip_vn_writes: int


class TenAnalyzer:
    """Tensor detection + on-chip VN management at the memory controller."""

    def __init__(
        self,
        capacity: int = 512,
        filter_entries: int = 10,
        filter_collect: int = 4,
        merge_window: int = 8,
        enabled: bool = True,
        vn_store: Optional[OffChipVnStore] = None,
        stats: Optional[Stats] = None,
        stride_detect: bool = False,
    ) -> None:
        """``stride_detect`` relaxes the Tensor Filter's contiguity check
        to constant line strides (and makes trace priming do the same by
        default), so strided layouts can seed strided Meta Table entries.
        Off by default — the paper's detector is strictly line-contiguous.
        """
        self.stats = stats if stats is not None else Stats("tenanalyzer")
        self.vn_store = vn_store if vn_store is not None else OffChipVnStore()
        self.table = MetaTable(
            capacity=capacity,
            merge_window=merge_window,
            vn_store=self.vn_store,
            stats=self.stats.scope("meta_table"),
        )
        self.filter = TensorFilter(
            n_entries=filter_entries,
            collect_target=filter_collect,
            stats=self.stats.scope("tensor_filter"),
            stride_detect=stride_detect,
        )
        self.enabled = enabled  # EnTMF

    # -- dataflow for reading (Fig. 10) ---------------------------------------

    def on_read_va(self, vaddr: int) -> ReadResult:
        """Classify a read by virtual address and provide its VN."""
        if not self.enabled:
            self.stats.add("read_miss")
            return ReadResult(ReadKind.MISS, self.vn_store.read(vaddr), 1, True)

        kind, entry = self.table.lookup(vaddr)
        if kind is LookupKind.HIT_IN:
            assert entry is not None
            self.stats.add("read_hit_in")
            return ReadResult(ReadKind.HIT_IN, entry.vn_for_line(vaddr), 0, False)

        if kind is LookupKind.HIT_BOUNDARY:
            assert entry is not None
            # Speculatively use the entry VN; confirm off the critical path.
            offchip_vn = self.vn_store.read(vaddr)
            if offchip_vn == entry.vn:
                self.table.extend(entry)
                self.filter.drop_covering(vaddr)
                self.stats.add("read_hit_boundary")
                return ReadResult(ReadKind.HIT_BOUNDARY, entry.vn, 1, False)
            # Misprediction: the speculative decryption is squashed and the
            # request replays with the off-chip VN.
            self.stats.add("boundary_mispredict")
            self.stats.add("read_miss")
            return ReadResult(ReadKind.MISS, offchip_vn, 1, True)

        self.stats.add("read_miss")
        return ReadResult(ReadKind.MISS, self._read_miss(vaddr), 1, True)

    def _read_miss(self, vaddr: int) -> int:
        """Fig. 10 miss of a line neither covered nor a boundary: the
        off-chip VN, observed by the Tensor Filter. A stream the filter
        completes becomes a Meta Table entry. The caller counts
        ``read_miss``."""
        offchip_vn = self.vn_store.read(vaddr)
        geometry = self.filter.observe(vaddr, offchip_vn)
        if geometry is not None:
            self.table.insert(geometry, vn=offchip_vn, source="filter")
        return offchip_vn

    # -- dataflow for writing (Fig. 12) ---------------------------------------

    def on_write_va(self, vaddr: int) -> WriteResult:
        """Track a write-back; returns the VN to encrypt the line under.

        A covered line is one step of the Meta Table's write run
        (:meth:`MetaTable.write_run`). The device folds the line's MAC
        delta into the covering entry afterwards (:meth:`fold_mac`).
        """
        if self.enabled:
            # Writes snoop the Tensor Filter: a write-back to a line inside an
            # in-flight collection changes that line's VN, so the half-built
            # stream must be discarded or it would seed a stale entry.
            self.filter.drop_covering(vaddr)
            vn, written, edges, completed = self.table.write_run(vaddr, 1)
            if written:
                kind = WriteKind.HIT_EDGE if edges else WriteKind.HIT_IN
                self.stats.add(f"write_{kind.value}")
                if completed:
                    self.stats.add("write_completed_tensors")
                return WriteResult(kind, vn, completed, False, 0)
            entry = self.table.entry_of(vaddr)
            if entry is not None:
                # Assert1: invalidate and fall back to the off-chip path.
                self.table.invalidate(entry, reason="assert")
                self.stats.add("write_violation")
                return WriteResult(WriteKind.MISS, self.vn_store.bump(vaddr), False, True, 1)
        self.stats.add("write_miss")
        return WriteResult(WriteKind.MISS, self.vn_store.bump(vaddr), False, False, 1)

    # -- batched stream replay (columnar traces) -------------------------------

    def replay_window(self, vaddrs: Sequence[int], kinds: Sequence[int]) -> List[int]:
        """Replay one columnar trace window; returns the per-access VNs.

        ``vaddrs``/``kinds`` are :class:`repro.sim.trace_batch.TraceBatch`
        columns, as the batch's arrays or as ``columns()`` lists: line
        addresses, each read (``KIND_READ``) or written back
        (``KIND_WRITE``). Columns that break that contract raise
        :class:`ConfigError` before any state changes.

        The window is split once into maximal runs of same-kind,
        line-contiguous accesses, and each run is applied in Meta Table
        steps:

        - reads inside one resident entry are one hit-in step
          (:meth:`MetaTable.read_run`: lookup, coverage count, LRU tick
          and merge-window touch) with bulk VNs;
        - reads from an entry's boundary are one step
          (:meth:`MetaTable.extend_run`) that grows the entry over the
          streak of lines whose off-chip VN equals the entry VN. The
          streak stops before a mispredicting line, a line another entry
          covers, and the line after a strided entry's row end;
        - a read neither covered nor a boundary takes the shared miss
          helper (:meth:`_read_miss`): off-chip VN, Tensor Filter, and the
          entry a detection seeds;
        - writes inside one entry are one step
          (:meth:`MetaTable.write_run`: lookup, coverage count and bitmap
          update) up to and including the write that completes the tensor
          update, with its VN increment and completion merge attempt.
          Each write step costs one Tensor Filter snoop.

        What is left goes per access through :meth:`on_read_va` /
        :meth:`on_write_va`: boundary mispredicts, Assert1 violations,
        uncovered writes, and every access while EnTMF is off; those two
        call the same steps with one line. The bulk counters are added
        once per window. VNs, table, filter and VN-store state and counter
        totals equal a per-access replay of the window (pinned by
        ``tests/test_trace_batch.py``).
        """
        va, kind = trace_columns(vaddrs, kinds)
        if not self.enabled:
            return [
                self.on_read_va(vaddr).vn if k == KIND_READ else self.on_write_va(vaddr).vn
                for vaddr, k in zip(va.tolist(), kind.tolist())
            ]
        if not len(va):
            return []
        reads = kind == KIND_READ
        run_starts = np.flatnonzero(
            np.concatenate(([True], (np.diff(va) != LINE) | (reads[1:] != reads[:-1])))
        )
        runs = zip(
            va[run_starts].tolist(),
            np.diff(run_starts, append=len(va)).tolist(),
            reads[run_starts].tolist(),
        )
        read_run = self.table.read_run
        write_run = self.table.write_run
        extend_run = self.table.extend_run
        drop_covering = self.filter.drop_covering
        read_miss = self._read_miss
        on_read_va = self.on_read_va
        on_write_va = self.on_write_va
        read_hit_in = read_hit_boundary = read_misses = 0
        write_hit_edge = write_hit_in = write_completed = 0
        vns: List[int] = []
        append = vns.append
        extend = vns.extend
        for vaddr, remaining, reading in runs:
            while remaining:
                if reading:
                    entry, n = read_run(vaddr, remaining)
                    if n:
                        read_hit_in += n
                        extend(entry.vns_for_run(vaddr, n))
                    else:
                        entry, n = extend_run(vaddr, remaining)
                        if n:
                            drop_covering(vaddr, n)
                            read_hit_boundary += n
                            extend([entry.vn] * n)
                        elif entry is None:
                            append(read_miss(vaddr))
                            read_misses += 1
                            n = 1
                        else:
                            append(on_read_va(vaddr).vn)
                            n = 1
                else:
                    vn, n, edges, completed = write_run(vaddr, remaining)
                    if n:
                        drop_covering(vaddr, n)
                        write_hit_edge += edges
                        write_hit_in += n - edges
                        write_completed += completed
                        extend([vn] * n)
                    else:
                        append(on_write_va(vaddr).vn)
                        n = 1
                vaddr += n * LINE
                remaining -= n
        stats = self.stats
        for key, count in (
            ("read_hit_in", read_hit_in),
            ("read_hit_boundary", read_hit_boundary),
            ("read_miss", read_misses),
            ("write_hit_edge", write_hit_edge),
            ("write_hit_in", write_hit_in),
            ("write_completed_tensors", write_completed),
        ):
            if count:
                stats.add(key, count)
        return vns

    # -- fast-path installation from transfer descriptors (Sec. 4.2) ----------

    def install_from_transfer(
        self, base_va: int, n_lines: int, vn: int, stride_lines: int = 1
    ) -> MetaTableEntry:
        """Create a full-range entry from an NPU transfer descriptor.

        Data-transfer instructions carry (address, size, stride); TensorTEE
        uses them to seed the Meta Table without waiting for detection.
        ``stride_lines > 1`` installs a strided entry: ``n_lines`` lines
        spaced ``stride_lines`` apart (a 2D transfer's per-row first line).
        """
        if base_va % LINE or n_lines <= 0:
            raise ConfigError("transfer descriptor must be line-aligned and non-empty")
        if stride_lines <= 0:
            raise ConfigError("transfer stride must be positive")
        from repro.cpu.tenanalyzer.entry import EntryGeometry

        if stride_lines == 1:
            geometry = EntryGeometry(
                base_va=base_va,
                run_lines=n_lines,
                stride_lines=n_lines,
                count=1,
                extensible_run=True,
            )
            self.vn_store.set_range(base_va, n_lines, vn)
        else:
            geometry = EntryGeometry(
                base_va=base_va,
                run_lines=1,
                stride_lines=stride_lines,
                count=n_lines,
                extensible_run=False,
            )
            self.vn_store.set_strided(base_va, n_lines, stride_lines, vn)
        entry = self.table.insert(geometry, vn=vn, source="transfer")
        self.stats.add("transfer_installs")
        return entry

    def fold_mac(self, vaddr: int, mac_delta: int) -> bool:
        """XOR a line-MAC delta into the covering entry's tensor MAC.

        Called by the device after the MEE computed the old/new line MACs
        for a write; returns whether a covering entry absorbed the delta.
        """
        entry = self.table.entry_of(vaddr)
        if entry is None:
            return False
        entry.mac ^= mac_delta
        return True

    def metadata_for_range(self, base_va: int, n_lines: int) -> Optional[tuple[int, int]]:
        """(VN, MAC) for a whole tensor range, for the trusted channel."""
        entry = self.table.covering_range(base_va, n_lines)
        if entry is None or entry.updating:
            return None
        return entry.vn, entry.mac

    # -- reporting -------------------------------------------------------------

    def hit_rates(self) -> dict[str, float]:
        """hit_in / hit_boundary / hit_all read rates so far (Fig. 18)."""
        hit_in = self.stats["read_hit_in"]
        boundary = self.stats["read_hit_boundary"]
        miss = self.stats["read_miss"]
        total = hit_in + boundary + miss
        if total == 0:
            return {"hit_in": 0.0, "hit_boundary": 0.0, "hit_all": 0.0}
        return {
            "hit_in": hit_in / total,
            "hit_boundary": boundary / total,
            "hit_all": (hit_in + boundary) / total,
        }

    def reset_rate_counters(self) -> None:
        """Zero the read/write classification counters (not the table)."""
        for key in (
            "read_hit_in",
            "read_hit_boundary",
            "read_miss",
            "boundary_mispredict",
            "write_hit_edge",
            "write_hit_in",
            "write_miss",
            "write_violation",
            "write_completed_tensors",
        ):
            self.stats.set(key, 0.0)
