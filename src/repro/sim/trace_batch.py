"""Columnar (structure-of-arrays) memory-trace batches.

The object trace API (:class:`repro.sim.trace.MemAccess`) materializes one
frozen dataclass per 64-byte request — fine for unit tests, ruinous for the
hot replay loops that stream hundreds of thousands of requests per figure.
:class:`TraceBatch` keeps the same four fields as parallel NumPy ``int64``
columns (``vaddr`` / ``kind`` / ``thread`` / ``tensor_id``).

Contract:

- the object API remains a thin view: :meth:`from_accesses` /
  :meth:`to_accesses` round-trip losslessly, and iterating a batch yields
  :class:`MemAccess` records;
- windowed slicing (:meth:`window` / :meth:`windows`) is zero-copy, so
  replay loops can process whole trace windows without re-materializing
  them.

Kinds are stored as small integer codes (:data:`KIND_READ`,
:data:`KIND_WRITE`, :data:`KIND_INST`) matching the enum order of
:class:`repro.sim.trace.AccessKind`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.sim.trace import AccessKind, MemAccess

#: Integer kind codes (column representation of :class:`AccessKind`).
KIND_READ = 0
KIND_WRITE = 1
KIND_INST = 2

_KIND_TO_CODE = {
    AccessKind.READ: KIND_READ,
    AccessKind.WRITE: KIND_WRITE,
    AccessKind.INST: KIND_INST,
}
_CODE_TO_KIND = (AccessKind.READ, AccessKind.WRITE, AccessKind.INST)


def _column(values: Sequence[int]) -> np.ndarray:
    """Materialize one column as a one-dimensional ``int64`` array."""
    array = np.asarray(values, dtype=np.int64)
    if array.ndim != 1:
        raise ConfigError("trace columns must be one-dimensional")
    return array


class TraceBatch:
    """One window of a memory trace, stored column-wise."""

    __slots__ = ("vaddr", "kind", "thread", "tensor_id")

    def __init__(self, vaddr, kind, thread, tensor_id) -> None:
        self.vaddr = _column(vaddr)
        self.kind = _column(kind)
        self.thread = _column(thread)
        self.tensor_id = _column(tensor_id)
        n = len(self.vaddr)
        if not (len(self.kind) == len(self.thread) == len(self.tensor_id) == n):
            raise ConfigError(
                "trace columns must be equal length, got "
                f"{n}/{len(self.kind)}/{len(self.thread)}/{len(self.tensor_id)}"
            )

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_columns(cls, vaddr, kind, thread, tensor_id) -> "TraceBatch":
        """Build from four parallel columns (the generator fast path)."""
        return cls(vaddr, kind, thread, tensor_id)

    @classmethod
    def from_accesses(cls, accesses: Iterable[MemAccess]) -> "TraceBatch":
        """Columnarize an object trace (bridge from the legacy API)."""
        vaddr: List[int] = []
        kind: List[int] = []
        thread: List[int] = []
        tensor_id: List[int] = []
        code_of = _KIND_TO_CODE
        for access in accesses:
            vaddr.append(access.vaddr)
            kind.append(code_of[access.kind])
            thread.append(access.thread)
            tensor_id.append(access.tensor_id)
        return cls(vaddr, kind, thread, tensor_id)

    @classmethod
    def of_kind(
        cls, addresses: Sequence[int], code: int, thread: int = 0, tensor_id: int = -1
    ) -> "TraceBatch":
        """Wrap raw line addresses into a single-kind batch."""
        if code not in (KIND_READ, KIND_WRITE, KIND_INST):
            raise ConfigError(f"unknown access-kind code {code!r}")
        n = len(addresses)
        return cls(addresses, [code] * n, [thread] * n, [tensor_id] * n)

    @classmethod
    def reads(cls, addresses: Sequence[int], thread: int = 0, tensor_id: int = -1) -> "TraceBatch":
        """Read batch over raw line addresses (replaces ``trace.reads``)."""
        return cls.of_kind(addresses, KIND_READ, thread, tensor_id)

    @classmethod
    def writes(cls, addresses: Sequence[int], thread: int = 0, tensor_id: int = -1) -> "TraceBatch":
        """Write batch over raw line addresses (replaces ``trace.writes``)."""
        return cls.of_kind(addresses, KIND_WRITE, thread, tensor_id)

    @classmethod
    def empty(cls) -> "TraceBatch":
        return cls((), (), (), ())

    @classmethod
    def concat(cls, batches: Sequence["TraceBatch"]) -> "TraceBatch":
        """Concatenate batches in order."""
        if not batches:
            return cls.empty()
        return cls(
            np.concatenate([b.vaddr for b in batches]),
            np.concatenate([b.kind for b in batches]),
            np.concatenate([b.thread for b in batches]),
            np.concatenate([b.tensor_id for b in batches]),
        )

    # -- views -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.vaddr)

    def window(self, start: int, stop: int | None = None) -> "TraceBatch":
        """The ``[start:stop)`` slice as a batch (zero-copy)."""
        return TraceBatch(
            self.vaddr[start:stop],
            self.kind[start:stop],
            self.thread[start:stop],
            self.tensor_id[start:stop],
        )

    def windows(self, size: int) -> Iterator["TraceBatch"]:
        """Successive windows of at most ``size`` accesses."""
        if size <= 0:
            raise ConfigError(f"window size must be positive, got {size}")
        for start in range(0, len(self), size):
            yield self.window(start, start + size)

    def columns(self) -> Tuple[List[int], List[int], List[int], List[int]]:
        """The four columns as plain Python lists.

        Serial replay loops iterate these: elementwise iteration over
        native lists is ~3x faster than over NumPy arrays (no per-element
        boxing), and the values are plain ``int``.
        """
        return (
            self.vaddr.tolist(),
            self.kind.tolist(),
            self.thread.tolist(),
            self.tensor_id.tolist(),
        )

    def to_accesses(self) -> List[MemAccess]:
        """Materialize the legacy object view."""
        kinds = _CODE_TO_KIND
        vaddr, kind, thread, tensor_id = self.columns()
        return [
            MemAccess(vaddr=va, kind=kinds[k], thread=t, tensor_id=tid)
            for va, k, t, tid in zip(vaddr, kind, thread, tensor_id)
        ]

    def __iter__(self) -> Iterator[MemAccess]:
        return iter(self.to_accesses())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceBatch):
            return NotImplemented
        return self.columns() == other.columns()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceBatch({len(self)} accesses)"

    # -- stream composition ----------------------------------------------------

    @staticmethod
    def interleave_round_robin(streams: Sequence["TraceBatch"], chunk: int = 4) -> "TraceBatch":
        """Round-robin ``chunk``-burst interleave of per-thread streams.

        Columnar twin of :func:`repro.sim.trace.interleave_round_robin`:
        identical output order, assembled as whole-slice copies instead of
        per-access appends.
        """
        if chunk <= 0:
            raise ConfigError(f"chunk must be positive, got {chunk}")
        pieces: List[Tuple[int, int, int]] = []  # (stream index, start, stop)
        cursors = [0] * len(streams)
        lengths = [len(s) for s in streams]
        remaining = sum(lengths)
        while remaining:
            for idx in range(len(streams)):
                start = cursors[idx]
                if start >= lengths[idx]:
                    continue
                stop = min(start + chunk, lengths[idx])
                pieces.append((idx, start, stop))
                cursors[idx] = stop
                remaining -= stop - start
        return TraceBatch.concat([streams[i].window(a, b) for i, a, b in pieces])
