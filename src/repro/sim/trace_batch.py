"""Memory traces as columns of line addresses and access kinds.

TensorTEE's TenAnalyzer sits in the memory controller and sees only line
addresses, each a read or a write (Fig. 9b of the paper). A
:class:`TraceBatch` holds exactly that, as two parallel NumPy ``int64``
columns: ``vaddr``, the line-aligned virtual address a core issued, and
``kind``, :data:`KIND_READ` or :data:`KIND_WRITE`. The workload
generators emit batches and the replay loops consume their columns.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError

#: Codes of the ``kind`` column.
KIND_READ = 0
KIND_WRITE = 1


def _column(values: Sequence[int]) -> np.ndarray:
    """Materialize one column as a one-dimensional ``int64`` array."""
    array = np.asarray(values, dtype=np.int64)
    if array.ndim != 1:
        raise ConfigError("trace columns must be one-dimensional")
    return array


class TraceBatch:
    """A memory trace, stored column-wise."""

    __slots__ = ("vaddr", "kind")

    def __init__(self, vaddr: Sequence[int], kind: Sequence[int]) -> None:
        self.vaddr = _column(vaddr)
        self.kind = _column(kind)
        if len(self.kind) != len(self.vaddr):
            raise ConfigError(
                f"trace columns must be equal length, got {len(self.vaddr)}/{len(self.kind)}"
            )

    def __len__(self) -> int:
        return len(self.vaddr)

    def columns(self) -> Tuple[List[int], List[int]]:
        """The two columns as plain Python lists.

        Serial replay loops iterate these: elementwise iteration over
        native lists is ~3x faster than over NumPy arrays (no per-element
        boxing), and the values are plain ``int``.
        """
        return self.vaddr.tolist(), self.kind.tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceBatch({len(self)} accesses)"
