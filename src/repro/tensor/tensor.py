"""Tensor descriptors.

A :class:`TensorDesc` is a *named view over a storage allocation*: a base
virtual address plus a :class:`repro.tensor.geometry.TensorGeometry`
(shape, element strides, storage offset, dtype), plus the iteration
helpers the trace generators and the TEE components need — line streams,
per-thread shards, and 2D tile walks (for GEMM workloads).

The default descriptor (``strides=None, storage_offset=0``) is the
contiguous row-major case every pre-geometry call site used; those paths
keep their original closed-form arithmetic behind the
:meth:`TensorDesc.is_contiguous` fast path, so contiguous enumeration is
bit-identical to the legacy API. Derived views (:meth:`view`,
:meth:`slice_`, :meth:`select`, :meth:`transpose`, :meth:`channels_last`)
share the parent's storage, ``tensor_id`` and role; their line streams
come from the geometry walk (distinct lines, first-touch order). 2D tile
rows are the exception: :meth:`TensorDesc.tile_row_lines` is one closed
form over any geometry, contiguous or not.

**Span semantics are line-granular**: a tensor owns whole cachelines, so
``end_va`` is the line-rounded end of coverage and ``contains`` agrees
with it exactly — ``contains(va)`` iff ``base_va <= va < end_va`` for
contiguous tensors (the tail line belongs to the tensor even when its
payload ends mid-line), and iff the line is actually covered for strided
views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Tuple

from repro.errors import ConfigError
from repro.tensor.dtype import DType
from repro.tensor.geometry import TensorGeometry
from repro.units import CACHELINE_BYTES, lines_in


@dataclass(frozen=True)
class TensorDesc:
    """A named view over a storage allocation.

    ``strides`` (elements) and ``storage_offset`` (elements) default to
    the contiguous row-major layout over ``shape``; derived views carry
    explicit values and share the parent's ``base_va`` / ``tensor_id``.
    """

    name: str
    base_va: int
    shape: Tuple[int, ...]
    dtype: DType = DType.FP32
    tensor_id: int = -1
    role: str = "data"  # e.g. weight / grad / momentum / variance / activation
    strides: Optional[Tuple[int, ...]] = None
    storage_offset: int = 0

    def __post_init__(self) -> None:
        if self.base_va % CACHELINE_BYTES:
            raise ConfigError(f"{self.name}: base VA must be line-aligned")
        if not self.shape or any(dim <= 0 for dim in self.shape):
            raise ConfigError(f"{self.name}: shape must be positive, got {self.shape}")
        if self.strides is not None:
            object.__setattr__(self, "strides", tuple(self.strides))
            # Validate the full geometry eagerly (stride/offset checks).
            self.geometry  # noqa: B018 — raises ConfigError on bad metadata

    # -- geometry --------------------------------------------------------------

    @property
    def geometry(self) -> TensorGeometry:
        """The shape/stride/offset metadata of this view."""
        if self.strides is None:
            return TensorGeometry.contiguous(self.shape, self.dtype, self.storage_offset)
        return TensorGeometry(self.shape, self.strides, self.storage_offset, self.dtype)

    def is_contiguous(self) -> bool:
        """Dense row-major walk from a line-aligned start (the fast path)."""
        if self.strides is None:
            return self.storage_offset == 0
        return self.storage_offset == 0 and self.geometry.is_contiguous

    def _covered(self) -> Tuple[int, ...]:
        """Distinct covered lines, first-touch order (cached, strided path)."""
        cached = self.__dict__.get("_covered_lines")
        if cached is None:
            cached = tuple(self.geometry.line_addresses(self.base_va))
            object.__setattr__(self, "_covered_lines", cached)
        return cached

    def _covered_set(self) -> FrozenSet[int]:
        cached = self.__dict__.get("_covered_line_set")
        if cached is None:
            cached = frozenset(self._covered())
            object.__setattr__(self, "_covered_line_set", cached)
        return cached

    # -- derived views ---------------------------------------------------------

    def _derived(self, geometry: TensorGeometry, suffix: str, name: Optional[str]) -> "TensorDesc":
        return TensorDesc(
            name=name if name is not None else f"{self.name}{suffix}",
            base_va=self.base_va,
            shape=geometry.shape,
            dtype=self.dtype,
            tensor_id=self.tensor_id,
            role=self.role,
            strides=geometry.strides,
            storage_offset=geometry.storage_offset,
        )

    def view(self, shape: Tuple[int, ...], name: Optional[str] = None) -> "TensorDesc":
        """Reinterpret this (contiguous) view under a new shape."""
        return self._derived(self.geometry.view(shape), ".view", name)

    def slice_(
        self, dim: int, start: int, stop: int, step: int = 1, name: Optional[str] = None
    ) -> "TensorDesc":
        """Narrow dimension ``dim`` to ``[start, stop)`` with ``step``."""
        geometry = self.geometry.slice_(dim, start, stop, step)
        return self._derived(geometry, f".s{dim}[{start}:{stop}:{step}]", name)

    def select(self, dim: int, index: int, name: Optional[str] = None) -> "TensorDesc":
        """Drop dimension ``dim`` by fixing it at ``index``."""
        return self._derived(self.geometry.select(dim, index), f".sel{dim}[{index}]", name)

    def transpose(
        self, dim0: int = -2, dim1: int = -1, name: Optional[str] = None
    ) -> "TensorDesc":
        """Swap two dimensions (metadata-only view)."""
        return self._derived(self.geometry.transpose(dim0, dim1), ".T", name)

    def channels_last(self, name: Optional[str] = None) -> "TensorDesc":
        """NHWC-layout twin of an NCHW tensor (relayout, not a byte view)."""
        return self._derived(self.geometry.channels_last(), ".cl", name)

    # -- sizes -----------------------------------------------------------------

    @property
    def n_elements(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count

    @property
    def nbytes(self) -> int:
        """Payload bytes: elements x element width (not the storage span)."""
        return self.n_elements * self.dtype.nbytes

    @property
    def n_lines(self) -> int:
        """Distinct cachelines the view touches."""
        if self.is_contiguous():
            return lines_in(self.nbytes)
        return len(self._covered())

    @property
    def end_va(self) -> int:
        """One past the last covered cacheline (line-granular span end).

        Containment agrees with this bound: for a contiguous tensor,
        ``contains(va)`` iff ``base_va <= va < end_va``. The payload may
        end mid-line; the tail line still belongs to the tensor.
        """
        if self.is_contiguous():
            return self.base_va + self.n_lines * CACHELINE_BYTES
        return self.last_line_va + CACHELINE_BYTES

    @property
    def last_line_va(self) -> int:
        """VA of the last (highest) cacheline of the view."""
        if self.is_contiguous():
            return self.base_va + (self.n_lines - 1) * CACHELINE_BYTES
        return max(self._covered())

    def contains(self, vaddr: int) -> bool:
        """Whether an address falls on a cacheline covered by this view."""
        if self.is_contiguous():
            return self.base_va <= vaddr < self.end_va
        return vaddr - (vaddr % CACHELINE_BYTES) in self._covered_set()

    # -- iteration helpers ---------------------------------------------------

    def line_addresses(self) -> Iterator[int]:
        """Covered line addresses in walk (first-touch) order.

        Contiguous views stream ascending from ``base_va`` — bit-identical
        to the pre-geometry enumeration; strided views walk the geometry
        in row-major order, each line yielded once.
        """
        if self.is_contiguous():
            for i in range(self.n_lines):
                yield self.base_va + i * CACHELINE_BYTES
            return
        yield from self._covered()

    def shard_lines(self, n_shards: int, shard: int) -> List[int]:
        """Line addresses of contiguous shard ``shard`` of ``n_shards``.

        Used to model data-parallel Adam: thread *t* updates shard *t*.
        Shards partition the walk-order line stream: disjoint, complete,
        and balanced to within one line under any geometry.
        """
        if not 0 <= shard < n_shards:
            raise ConfigError(f"shard {shard} out of range for {n_shards}")
        total = self.n_lines
        base = total // n_shards
        extra = total % n_shards
        start = shard * base + min(shard, extra)
        length = base + (1 if shard < extra else 0)
        if self.is_contiguous():
            return [
                self.base_va + i * CACHELINE_BYTES for i in range(start, start + length)
            ]
        return list(self._covered()[start : start + length])

    def tile_row_lines(self, row: int, col0: int, tile_cols: int) -> List[int]:
        """Line addresses covering one row segment of a 2D tile.

        ``row`` is the absolute row index and the segment spans elements
        ``[col0, col0 + tile_cols)``; the element walk follows the view's
        strides (row-major contiguity is just the default geometry). One
        closed form serves every 2D geometry: a column step under one line
        covers every line from the first element's to the last one's, and
        a longer step puts each element on its own line. Either way the
        lines are distinct and ascending, exactly the first-touch order of
        :meth:`TensorGeometry.line_addresses` over the segment.
        """
        if len(self.shape) != 2:
            raise ConfigError(f"{self.name}: tile iteration needs a 2D tensor")
        if tile_cols <= 0:
            raise ConfigError(f"{self.name}: tile segment needs tile_cols > 0, got {tile_cols}")
        n_rows, n_cols = self.shape
        if not (0 <= row < n_rows and 0 <= col0 and col0 + tile_cols <= n_cols):
            raise ConfigError(f"{self.name}: tile segment out of bounds")
        row_stride, col_stride = self.strides or (n_cols, 1)
        esize = self.dtype.nbytes
        start = self.base_va + esize * (self.storage_offset + row * row_stride + col0 * col_stride)
        step = col_stride * esize
        if step < CACHELINE_BYTES:
            end = start + (tile_cols - 1) * step + esize
            return list(range(start - start % CACHELINE_BYTES, end, CACHELINE_BYTES))
        return [
            byte - byte % CACHELINE_BYTES for byte in range(start, start + tile_cols * step, step)
        ]

    @property
    def row_stride_bytes(self) -> int:
        """Byte stride between consecutive rows (2D tensors)."""
        if len(self.shape) != 2:
            raise ConfigError(f"{self.name}: row stride needs a 2D tensor")
        if self.strides is None:
            return self.shape[1] * self.dtype.nbytes
        return self.strides[0] * self.dtype.nbytes
