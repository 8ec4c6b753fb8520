"""Physical units and helper constants used across the simulator.

Everything in the simulator is expressed in a small set of base units:

- sizes in **bytes** (with ``KiB``/``MiB``/``GiB`` helpers),
- bandwidth in **bytes per second**,
- time in **seconds** (each component converts its cycle counts with its
  own clock frequency, such as ``NpuConfig.freq_hz``).
"""

from __future__ import annotations

KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB

KB: int = 1000
MB: int = 1000 * KB
GB: int = 1000 * MB

#: Size of one cacheline (both CPU and NPU sides use 64-byte lines, Table 1).
CACHELINE_BYTES: int = 64

#: Default small page size used by the virtual-memory layout helpers.
PAGE_BYTES: int = 4096

#: Width of a version number in bits (Intel MEE-style, Sec. 2.2).
VN_BITS: int = 56

#: Width of a MAC in bits (Sec. 4.3 security analysis: 56-bit output space).
MAC_BITS: int = 56

NS = 1e-9
US = 1e-6
MS = 1e-3


def gib_per_s(value: float) -> float:
    """Convert GiB/s to bytes/s."""
    return value * GiB


def gb_per_s(value: float) -> float:
    """Convert (decimal) GB/s to bytes/s."""
    return value * GB


def lines_in(nbytes: int, line_bytes: int = CACHELINE_BYTES) -> int:
    """Number of cachelines covering ``nbytes`` (rounded up)."""
    return -(-nbytes // line_bytes)


def align_down(addr: int, granule: int) -> int:
    """Align ``addr`` down to a multiple of ``granule``."""
    return addr - (addr % granule)


def align_up(addr: int, granule: int) -> int:
    """Align ``addr`` up to a multiple of ``granule``."""
    return align_down(addr + granule - 1, granule)
