"""56-bit message authentication codes and XOR-combinable tensor MACs.

Per Sec. 2.2, ``MAC = Hash(K_mac, (C, PA, VN))`` with a 56-bit output.
Per Sec. 4.3, the *tensor* MAC is the XOR of its cachelines' MACs, which is
order-insensitive (so tiled NPU access orders all produce the same value)
and keeps forgery resistance at the 56-bit level.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable, List, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.units import MAC_BITS

_MAC_BYTES = MAC_BITS // 8  # 7 bytes = 56 bits


class MacEngine:
    """Keyed-hash MAC over ``(ciphertext, PA, VN)`` tuples."""

    def __init__(self, key: bytes) -> None:
        if not key:
            raise ConfigError("MAC key must be non-empty")
        self.key = key

    def line_mac(self, ciphertext: bytes, pa: int, vn: int) -> int:
        """56-bit MAC of one cacheline as an integer."""
        h = hashlib.blake2b(key=self.key, digest_size=_MAC_BYTES)
        h.update(struct.pack(">QQ", pa & 0xFFFFFFFFFFFFFFFF, vn & 0xFFFFFFFFFFFFFFFF))
        h.update(ciphertext)
        return int.from_bytes(h.digest(), "big")

    def digest(self, payload: bytes) -> int:
        """56-bit MAC over an arbitrary payload (used for reports/channels)."""
        h = hashlib.blake2b(key=self.key, digest_size=_MAC_BYTES)
        h.update(payload)
        return int.from_bytes(h.digest(), "big")

    def line_macs(
        self, ciphertexts: bytes, line_bytes: int, pas: Sequence[int], vns: Sequence[int]
    ) -> List[int]:
        """Per-line MACs for a concatenation of lines (bulk-path helper).

        The keyed hash itself is C-speed and per-line by construction, so
        this is a convenience batch API rather than a vectorization point;
        it exists so the MEE bulk paths have one call per stream.
        """
        if len(pas) != len(vns):
            raise ConfigError("pas and vns must pair up one per line")
        if len(ciphertexts) != len(pas) * line_bytes:
            raise ConfigError(
                f"batch must be {len(pas)} lines of {line_bytes} bytes, "
                f"got {len(ciphertexts)} bytes"
            )
        line_mac = self.line_mac
        return [
            line_mac(ciphertexts[i * line_bytes : (i + 1) * line_bytes], pa, vn)
            for i, (pa, vn) in enumerate(zip(pas, vns))
        ]


def xor_macs(macs: Iterable[int]) -> int:
    """Fold per-line MACs into a tensor MAC: ``MAC_0 ^ MAC_1 ^ ...``."""
    seq = macs if isinstance(macs, (list, tuple)) else list(macs)
    if not seq:
        return 0
    return int(np.bitwise_xor.reduce(np.asarray(seq, dtype=np.uint64)))


class TensorMacAccumulator:
    """Streaming XOR accumulator for a tensor's MAC (Sec. 4.3).

    The accumulator is order-insensitive, so an NPU kernel can consume the
    tensor in any tiled order and still converge to the same tensor MAC.

    >>> acc = TensorMacAccumulator(expected_lines=2)
    >>> acc.absorb(0x0F)
    >>> acc.complete
    False
    >>> acc.absorb(0xF0)
    >>> (acc.value, acc.complete)
    (255, True)
    """

    def __init__(self, expected_lines: int) -> None:
        if expected_lines <= 0:
            raise ConfigError("a tensor MAC covers at least one line")
        self.expected_lines = expected_lines
        self.absorbed = 0
        self.value = 0

    def absorb(self, line_mac: int) -> None:
        """Fold one cacheline MAC into the accumulator."""
        self.value ^= line_mac
        self.absorbed += 1

    def absorb_many(self, line_macs: Sequence[int]) -> None:
        """Fold a whole stream of line MACs at once (order-insensitive)."""
        self.value ^= xor_macs(line_macs)
        self.absorbed += len(line_macs)

    @property
    def complete(self) -> bool:
        """True once every expected line has been absorbed."""
        return self.absorbed >= self.expected_lines

    def matches(self, reference: int) -> bool:
        """Compare against the stored tensor MAC; only valid when complete."""
        return self.complete and self.value == reference
