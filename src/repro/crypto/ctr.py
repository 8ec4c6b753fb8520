"""Counter-mode memory encryption: ``C = AES(K, (PA, VN)) xor P``.

The counter for each 16-byte sub-block of a 64-byte cacheline packs the
line's physical address, its version number and the sub-block index — the
(PA, VN) construction of Sec. 2.2. Because the keystream depends only on
(key, PA, VN), the same routine both encrypts and decrypts, and a stale VN
yields garbage plaintext (which the MAC then rejects → replay detection).
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.crypto.aes import AES128
from repro.errors import ConfigError
from repro.units import CACHELINE_BYTES


class CounterModeCipher:
    """Counter-mode AES-128 over 64-byte cachelines."""

    def __init__(self, key: bytes, line_bytes: int = CACHELINE_BYTES) -> None:
        if line_bytes % AES128.BLOCK_BYTES != 0:
            raise ConfigError("line size must be a multiple of the AES block")
        self._aes = AES128(key)
        self.line_bytes = line_bytes
        self._blocks_per_line = line_bytes // AES128.BLOCK_BYTES
        # Keystream blocks repeat heavily across a simulation (same PA/VN
        # pairs during reads); memoise them per cipher instance.
        self._keystream_block = lru_cache(maxsize=65536)(self._keystream_block_uncached)

    def _keystream_block_uncached(self, pa: int, vn: int, block_index: int) -> bytes:
        counter = struct.pack(
            ">QQ",
            pa & 0xFFFFFFFFFFFFFFFF,
            ((vn & 0x00FFFFFFFFFFFFFF) << 8) | (block_index & 0xFF),
        )
        return self._aes.encrypt_block(counter)

    def keystream(self, pa: int, vn: int) -> bytes:
        """Full keystream for the line at physical address ``pa``."""
        parts = [self._keystream_block(pa, vn, i) for i in range(self._blocks_per_line)]
        return b"".join(parts)

    def encrypt_line(self, plaintext: bytes, pa: int, vn: int) -> bytes:
        """Encrypt (or decrypt — XOR is an involution) one cacheline."""
        if len(plaintext) != self.line_bytes:
            raise ConfigError(
                f"line must be {self.line_bytes} bytes, got {len(plaintext)}"
            )
        stream = self.keystream(pa, vn)
        return self._xor(plaintext, stream)

    decrypt_line = encrypt_line

    @staticmethod
    def _xor(data: bytes, stream: bytes) -> bytes:
        width = len(data)
        return (
            int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(width, "big")

    # -- batched line streams -------------------------------------------------

    def keystream_lines(self, pas: Sequence[int], vns: Sequence[int]) -> bytes:
        """Concatenated keystreams for many ``(PA, VN)`` lines at once.

        Builds every line's counter blocks as one array and pushes them
        through the batched AES; byte-identical to a per-line
        :meth:`keystream` loop (which memoises, this path does not).
        """
        if len(pas) != len(vns):
            raise ConfigError("pas and vns must pair up one per line")
        if not pas:
            return b""
        blocks = self._blocks_per_line
        counters = np.empty((len(pas), blocks, 2), dtype=">u8")
        counters[:, :, 0] = np.asarray(
            [pa & 0xFFFFFFFFFFFFFFFF for pa in pas], dtype=np.uint64
        )[:, None]
        vn_words = np.asarray(
            [((vn & 0x00FFFFFFFFFFFFFF) << 8) for vn in vns], dtype=np.uint64
        )
        counters[:, :, 1] = vn_words[:, None] | np.arange(blocks, dtype=np.uint64)
        return self._aes.encrypt_blocks(counters.tobytes())

    def encrypt_lines(
        self, plaintexts: bytes, pas: Sequence[int], vns: Sequence[int]
    ) -> bytes:
        """Encrypt (or decrypt) many whole lines in one batch.

        ``plaintexts`` is the concatenation of ``len(pas)`` lines; the
        result is the concatenation of each line XORed with its own
        ``(PA, VN)`` keystream — byte-identical to an :meth:`encrypt_line`
        loop.
        """
        if len(pas) != len(vns):
            raise ConfigError("pas and vns must pair up one per line")
        if len(plaintexts) != len(pas) * self.line_bytes:
            raise ConfigError(
                f"batch must be {len(pas)} lines of {self.line_bytes} bytes, "
                f"got {len(plaintexts)} bytes"
            )
        if not pas:
            return b""
        stream = self.keystream_lines(pas, vns)
        data = np.frombuffer(plaintexts, dtype=np.uint8)
        return (data ^ np.frombuffer(stream, dtype=np.uint8)).tobytes()

    decrypt_lines = encrypt_lines
