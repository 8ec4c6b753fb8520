"""Pure-Python AES-128 block encryption (FIPS-197).

Only encryption is implemented because counter mode (the mode TEE memory
encryption engines use, Sec. 2.2) needs the forward permutation for both
encryption and decryption. The S-box and round constants are derived
programmatically; correctness is pinned to the FIPS-197 test vector in the
test suite.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import ConfigError


def _rotl8(value: int, shift: int) -> int:
    return ((value << shift) | (value >> (8 - shift))) & 0xFF


def _build_sbox() -> List[int]:
    """Derive the AES S-box (GF(2^8) inverse followed by the affine map)."""
    sbox = [0] * 256
    p, q = 1, 1
    while True:
        # p iterates multiplicative generator x3; q tracks its inverse (/3).
        p = p ^ ((p << 1) & 0xFF) ^ (0x1B if p & 0x80 else 0)
        q ^= (q << 1) & 0xFF
        q ^= (q << 2) & 0xFF
        q ^= (q << 4) & 0xFF
        if q & 0x80:
            q ^= 0x09
        transformed = q ^ _rotl8(q, 1) ^ _rotl8(q, 2) ^ _rotl8(q, 3) ^ _rotl8(q, 4)
        sbox[p] = transformed ^ 0x63
        if p == 1:
            break
    sbox[0] = 0x63
    return sbox


_SBOX = _build_sbox()
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(value: int) -> int:
    """Multiply by x in GF(2^8)."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


# Lookup tables for the batched round functions. ``_NP_SHIFT_IDX[i]`` is the
# source index ShiftRows reads byte ``i`` from (column-major state layout).
_NP_SBOX = np.array(_SBOX, dtype=np.uint8)
_NP_XTIME = np.array([_xtime(v) for v in range(256)], dtype=np.uint8)
_NP_SHIFT_IDX = np.array(
    [4 * ((c + r) % 4) + r for c in range(4) for r in range(4)], dtype=np.intp
)


class AES128:
    """AES-128 forward cipher over 16-byte blocks.

    >>> key = bytes(range(16))
    >>> AES128(key).encrypt_block(bytes.fromhex(
    ...     "00112233445566778899aabbccddeeff")).hex()
    '69c4e0d86a7b0430d8cdb78070b4c55a'
    """

    BLOCK_BYTES = 16
    ROUNDS = 10

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ConfigError(f"AES-128 key must be 16 bytes, got {len(key)}")
        self.key = key
        self._round_keys = self._expand_key(key)
        self._np_round_keys = np.array(self._round_keys, dtype=np.uint8)

    @staticmethod
    def _expand_key(key: bytes) -> List[List[int]]:
        """FIPS-197 key schedule; returns 11 round keys of 16 bytes each."""
        words = [list(key[i : i + 4]) for i in range(0, 16, 4)]
        for i in range(4, 44):
            temp = list(words[i - 1])
            if i % 4 == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // 4 - 1]
            words.append([a ^ b for a, b in zip(words[i - 4], temp)])
        round_keys = []
        for r in range(11):
            flat: List[int] = []
            for w in words[4 * r : 4 * r + 4]:
                flat.extend(w)
            round_keys.append(flat)
        return round_keys

    @staticmethod
    def _sub_bytes(state: List[int]) -> None:
        for i, b in enumerate(state):
            state[i] = _SBOX[b]

    @staticmethod
    def _shift_rows(state: List[int]) -> List[int]:
        # State is column-major: byte (row r, col c) lives at index 4*c + r.
        shifted = [0] * 16
        for c in range(4):
            for r in range(4):
                shifted[4 * c + r] = state[4 * ((c + r) % 4) + r]
        return shifted

    @staticmethod
    def _mix_columns(state: List[int]) -> List[int]:
        mixed = [0] * 16
        for c in range(4):
            col = state[4 * c : 4 * c + 4]
            mixed[4 * c + 0] = _xtime(col[0]) ^ _xtime(col[1]) ^ col[1] ^ col[2] ^ col[3]
            mixed[4 * c + 1] = col[0] ^ _xtime(col[1]) ^ _xtime(col[2]) ^ col[2] ^ col[3]
            mixed[4 * c + 2] = col[0] ^ col[1] ^ _xtime(col[2]) ^ _xtime(col[3]) ^ col[3]
            mixed[4 * c + 3] = _xtime(col[0]) ^ col[0] ^ col[1] ^ col[2] ^ _xtime(col[3])
        return mixed

    @staticmethod
    def _add_round_key(state: List[int], round_key: List[int]) -> None:
        for i in range(16):
            state[i] ^= round_key[i]

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != self.BLOCK_BYTES:
            raise ConfigError(f"block must be 16 bytes, got {len(block)}")
        state = list(block)
        self._add_round_key(state, self._round_keys[0])
        for round_index in range(1, self.ROUNDS):
            self._sub_bytes(state)
            state = self._shift_rows(state)
            state = self._mix_columns(state)
            self._add_round_key(state, self._round_keys[round_index])
        self._sub_bytes(state)
        state = self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self.ROUNDS])
        return bytes(state)

    def encrypt_blocks(self, blocks: bytes) -> bytes:
        """Encrypt a concatenation of 16-byte blocks in one batch.

        Bit-identical to calling :meth:`encrypt_block` per block; the whole
        batch moves through each round function together as NumPy arrays,
        which is what makes bulk counter-mode keystream generation fast.
        """
        if len(blocks) % self.BLOCK_BYTES:
            raise ConfigError(
                f"batch must be a multiple of {self.BLOCK_BYTES} bytes, got {len(blocks)}"
            )
        if not blocks:
            return b""
        sbox, xtime, shift_idx = _NP_SBOX, _NP_XTIME, _NP_SHIFT_IDX
        round_keys = self._np_round_keys
        state = np.frombuffer(blocks, dtype=np.uint8).reshape(-1, 16).copy()
        state ^= round_keys[0]
        for round_index in range(1, self.ROUNDS):
            state = sbox[state][:, shift_idx]
            # MixColumns on the (N, col, row) view of the column-major state.
            cols = state.reshape(-1, 4, 4)
            c0, c1, c2, c3 = (cols[:, :, r] for r in range(4))
            x0, x1, x2, x3 = xtime[c0], xtime[c1], xtime[c2], xtime[c3]
            mixed = np.empty_like(cols)
            mixed[:, :, 0] = x0 ^ x1 ^ c1 ^ c2 ^ c3
            mixed[:, :, 1] = c0 ^ x1 ^ x2 ^ c2 ^ c3
            mixed[:, :, 2] = c0 ^ c1 ^ x2 ^ x3 ^ c3
            mixed[:, :, 3] = x0 ^ c0 ^ c1 ^ c2 ^ x3
            state = mixed.reshape(-1, 16)
            state ^= round_keys[round_index]
        state = sbox[state][:, shift_idx]
        state ^= round_keys[self.ROUNDS]
        return state.tobytes()
