"""Functional Memory Encryption Engine.

The real-crypto write/read path over the simulated off-chip DRAM: counter-
mode AES-128 with (PA, VN) counters, 56-bit per-line MACs bound to
(C, PA, VN), and — when enabled — an 8-ary Bonsai Merkle Tree protecting
the off-chip VN lines (CPU/SGX configuration; the NPU keeps VNs on chip and
needs no tree, Sec. 2.2).

The *timing* of metadata traffic is modelled elsewhere
(:mod:`repro.cpu.metadata_model`); this class is the functional security
layer the attack tests exercise: tamper with the DRAM, the MAC store, the
VN store or the tree, and reads must raise.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.ctr import CounterModeCipher
from repro.crypto.mac import MacEngine
from repro.crypto.merkle import BonsaiMerkleTree
from repro.errors import ConfigError, IntegrityError, ReplayError
from repro.mem.backing import SimulatedDram
from repro.mem.layout import PageTable
from repro.sim.stats import Stats
from repro.units import CACHELINE_BYTES, MiB

LINE = CACHELINE_BYTES
VNS_PER_LEAF = 8


class FunctionalMee:
    """Encrypt/verify cachelines against an untrusted DRAM."""

    def __init__(
        self,
        aes_key: bytes,
        mac_key: bytes,
        name: str = "mee",
        dram: Optional[SimulatedDram] = None,
        page_table: Optional[PageTable] = None,
        protected_bytes: int = 4 * MiB,
        with_merkle: bool = True,
        stats: Optional[Stats] = None,
    ) -> None:
        if protected_bytes <= 0 or protected_bytes % LINE:
            raise ConfigError("protected region must be a positive multiple of 64B")
        self.name = name
        self.dram = dram if dram is not None else SimulatedDram(name=f"{name}.dram")
        self.pages = page_table if page_table is not None else PageTable()
        self.cipher = CounterModeCipher(aes_key)
        self.mac = MacEngine(mac_key)
        self.stats = stats if stats is not None else Stats(name)
        self._protected_lines = protected_bytes // LINE
        # Off-chip (untrusted, tamperable) metadata stores.
        self.vn_store: Dict[int, int] = {}
        self.mac_store: Dict[int, int] = {}
        self._base_pa: Optional[int] = None
        if with_merkle:
            n_leaves = max(1, self._protected_lines // VNS_PER_LEAF)
            self.merkle: Optional[BonsaiMerkleTree] = BonsaiMerkleTree(
                n_leaves, key=mac_key
            )
        else:
            self.merkle = None

    # -- address helpers ------------------------------------------------------

    def _pa_of(self, vaddr: int) -> int:
        if vaddr % LINE:
            raise ConfigError(f"{self.name}: unaligned line address {vaddr:#x}")
        return self.pages.translate(vaddr)

    def _line_index(self, pa: int) -> int:
        if self._base_pa is None:
            self._base_pa = pa - (pa % (1 << 30))
        index = (pa - self._base_pa) // LINE
        if not 0 <= index < self._protected_lines:
            raise ConfigError(
                f"{self.name}: PA {pa:#x} outside the protected region"
            )
        return index

    def _leaf_payload(self, leaf: int) -> bytes:
        base = leaf * VNS_PER_LEAF
        vns = [self.vn_store.get(base + i, 0) for i in range(VNS_PER_LEAF)]
        return struct.pack(f">{VNS_PER_LEAF}Q", *vns)

    @staticmethod
    def _unique_leaves(indices: Sequence[int]) -> List[int]:
        """Sorted unique Merkle leaves covering a batch of line indices."""
        return sorted({index // VNS_PER_LEAF for index in indices})

    # -- write path -------------------------------------------------------------

    def write_line(self, vaddr: int, plaintext: bytes, vn: Optional[int] = None) -> Tuple[int, int]:
        """Encrypt and store one line.

        ``vn`` overrides the engine's own per-line VN bump (TenAnalyzer and
        the NPU's tensor tables supply their VNs; the SGX path passes None).
        Returns ``(old_mac, new_mac)`` so callers can fold the XOR delta
        into an on-chip tensor MAC (Sec. 4.3).
        """
        pa = self._pa_of(vaddr)
        index = self._line_index(pa)
        if vn is None:
            vn = self.vn_store.get(index, 0) + 1
        self.vn_store[index] = vn
        ciphertext = self.cipher.encrypt_line(plaintext, pa, vn)
        old_mac = self.mac_store.get(index, 0)
        new_mac = self.mac.line_mac(ciphertext, pa, vn)
        self.mac_store[index] = new_mac
        self.dram.write_line(pa, ciphertext)
        if self.merkle is not None:
            leaf = index // VNS_PER_LEAF
            self.merkle.update_leaf(leaf, self._leaf_payload(leaf))
            self.stats.add("merkle_updates")
        self.stats.add("writes")
        return old_mac, new_mac

    def write_lines(
        self,
        vaddrs: Sequence[int],
        plaintexts: bytes,
        vn: Optional[int] = None,
    ) -> Tuple[List[int], List[int]]:
        """Encrypt and store a whole stream of lines in one batch.

        ``plaintexts`` concatenates one full line per address; ``vn`` is
        the shared tensor VN (``None`` bumps each line's own VN, as in
        :meth:`write_line`). Returns the per-line ``(old_macs, new_macs)``
        lists. End state (DRAM, VN/MAC stores, Merkle tree, stats) is
        identical to a :meth:`write_line` loop; the batch encrypts all
        lines through one keystream call and touches each Merkle leaf
        once instead of once per line — the ``merkle_updates`` counter
        tracks leaves actually walked, so the batch reports fewer.
        """
        if len(plaintexts) != len(vaddrs) * LINE:
            raise ConfigError(
                f"{self.name}: batch must be {len(vaddrs)} lines of {LINE} bytes"
            )
        pas = [self._pa_of(vaddr) for vaddr in vaddrs]
        indices = [self._line_index(pa) for pa in pas]
        vns: List[int] = []
        for index in indices:
            line_vn = self.vn_store.get(index, 0) + 1 if vn is None else vn
            self.vn_store[index] = line_vn
            vns.append(line_vn)
        ciphertexts = self.cipher.encrypt_lines(plaintexts, pas, vns)
        new_macs = self.mac.line_macs(ciphertexts, LINE, pas, vns)
        old_macs: List[int] = []
        dram_write = self.dram.write_line
        for i, (pa, index) in enumerate(zip(pas, indices)):
            old_macs.append(self.mac_store.get(index, 0))
            self.mac_store[index] = new_macs[i]
            dram_write(pa, ciphertexts[i * LINE : (i + 1) * LINE])
        if self.merkle is not None:
            leaves = self._unique_leaves(indices)
            for leaf in leaves:
                self.merkle.update_leaf(leaf, self._leaf_payload(leaf))
            if leaves:
                self.stats.add("merkle_updates", len(leaves))
        self.stats.add("writes", len(vaddrs))
        return old_macs, new_macs

    # -- read path ----------------------------------------------------------------

    def read_line(
        self,
        vaddr: int,
        vn: Optional[int] = None,
        verify: bool = True,
    ) -> bytes:
        """Fetch, verify and decrypt one line.

        With ``vn=None`` the off-chip VN store is consulted and — when the
        engine has a Merkle tree — authenticated against the on-chip root
        first (this is what makes VN replay detectable). An on-chip VN
        supplied by the caller skips the tree entirely. ``verify=False``
        skips the MAC check (the NPU's delayed-verification pipeline calls
        back later via :meth:`line_mac_of`).
        """
        pa = self._pa_of(vaddr)
        index = self._line_index(pa)
        if vn is None:
            if self.merkle is not None:
                leaf = index // VNS_PER_LEAF
                self.merkle.verify_leaf(leaf, self._leaf_payload(leaf))
                self.stats.add("merkle_walks")
            vn = self.vn_store.get(index, 0)
        ciphertext = self.dram.read_line(pa)
        if verify:
            expected = self.mac_store.get(index, 0)
            actual = self.mac.line_mac(ciphertext, pa, vn)
            if actual != expected:
                self.stats.add("mac_failures")
                stored_vn = self.vn_store.get(index, 0)
                if stored_vn != vn or self._stale_mac(ciphertext, pa, vn, expected):
                    raise ReplayError(
                        f"{self.name}: stale data replayed at {vaddr:#x}"
                    )
                raise IntegrityError(
                    f"{self.name}: MAC mismatch at {vaddr:#x} (tampered)"
                )
        self.stats.add("reads")
        return self.cipher.decrypt_line(ciphertext, pa, vn)

    def read_lines(
        self,
        vaddrs: Sequence[int],
        vn: Optional[int] = None,
        verify: bool = True,
    ) -> bytes:
        """Fetch, verify and decrypt a whole stream of lines in one batch.

        Same semantics per line as :meth:`read_line` (shared tensor ``vn``
        or per-line off-chip VN with Merkle authentication); the batch
        decrypts every line through one keystream call. Verification
        failures re-raise through the per-line path so the replay/tamper
        classification is identical.
        """
        pas = [self._pa_of(vaddr) for vaddr in vaddrs]
        indices = [self._line_index(pa) for pa in pas]
        if vn is None:
            if self.merkle is not None:
                leaves = self._unique_leaves(indices)
                for leaf in leaves:
                    self.merkle.verify_leaf(leaf, self._leaf_payload(leaf))
                if leaves:
                    self.stats.add("merkle_walks", len(leaves))
            vns = [self.vn_store.get(index, 0) for index in indices]
        else:
            vns = [vn] * len(vaddrs)
        dram_read = self.dram.read_line
        ciphertexts = b"".join(dram_read(pa) for pa in pas)
        if verify:
            actual = self.mac.line_macs(ciphertexts, LINE, pas, vns)
            for i, index in enumerate(indices):
                if actual[i] != self.mac_store.get(index, 0):
                    # Replay the per-line read for its exact failure taxonomy.
                    self.read_line(vaddrs[i], vn=vn, verify=True)
        self.stats.add("reads", len(vaddrs))
        return self.cipher.decrypt_lines(ciphertexts, pas, vns)

    def _stale_mac(self, ciphertext: bytes, pa: int, vn: int, stored_mac: int) -> bool:
        """Heuristic replay classification: does the pair verify under an
        older VN? (Diagnostic only — both cases are rejected either way.)"""
        for old_vn in range(max(0, vn - 4), vn):
            if self.mac.line_mac(ciphertext, pa, old_vn) == stored_mac:
                return True
        return False

    def line_mac_of(self, vaddr: int, vn: int) -> int:
        """Recompute the MAC of the stored ciphertext under ``vn``.

        Used by the NPU's delayed-verification accumulator: per-line MACs
        are XOR-folded as lines stream in, and compared against the on-chip
        tensor MAC at the verification barrier.
        """
        pa = self._pa_of(vaddr)
        ciphertext = self.dram.read_line(pa)
        return self.mac.line_mac(ciphertext, pa, vn)

    def line_macs_of(self, vaddrs: Sequence[int], vn: int) -> List[int]:
        """Batch :meth:`line_mac_of`: stored-ciphertext MACs under ``vn``."""
        pas = [self._pa_of(vaddr) for vaddr in vaddrs]
        dram_read = self.dram.read_line
        ciphertexts = b"".join(dram_read(pa) for pa in pas)
        return self.mac.line_macs(ciphertexts, LINE, pas, [vn] * len(pas))

    def stored_mac(self, vaddr: int) -> int:
        """The off-chip stored MAC for a line (trusted-channel metadata)."""
        return self.mac_store.get(self._line_index(self._pa_of(vaddr)), 0)

    # -- attack surface ----------------------------------------------------------

    def tamper_ciphertext(self, vaddr: int, flip_bit: int = 0) -> None:
        """Corrupt the stored ciphertext of a line."""
        self.dram.flip_bit(self._pa_of(vaddr), flip_bit)

    def replay_line(self, vaddr: int, old_ciphertext: bytes, old_mac: int) -> None:
        """Write back a previously-snooped (ciphertext, MAC) pair."""
        pa = self._pa_of(vaddr)
        self.dram.write_line(pa, old_ciphertext)
        self.mac_store[self._line_index(pa)] = old_mac

    def snoop(self, vaddr: int) -> Tuple[bytes, int]:
        """Bus-snoop the (ciphertext, MAC) of a line."""
        pa = self._pa_of(vaddr)
        return self.dram.read_line(pa), self.mac_store.get(self._line_index(pa), 0)
