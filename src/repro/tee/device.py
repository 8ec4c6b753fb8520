"""Secure devices: the CPU and NPU sides of the collaborative system.

Each device composes a tensor registry, its granularity-appropriate VN
management (TenAnalyzer on the CPU, the on-chip tensor tables on the NPU)
and a :class:`FunctionalMee` over its own simulated DRAM. Both engines run
under the *same* DH session keys after attestation, which is what makes the
direct ciphertext transfer decryptable on the far side (Sec. 4.4).

Ciphertext portability: counters and MACs bind the *source* physical
address; a transferred tensor carries its source coordinates in the
trusted-channel metadata, and the receiving device records them as the
tensor's crypto context (``pa_override``), so no re-encryption is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cpu.tenanalyzer import TenAnalyzer
from repro.errors import ConfigError, IntegrityError
from repro.mem.mee import FunctionalMee
from repro.npu.config import NpuConfig
from repro.npu.delayed import DelayedVerificationEngine
from repro.npu.mac import OnChipTensorMacTable
from repro.npu.vn import TensorVnTable
from repro.sim.stats import Stats
from repro.tensor.dtype import DType
from repro.tensor.registry import TensorRegistry
from repro.tensor.tensor import TensorDesc
from repro.units import CACHELINE_BYTES, KiB, MiB

LINE = CACHELINE_BYTES


@dataclass(frozen=True)
class CryptoContext:
    """Crypto coordinates of a tensor received over the direct channel."""

    src_base_pa: int
    vn: int


class CpuSecureDevice:
    """Host CPU with TenAnalyzer-backed tensor-granularity TEE."""

    def __init__(
        self,
        aes_key: bytes,
        mac_key: bytes,
        protected_bytes: int = 8 * MiB,
        meta_table_capacity: int = 512,
        name: str = "cpu",
    ) -> None:
        self.name = name
        self.stats = Stats(name)
        self.registry = TensorRegistry(base_va=0x7F00_0000_0000, guard_bytes=256 * KiB)
        self.analyzer = TenAnalyzer(
            capacity=meta_table_capacity, stats=self.stats.scope("tenanalyzer")
        )
        self.mee = FunctionalMee(
            aes_key,
            mac_key,
            name=f"{name}.mee",
            protected_bytes=protected_bytes,
            with_merkle=True,
            stats=self.stats.scope("mee"),
        )

    def allocate(self, name: str, shape: Tuple[int, ...], dtype: DType = DType.FP32) -> TensorDesc:
        return self.registry.allocate(name, shape, dtype)

    def write_tensor(self, tensor: TensorDesc, data: bytes) -> None:
        """Write a whole tensor through the analyzer + MEE."""
        if len(data) != tensor.nbytes:
            raise ConfigError(f"{tensor.name}: bad payload size {len(data)}")
        for i, vaddr in enumerate(tensor.line_addresses()):
            chunk = data[i * LINE : (i + 1) * LINE].ljust(LINE, b"\x00")
            outcome = self.analyzer.on_write_va(vaddr)
            old_mac, new_mac = self.mee.write_line(vaddr, chunk, vn=outcome.vn)
            self.analyzer.fold_mac(vaddr, old_mac ^ new_mac)

    def read_tensor(self, tensor: TensorDesc) -> bytes:
        """Read a whole tensor through the analyzer + MEE (verifying)."""
        chunks = []
        for vaddr in tensor.line_addresses():
            outcome = self.analyzer.on_read_va(vaddr)
            chunks.append(self.mee.read_line(vaddr, vn=outcome.vn))
        return b"".join(chunks)[: tensor.nbytes]

    def tensor_metadata(self, tensor: TensorDesc) -> Tuple[int, int]:
        """(VN, tensor MAC) for the trusted channel.

        Served from the Meta Table when a single entry covers the tensor;
        otherwise recomputed from the per-line stores (the slow path a
        cold/uncovered tensor takes).
        """
        fast = self.analyzer.metadata_for_range(tensor.base_va, tensor.n_lines)
        if fast is not None:
            return fast
        vn = self.analyzer.vn_store.read(tensor.base_va)
        mac = 0
        for vaddr in tensor.line_addresses():
            if self.analyzer.vn_store.read(vaddr) != vn:
                raise IntegrityError(
                    f"{tensor.name}: inconsistent per-line VNs; not transferable as one tensor"
                )
            mac ^= self.mee.stored_mac(vaddr)
        return vn, mac

    def base_pa(self, tensor: TensorDesc) -> int:
        return self.mee.pages.translate(tensor.base_va)


class NpuSecureDevice:
    """Discrete NPU with tensor-granularity VN/MAC and delayed verification."""

    def __init__(
        self,
        aes_key: bytes,
        mac_key: bytes,
        config: Optional[NpuConfig] = None,
        protected_bytes: int = 8 * MiB,
        name: str = "npu",
    ) -> None:
        self.name = name
        self.config = config if config is not None else NpuConfig()
        self.stats = Stats(name)
        self.registry = TensorRegistry(base_va=0x4200_0000_0000, guard_bytes=256 * KiB)
        self.mee = FunctionalMee(
            aes_key,
            mac_key,
            name=f"{name}.mee",
            protected_bytes=protected_bytes,
            with_merkle=False,  # VNs live on chip; no tree needed (Sec. 2.2)
            stats=self.stats.scope("mee"),
        )
        self.vn_table = TensorVnTable(self.registry, stats=self.stats.scope("vn"))
        self.mac_table = OnChipTensorMacTable(stats=self.stats.scope("mac"))
        self.engine = DelayedVerificationEngine(
            self.config,
            self.mee,
            self.vn_table,
            self.mac_table,
            stats=self.stats.scope("delayed"),
        )
        self._crypto_ctx: Dict[int, CryptoContext] = {}

    def allocate(self, name: str, shape: Tuple[int, ...], dtype: DType = DType.FP16) -> TensorDesc:
        return self.registry.allocate(name, shape, dtype)

    def write_tensor(self, tensor: TensorDesc, data: bytes) -> None:
        self._crypto_ctx.pop(tensor.tensor_id, None)  # locally rewritten
        self.engine.write_tensor(tensor, data)

    def read_tensor_delayed(self, tensor: TensorDesc) -> bytes:
        ctx = self._crypto_ctx.get(tensor.tensor_id)
        if ctx is None:
            return self.engine.read_tensor_delayed(tensor)
        return self._read_received(tensor, ctx)

    def _read_received(self, tensor: TensorDesc, ctx: CryptoContext) -> bytes:
        """Read a tensor that still carries source-PA crypto coordinates."""
        from repro.crypto.mac import TensorMacAccumulator

        accumulator = TensorMacAccumulator(expected_lines=tensor.n_lines)
        chunks = []
        for i, vaddr in enumerate(tensor.line_addresses()):
            pa_here = self.mee.pages.translate(vaddr)
            ciphertext = self.mee.dram.read_line(pa_here)
            src_pa = ctx.src_base_pa + i * LINE
            accumulator.absorb(self.mee.mac.line_mac(ciphertext, src_pa, ctx.vn))
            chunks.append(self.mee.cipher.decrypt_line(ciphertext, src_pa, ctx.vn))
        if not accumulator.matches(self.mac_table.mac_of(tensor.tensor_id)):
            raise IntegrityError(
                f"{tensor.name}: transferred tensor failed MAC verification"
            )
        self.mac_table.set_poison(tensor.tensor_id, False)
        self.stats.add("received_reads")
        return b"".join(chunks)[: tensor.nbytes]

    def admit_transfer(
        self,
        tensor: TensorDesc,
        vn: int,
        tensor_mac: int,
        src_base_pa: int,
    ) -> None:
        """Record trusted-channel metadata for a directly-received tensor."""
        self.vn_table.set_vn(tensor, vn)
        self.mac_table.set_mac(tensor.tensor_id, tensor_mac)
        self.mac_table.set_poison(tensor.tensor_id, True)  # until first verify
        self._crypto_ctx[tensor.tensor_id] = CryptoContext(src_base_pa=src_base_pa, vn=vn)

    def raw_write_line(self, vaddr: int, ciphertext: bytes) -> None:
        """Direct-channel DMA: ciphertext lands in GDDR untouched."""
        self.mee.dram.write_line(self.mee.pages.translate(vaddr), ciphertext)

    def tensor_metadata(self, tensor: TensorDesc) -> Tuple[int, int]:
        """(VN, tensor MAC) of an NPU tensor for the trusted channel."""
        return self.vn_table.vn_of(tensor), self.mac_table.mac_of(tensor.tensor_id)

    def base_pa(self, tensor: TensorDesc) -> int:
        ctx = self._crypto_ctx.get(tensor.tensor_id)
        if ctx is not None:
            return ctx.src_base_pa
        return self.mee.pages.translate(tensor.base_va)
