"""Batch-kernel parity: each NumPy batch kernel against its per-element reference.

The parity tests are the contract behind every batch kernel here: it must
agree bit-for-bit on random inputs with the per-element production API it
batches where there is one (``encrypt_block``, ``keystream``/``encrypt_line``,
``write_line``/``read_line``, ``gemm_time``), a plain Python fold otherwise.
"""

import functools
import operator
import random

import pytest

from repro.crypto.aes import AES128
from repro.crypto.ctr import CounterModeCipher
from repro.crypto.mac import TensorMacAccumulator, xor_macs
from repro.errors import ConfigError
from repro.mem.mee import FunctionalMee
from repro.npu.config import NpuConfig
from repro.npu.delayed import DelayedVerificationEngine
from repro.npu.systolic import GemmShape, gemm_time, gemm_times
from repro.npu.vn import TensorVnTable
from repro.tensor.dtype import DType
from repro.tensor.registry import TensorRegistry
from repro.units import CACHELINE_BYTES, MiB

LINE = CACHELINE_BYTES
KEY_A = bytes(range(16))
KEY_B = bytes(range(16, 32))

# -- batch kernels against their per-element references ------------------------


class TestKernelParity:
    def test_aes_blocks_match_block_loop(self):
        rng = random.Random(1)
        aes = AES128(KEY_A)
        blocks = rng.randbytes(16 * 257)
        expected = b"".join(
            aes.encrypt_block(blocks[i : i + 16]) for i in range(0, len(blocks), 16)
        )
        assert aes.encrypt_blocks(blocks) == expected

    def test_aes_fips_vector_batched(self):
        aes = AES128(bytes(range(16)))
        block = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert aes.encrypt_blocks(block * 8) == expected * 8

    def test_ctr_lines_match_scalar(self):
        rng = random.Random(2)
        cipher = CounterModeCipher(KEY_A)
        pas = [rng.randrange(1 << 48) * LINE for _ in range(63)]
        vns = [rng.randrange(1 << 56) for _ in pas]
        data = rng.randbytes(len(pas) * LINE)
        assert cipher.keystream_lines(pas, vns) == b"".join(
            cipher.keystream(pa, vn) for pa, vn in zip(pas, vns)
        )
        batched = cipher.encrypt_lines(data, pas, vns)
        assert batched == b"".join(
            cipher.encrypt_line(data[i * LINE : (i + 1) * LINE], pa, vn)
            for i, (pa, vn) in enumerate(zip(pas, vns))
        )
        # XOR is an involution.
        assert cipher.decrypt_lines(batched, pas, vns) == data

    def test_xor_macs_matches_fold(self):
        rng = random.Random(3)
        macs = [rng.randrange(1 << 56) for _ in range(999)]
        expected = functools.reduce(operator.xor, macs, 0)
        assert xor_macs(macs) == expected
        assert xor_macs(iter(macs)) == expected
        assert xor_macs([]) == 0

    def test_batch_apis_reject_mismatched_lengths(self):
        from repro.crypto.mac import MacEngine

        engine = MacEngine(KEY_B)
        cipher = CounterModeCipher(KEY_A)
        with pytest.raises(ConfigError):
            engine.line_macs(bytes(2 * LINE), LINE, [0, LINE], [1])
        with pytest.raises(ConfigError):
            cipher.encrypt_lines(bytes(2 * LINE), [0, LINE], [1])
        with pytest.raises(ConfigError):
            cipher.keystream_lines([0, LINE], [1])

    def test_accumulator_absorb_many(self):
        rng = random.Random(4)
        macs = [rng.randrange(1 << 56) for _ in range(64)]
        one_by_one = TensorMacAccumulator(expected_lines=64)
        for mac in macs:
            one_by_one.absorb(mac)
        batched = TensorMacAccumulator(expected_lines=64)
        batched.absorb_many(macs)
        assert (batched.value, batched.complete) == (one_by_one.value, True)

    def test_mee_bulk_matches_per_line(self):
        rng = random.Random(5)
        vaddrs = [i * LINE for i in range(40)]
        payload = rng.randbytes(len(vaddrs) * LINE)

        def populate(bulk: bool) -> FunctionalMee:
            mee = FunctionalMee(KEY_A, KEY_B, protected_bytes=1 * MiB)
            if bulk:
                mee.write_lines(vaddrs, payload, vn=None)
            else:
                for i, vaddr in enumerate(vaddrs):
                    mee.write_line(vaddr, payload[i * LINE : (i + 1) * LINE])
            return mee

        bulk = populate(bulk=True)
        reference = populate(bulk=False)
        assert bulk.vn_store == reference.vn_store
        assert bulk.mac_store == reference.mac_store
        for vaddr in vaddrs:
            assert bulk.snoop(vaddr) == reference.snoop(vaddr)
        assert bulk.read_lines(vaddrs) == payload
        assert b"".join(reference.read_line(vaddr) for vaddr in vaddrs) == payload
        assert bulk.line_macs_of(vaddrs, vn=1) == [
            reference.line_mac_of(vaddr, vn=1) for vaddr in vaddrs
        ]

    def test_mee_bulk_read_still_detects_tamper(self):
        mee = FunctionalMee(KEY_A, KEY_B, protected_bytes=1 * MiB)
        vaddrs = [i * LINE for i in range(8)]
        mee.write_lines(vaddrs, bytes(len(vaddrs) * LINE))
        mee.tamper_ciphertext(vaddrs[3], flip_bit=7)
        from repro.errors import IntegrityError

        with pytest.raises(IntegrityError):
            mee.read_lines(vaddrs)

    def test_delayed_engine_parity(self):
        registry = TensorRegistry(base_va=0x4200_0000_0000)
        mee = FunctionalMee(KEY_A, KEY_B, with_merkle=False, protected_bytes=1 * MiB)
        vn_table = TensorVnTable(registry)
        engine = DelayedVerificationEngine(NpuConfig(), mee, vn_table)
        tensor = registry.allocate("t", (300,), DType.FP32)
        payload = bytes(i % 251 for i in range(tensor.nbytes))
        engine.write_tensor(tensor, payload)
        data = engine.read_tensor_delayed(tensor)
        assert engine.poll_verification() == []
        # Per-line reference: strict line reads and the XOR of line MACs.
        vn = vn_table.vn_of(tensor)
        vaddrs = list(tensor.line_addresses())
        lines = b"".join(mee.read_line(vaddr, vn=vn, verify=True) for vaddr in vaddrs)
        assert data == lines[: tensor.nbytes] == payload
        line_macs = [mee.line_mac_of(vaddr, vn) for vaddr in vaddrs]
        assert engine.mac_table.mac_of(tensor.tensor_id) == functools.reduce(
            operator.xor, line_macs
        )

    def test_gemm_times_parity(self):
        rng = random.Random(7)
        config = NpuConfig()
        shapes = [
            GemmShape(rng.randrange(1, 5000), rng.randrange(1, 5000), rng.randrange(1, 5000))
            for _ in range(100)
        ]
        assert gemm_times(config, shapes) == [gemm_time(config, shape) for shape in shapes]
        assert gemm_times(config, []) == []
