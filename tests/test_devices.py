"""Secure-device composition: CPU and NPU device behaviour."""

import pytest

from repro.errors import ConfigError, IntegrityError
from repro.tee.device import CpuSecureDevice, NpuSecureDevice
from repro.tensor.dtype import DType

KEYS = (b"unit-aes-key-16B", b"unit-mac-key-16B")


@pytest.fixture
def cpu():
    return CpuSecureDevice(*KEYS)


@pytest.fixture
def npu():
    return NpuSecureDevice(*KEYS)


def payload(tensor):
    return bytes((i * 11) % 256 for i in range(tensor.nbytes))


class TestCpuDevice:
    def test_write_read_roundtrip(self, cpu):
        t = cpu.allocate("t", (256,), DType.FP32)
        cpu.write_tensor(t, payload(t))
        assert cpu.read_tensor(t) == payload(t)

    def test_bad_payload_size_rejected(self, cpu):
        t = cpu.allocate("t", (256,), DType.FP32)
        with pytest.raises(ConfigError):
            cpu.write_tensor(t, b"short")

    def test_metadata_fast_path_after_detection(self, cpu):
        t = cpu.allocate("t", (256,), DType.FP32)
        cpu.write_tensor(t, payload(t))
        cpu.read_tensor(t)  # detection pass
        cpu.read_tensor(t)  # coverage established
        vn, mac = cpu.tensor_metadata(t)
        assert vn >= 0
        # Fast path: a single Meta Table entry covers the range.
        assert cpu.analyzer.table.covering_range(t.base_va, t.n_lines) is not None

    def test_metadata_slow_path_consistent_vns(self, cpu):
        t = cpu.allocate("t", (64,), DType.FP32)
        cpu.write_tensor(t, payload(t))
        # Invalidate coverage so the slow path recomputes from stores.
        entry = cpu.analyzer.table.entry_of(t.base_va)
        if entry is not None:
            cpu.analyzer.table.invalidate(entry, reason="test")
        vn, mac = cpu.tensor_metadata(t)
        assert vn == 1  # one full write pass

    def test_mixed_vn_range_not_transferable(self, cpu):
        t = cpu.allocate("t", (64,), DType.FP32)
        cpu.write_tensor(t, payload(t))
        entry = cpu.analyzer.table.entry_of(t.base_va)
        if entry is not None:
            cpu.analyzer.table.invalidate(entry, reason="test")
        # One extra line write makes per-line VNs inconsistent.
        outcome = cpu.analyzer.on_write_va(t.base_va)
        cpu.mee.write_line(t.base_va, bytes(64), vn=outcome.vn)
        with pytest.raises(IntegrityError):
            cpu.tensor_metadata(t)


class TestNpuDevice:
    def test_write_read_roundtrip(self, npu):
        t = npu.allocate("t", (256,), DType.FP16)
        npu.write_tensor(t, payload(t))
        assert npu.read_tensor_delayed(t) == payload(t)

    def test_rewrite_bumps_tensor_vn(self, npu):
        t = npu.allocate("t", (64,), DType.FP32)
        npu.write_tensor(t, payload(t))
        npu.write_tensor(t, payload(t))
        assert npu.vn_table.vn_of(t) == 2

    def test_admit_transfer_records_context(self, npu):
        t = npu.allocate("t", (64,), DType.FP32)
        npu.admit_transfer(t, vn=9, tensor_mac=0x123, src_base_pa=0xABC000)
        assert npu.vn_table.vn_of(t) == 9
        assert npu.mac_table.mac_of(t.tensor_id) == 0x123
        assert npu.mac_table.is_poisoned(t.tensor_id)  # until first verify
        assert npu.base_pa(t) == 0xABC000

    def test_local_rewrite_clears_crypto_context(self, npu):
        t = npu.allocate("t", (64,), DType.FP32)
        npu.admit_transfer(t, vn=9, tensor_mac=0x123, src_base_pa=0xABC000)
        npu.write_tensor(t, payload(t))
        assert npu.read_tensor_delayed(t) == payload(t)

    def test_tensor_metadata_roundtrip(self, npu):
        t = npu.allocate("t", (64,), DType.FP32)
        npu.write_tensor(t, payload(t))
        vn, mac = npu.tensor_metadata(t)
        assert vn == 1 and mac != 0
