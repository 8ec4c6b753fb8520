"""Tensor descriptors and registry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.tensor.dtype import DType
from repro.tensor.registry import TensorRegistry
from repro.tensor.tensor import TensorDesc


class TestTensorDesc:
    def test_nbytes_and_lines(self):
        t = TensorDesc("t", 0, (100,), DType.FP32)
        assert t.nbytes == 400
        assert t.n_lines == 7  # ceil(400/64)

    def test_line_addresses_contiguous(self):
        t = TensorDesc("t", 128, (64,), DType.FP32)
        addrs = list(t.line_addresses())
        assert addrs[0] == 128
        assert all(b - a == 64 for a, b in zip(addrs, addrs[1:]))

    def test_shards_partition_lines(self):
        t = TensorDesc("t", 0, (1000,), DType.FP32)
        shards = [t.shard_lines(4, i) for i in range(4)]
        flat = [a for shard in shards for a in shard]
        assert flat == list(t.line_addresses())

    def test_uneven_shards(self):
        t = TensorDesc("t", 0, (16 * 5,), DType.FP32)  # 5 lines
        sizes = [len(t.shard_lines(4, i)) for i in range(4)]
        assert sum(sizes) == 5
        assert max(sizes) - min(sizes) <= 1

    def test_tile_row_lines_2d(self):
        t = TensorDesc("m", 0, (8, 32), DType.FP32)  # rows of 128B = 2 lines
        lines = t.tile_row_lines(1, 0, 16)  # second row, first 16 cols = 64B
        assert lines == [128]

    def test_tile_bounds_checked(self):
        t = TensorDesc("m", 0, (8, 32), DType.FP32)
        with pytest.raises(ConfigError):
            t.tile_row_lines(8, 0, 16)
        # Empty and negative segments are rejected on every geometry.
        contiguous = TensorDesc("c", 0, (8, 40), DType.FP32)
        strided = TensorDesc("s", 0, (8, 120), DType.FP32).slice_(1, 0, 120, 3)
        for view in (contiguous, strided):
            for col0, tile_cols in ((3, 0), (5, -2)):
                with pytest.raises(ConfigError, match="tile_cols > 0"):
                    view.tile_row_lines(1, col0, tile_cols)

    def test_unaligned_base_rejected(self):
        with pytest.raises(ConfigError):
            TensorDesc("t", 1, (4,), DType.FP32)

    @given(n=st.integers(1, 5000), shards=st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_property_shards_cover_exactly(self, n, shards):
        t = TensorDesc("t", 0, (n,), DType.FP16)
        total = sum(len(t.shard_lines(shards, i)) for i in range(shards))
        assert total == t.n_lines


class TestRegistry:
    def test_allocation_no_overlap(self, registry):
        a = registry.allocate("a", (1000,))
        b = registry.allocate("b", (1000,))
        assert a.base_va + a.nbytes <= b.base_va

    def test_guard_gap_applied(self):
        r = TensorRegistry(guard_bytes=256 * 1024)
        a = r.allocate("a", (16,))
        b = r.allocate("b", (16,))
        assert b.base_va - a.base_va >= 256 * 1024

    def test_find_by_address(self, registry):
        t = registry.allocate("x", (100,))
        assert registry.find(t.base_va) is t
        assert registry.find(t.base_va + 64) is t
        assert registry.find(t.base_va - 64) is None

    def test_duplicate_name_rejected(self, registry):
        registry.allocate("dup", (4,))
        with pytest.raises(ConfigError):
            registry.allocate("dup", (4,))

    def test_lookup_by_id_and_name(self, registry):
        t = registry.allocate("named", (4,))
        assert registry.by_id(t.tensor_id) is t
        assert registry.by_name("named") is t

    def test_total_bytes(self, registry):
        registry.allocate("a", (16,))
        registry.allocate("b", (16,))
        assert registry.total_bytes == 2 * 64
