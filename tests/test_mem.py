"""Memory substrate: backing store, caches, DRAM timing, page table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.eval.scenarios import mee_cache_geometry
from repro.mem.backing import SimulatedDram
from repro.mem.cache import LruCacheCore
from repro.mem.dram import ddr4_2400_2ch, gddr5_npu
from repro.mem.layout import PageTable, line_index, line_of, page_of
from repro.mem.metadata_cache import KEY_SHIFT, MAC_BASE, REGION_STRIDE, TREE_BASE
from repro.units import CACHELINE_BYTES, KiB, PAGE_BYTES


class TestLayout:
    def test_line_and_page_alignment(self):
        assert line_of(130) == 128
        assert line_index(130) == 2
        assert page_of(4097) == 4096

    def test_page_table_deterministic(self):
        a, b = PageTable(seed=7), PageTable(seed=7)
        addrs = [0, 4096, 8192, 123456]
        assert [a.translate(x) for x in addrs] == [b.translate(x) for x in addrs]

    def test_page_table_shuffles_frames(self):
        pt = PageTable(seed=1)
        # Contiguous virtual pages map to discontiguous physical pages
        # (Fig. 9a): at least one adjacent pair must not be adjacent.
        pas = [pt.translate(i * PAGE_BYTES) for i in range(16)]
        deltas = {pas[i + 1] - pas[i] for i in range(15)}
        assert deltas != {PAGE_BYTES}

    def test_offset_within_page_preserved(self):
        pt = PageTable()
        assert pt.translate(4096 + 321) - pt.translate(4096) == 321


class TestSimulatedDram:
    def test_read_default_zero(self):
        dram = SimulatedDram()
        assert dram.read_line(0) == bytes(64)

    def test_write_read_roundtrip(self, line64):
        dram = SimulatedDram()
        dram.write_line(64, line64)
        assert dram.read_line(64) == line64

    def test_alignment_enforced(self):
        dram = SimulatedDram()
        with pytest.raises(ConfigError):
            dram.read_line(1)

    def test_flip_bit(self, line64):
        dram = SimulatedDram()
        dram.write_line(0, line64)
        dram.flip_bit(0, 9)
        corrupted = dram.read_line(0)
        assert corrupted[1] == line64[1] ^ 0x02


class TestSetAssocCache:
    """LRU semantics of the set-associative core the replay loops inline."""

    def test_hit_after_fill(self):
        cache = LruCacheCore.for_cache(capacity_bytes=1024, ways=2)
        assert cache.touch(0) is False
        assert cache.touch(0) is True

    def test_lru_eviction(self):
        cache = LruCacheCore.for_cache(capacity_bytes=2 * 64, ways=2)  # one set, 2 ways
        cache.touch(0)
        cache.touch(1)
        cache.touch(2)  # evicts line 0
        assert cache.touch(0) is False

    def test_lru_touch_protects(self):
        cache = LruCacheCore.for_cache(capacity_bytes=2 * 64, ways=2)
        cache.touch(0)
        cache.touch(1)
        cache.touch(0)  # touch 0 -> 1 becomes LRU
        cache.touch(2)
        assert cache.touch(0) is True

    def test_dirty_writeback_counted(self):
        cache = LruCacheCore.for_cache(capacity_bytes=2 * 64, ways=2)
        cache.touch(0, write=True)
        cache.touch(1)
        cache.touch(2)  # evicts dirty line 0
        assert (cache.evictions, cache.writebacks) == (1, 1)

    def test_flush_reports_dirty(self):
        cache = LruCacheCore.for_cache(capacity_bytes=1024, ways=4)
        cache.touch(0, write=True)
        cache.touch(1)
        assert cache.flush() == 1
        assert not any(cache.sets)

    @pytest.mark.parametrize("capacity, ways", [(32 * KiB, 0), (0, 8), (-64, 8), (32 * KiB, -1)])
    def test_non_positive_geometry_is_a_config_error(self, capacity, ways):
        with pytest.raises(ConfigError, match="capacity and associativity must be positive"):
            LruCacheCore.for_cache(capacity, ways=ways)

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_property_capacity_respected(self, lines):
        cache = LruCacheCore.for_cache(capacity_bytes=8 * 64, ways=2)
        for line in lines:
            cache.touch(line)
        assert sum(len(s) for s in cache.sets) <= 8
        assert all(len(s) <= 2 for s in cache.sets)


class TestMetadataCache:
    """The metadata key layout and the covered-level walk over it."""

    def test_kinds_do_not_alias(self):
        assert KEY_SHIFT == (REGION_STRIDE // CACHELINE_BYTES).bit_length() - 1
        cache = LruCacheCore.for_cache(32 * KiB)
        cache.touch(0)  # VN line 0
        assert cache.contains(0)
        assert not cache.contains(MAC_BASE)
        assert not cache.contains(TREE_BASE + (1 << KEY_SHIFT))

    def test_tree_levels_do_not_alias(self):
        cache = LruCacheCore.for_cache(32 * KiB)
        cache.touch(TREE_BASE + (1 << KEY_SHIFT))  # node 0 at level 1
        assert not cache.contains(TREE_BASE + (2 << KEY_SHIFT))

    def test_covered_level_finds_cached_ancestor(self):
        # Eight VN lines under one level-1 node, a two-level tree: the first
        # read walks to the root (covered level 2) and caches the shared
        # level-1 node, which then covers the other seven reads.
        result = mee_cache_geometry(tensors=1, lines_per_tensor=8, iterations=1)
        assert result.levels == 2
        assert result.mean_covered_level == (2 + 7 * 1) / 8

    def test_zero_way_geometry_is_a_config_error(self):
        with pytest.raises(ConfigError, match="associativity must be positive"):
            mee_cache_geometry(ways=0)


class TestDramTiming:
    def test_table1_bandwidths(self):
        assert ddr4_2400_2ch().peak_bw == pytest.approx(38.4e9)
        assert gddr5_npu().peak_bw == pytest.approx(128e9)

    def test_stream_time_linear(self):
        dram = ddr4_2400_2ch()
        assert dram.stream_time(2e9) == pytest.approx(2 * dram.stream_time(1e9))

    def test_metadata_costs_more(self):
        dram = ddr4_2400_2ch()
        assert dram.effective_bytes(1000, 100) > 1100 - 1e-9

    def test_dependent_chain_latency(self):
        dram = ddr4_2400_2ch()
        assert dram.line_latency(2) == pytest.approx(3 * dram.idle_latency_s)
