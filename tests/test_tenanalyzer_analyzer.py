"""TenAnalyzer dataflows: filter, table, read/write paths, invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.tenanalyzer import TenAnalyzer
from repro.cpu.tenanalyzer.analyzer import ReadKind, WriteKind
from repro.cpu.tenanalyzer.meta_table import MetaTable
from repro.cpu.tenanalyzer.tensor_filter import TensorFilter
from repro.errors import ConfigError
from repro.sim.trace_batch import KIND_READ, KIND_WRITE, TraceBatch
from repro.tensor.registry import TensorRegistry
from repro.units import KiB
from repro.workloads.traces import AdamTraceConfig, adam_iteration_batch, build_adam_groups

LINE = 64
BASE = 0x10000


def read(analyzer, va):
    return analyzer.on_read_va(va)


def write(analyzer, va):
    return analyzer.on_write_va(va)


class TestArgumentChecks:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("capacity", 0),
            ("capacity", -1),
            ("merge_window", 0),
            ("merge_window", -1),
            ("replacement", "fifo"),
        ],
    )
    def test_meta_table_rejects(self, name, value):
        with pytest.raises(ConfigError):
            MetaTable(**{name: value})

    @pytest.mark.parametrize(
        "name, value", [("n_entries", 0), ("collect_target", 0), ("collect_target", 1)]
    )
    def test_tensor_filter_rejects(self, name, value):
        with pytest.raises(ConfigError):
            TensorFilter(**{name: value})

    def test_analyzer_capacity_message(self):
        with pytest.raises(ConfigError, match="Meta Table capacity must be positive"):
            TenAnalyzer(capacity=0)


class TestTensorFilter:
    def test_detects_after_four_consecutive_lines(self):
        f = TensorFilter()
        assert f.observe(BASE, 0) is None
        assert f.observe(BASE + LINE, 0) is None
        assert f.observe(BASE + 2 * LINE, 0) is None
        geometry = f.observe(BASE + 3 * LINE, 0)
        assert geometry is not None
        assert geometry.base_va == BASE and geometry.n_lines == 4

    def test_vn_change_restarts_stream(self):
        f = TensorFilter()
        f.observe(BASE, 0)
        f.observe(BASE + LINE, 0)
        assert f.observe(BASE + 2 * LINE, 1) is None  # VN broke the condition
        assert f.stats["vn_restarts"] == 1

    def test_lru_eviction_under_pressure(self):
        f = TensorFilter(n_entries=2)
        f.observe(0x0, 0)
        f.observe(0x100000, 0)
        f.observe(0x200000, 0)  # evicts the oldest stream
        assert f.occupancy == 2
        assert f.stats["evictions"] == 1

    def test_interleaved_streams_detected_independently(self):
        f = TensorFilter()
        a, b = 0x0, 0x100000
        for i in range(3):
            assert f.observe(a + i * LINE, 0) is None
            assert f.observe(b + i * LINE, 0) is None
        assert f.observe(a + 3 * LINE, 0) is not None
        assert f.observe(b + 3 * LINE, 0) is not None


class TestReadDataflow:
    def test_detection_then_boundary_then_hit_in(self):
        analyzer = TenAnalyzer()
        # First pass: 4 misses (filter) then boundary extensions.
        kinds = [read(analyzer, BASE + i * LINE).kind for i in range(8)]
        assert kinds[:4] == [ReadKind.MISS] * 4
        assert kinds[4:] == [ReadKind.HIT_BOUNDARY] * 4
        # Second pass: all hit-in.
        kinds = [read(analyzer, BASE + i * LINE).kind for i in range(8)]
        assert kinds == [ReadKind.HIT_IN] * 8

    def test_hit_in_needs_no_offchip_fetch(self):
        analyzer = TenAnalyzer()
        for i in range(8):
            read(analyzer, BASE + i * LINE)
        result = read(analyzer, BASE)
        assert result.kind is ReadKind.HIT_IN
        assert result.offchip_vn_fetches == 0 and not result.critical_fetch

    def test_boundary_fetch_off_critical_path(self):
        analyzer = TenAnalyzer()
        for i in range(4):
            read(analyzer, BASE + i * LINE)
        result = read(analyzer, BASE + 4 * LINE)
        assert result.kind is ReadKind.HIT_BOUNDARY
        assert result.offchip_vn_fetches == 1 and not result.critical_fetch

    def test_boundary_vn_mismatch_mispredicts(self):
        analyzer = TenAnalyzer()
        for i in range(5):
            read(analyzer, BASE + i * LINE)
        # Bump the off-chip VN of the next boundary line behind the entry's back.
        analyzer.vn_store.set(BASE + 5 * LINE, 9)
        result = read(analyzer, BASE + 5 * LINE)
        assert result.kind is ReadKind.MISS
        assert result.vn == 9
        assert analyzer.stats["boundary_mispredict"] == 1

    def test_disabled_analyzer_always_misses(self):
        analyzer = TenAnalyzer(enabled=False)
        for i in range(8):
            assert read(analyzer, BASE + i * LINE).kind is ReadKind.MISS
        assert analyzer.table.n_entries == 0


class TestWriteDataflow:
    def _detect(self, analyzer, n=8):
        for i in range(n):
            read(analyzer, BASE + i * LINE)

    def test_covered_writes_track_and_complete(self):
        analyzer = TenAnalyzer()
        self._detect(analyzer)
        results = [write(analyzer, BASE + i * LINE) for i in range(8)]
        assert results[0].kind is WriteKind.HIT_EDGE
        assert results[-1].completed_tensor
        assert analyzer.stats["write_completed_tensors"] == 1

    def test_uncovered_write_bumps_offchip(self):
        analyzer = TenAnalyzer()
        result = write(analyzer, 0x900000)
        assert result.kind is WriteKind.MISS
        assert analyzer.vn_store.read(0x900000) == 1

    def test_double_write_invalidates_entry(self):
        analyzer = TenAnalyzer()
        self._detect(analyzer)
        write(analyzer, BASE)
        result = write(analyzer, BASE)  # Assert1 violation
        assert result.violation
        assert analyzer.table.entry_of(BASE) is None
        # Off-chip VNs stay consistent after invalidation sync.
        assert analyzer.vn_store.read(BASE) == 2
        assert analyzer.vn_store.read(BASE + LINE) == 0

    def test_write_snoops_filter(self):
        analyzer = TenAnalyzer()
        read(analyzer, BASE)
        read(analyzer, BASE + LINE)  # half-collected stream in the filter
        write(analyzer, BASE + LINE)
        read(analyzer, BASE + 2 * LINE)
        read(analyzer, BASE + 3 * LINE)
        # The stale stream was dropped, so no entry with a stale VN exists.
        entry = analyzer.table.entry_of(BASE)
        assert entry is None


class TestMerge:
    def test_merge_takes_a_fresh_id_and_keeps_the_index_exact(self):
        analyzer = TenAnalyzer()
        table = analyzer.table
        for i in range(4, 8):
            read(analyzer, BASE + i * LINE)  # detects lines 4-7
        write(analyzer, BASE + 4 * LINE)  # mid-update: not mergeable
        for i in range(4):
            read(analyzer, BASE + i * LINE)  # detects lines 0-3
        for i in range(5, 8):
            write(analyzer, BASE + i * LINE)  # completes 4-7 at VN 1
        for i in range(3):
            write(analyzer, BASE + i * LINE)
        parts = {entry.entry_id for entry in table.entries()}
        assert len(parts) == 2 and table.stats["merges"] == 0
        next_id = table._next_id
        write(analyzer, BASE + 3 * LINE)  # completes 0-3 at VN 1: they merge
        (merged,) = table.entries()
        assert table.stats["merges"] == 1
        assert merged.entry_id == next_id and table._next_id == next_id + 1
        assert not parts & set(table._entries)
        assert (merged.geometry.base_va, merged.geometry.n_lines, merged.vn) == (BASE, 8, 1)
        cell = table._line_map[BASE]
        assert table.entry_of(BASE) is merged
        assert all(table._line_map[line] is cell for line in merged.geometry.covered_lines())
        assert len(table._line_map) == 8
        assert table._boundary_map == {BASE + 8 * LINE: merged.entry_id}

    def test_fold_mac_after_a_completion_merge_reaches_the_merged_entry(self):
        # The device folds a write's MAC delta after the write returns,
        # by which time the write's completion has merged its entry away.
        analyzer = TenAnalyzer()
        analyzer.install_from_transfer(BASE, 4, vn=1)
        analyzer.install_from_transfer(BASE + 4 * LINE, 4, vn=0)
        assert analyzer.fold_mac(BASE, 0x1111)
        assert analyzer.fold_mac(BASE + 4 * LINE, 0x2222)
        for i in range(4, 8):
            result = write(analyzer, BASE + i * LINE)  # the last completes 4-7 at VN 1
        assert result.completed_tensor and analyzer.table.stats["merges"] == 1
        assert analyzer.fold_mac(BASE + 7 * LINE, 0x4444)
        (merged,) = analyzer.table.entries()
        assert (merged.geometry.base_va, merged.geometry.n_lines, merged.vn) == (BASE, 8, 1)
        assert merged.mac == 0x1111 ^ 0x2222 ^ 0x4444


class TestTransferInstall:
    def test_install_creates_full_entry(self):
        analyzer = TenAnalyzer()
        analyzer.install_from_transfer(BASE, 16, vn=5)
        result = read(analyzer, BASE + 7 * LINE)
        assert result.kind is ReadKind.HIT_IN and result.vn == 5

    def test_metadata_for_range(self):
        analyzer = TenAnalyzer()
        analyzer.install_from_transfer(BASE, 16, vn=5)
        metadata = analyzer.metadata_for_range(BASE, 16)
        assert metadata is not None and metadata[0] == 5

    def test_metadata_for_range_needs_every_line_covered(self):
        analyzer = TenAnalyzer()
        # Covers BASE + {0, 8, 16, 24} lines: a contiguous 25-line range
        # starting at BASE has 21 uncovered lines, so no metadata for it.
        analyzer.install_from_transfer(BASE, 4, vn=3, stride_lines=8)
        assert analyzer.metadata_for_range(BASE, 25) is None
        assert analyzer.metadata_for_range(BASE, 1) == (3, 0)
        assert analyzer.metadata_for_range(BASE + 8 * LINE, 1) == (3, 0)

    def test_metadata_unavailable_when_uncovered(self):
        analyzer = TenAnalyzer()
        assert analyzer.metadata_for_range(BASE, 16) is None


#: How a trace reaches the analyzer: one access at a time through
#: ``on_read_va``/``on_write_va``, or as a whole window through
#: ``replay_window``.
MODES = ("per_access", "replay")


def _check_vns(analyzer, batch, mode, truth):
    """Feed ``batch`` in ``mode`` and check every VN against ``truth``."""
    vaddrs, kinds = batch.columns()
    if mode == "replay":
        vns = analyzer.replay_window(vaddrs, kinds)
    else:
        vns = [
            analyzer.on_read_va(va).vn if kind == KIND_READ else analyzer.on_write_va(va).vn
            for va, kind in zip(vaddrs, kinds)
        ]
    for vaddr, kind, vn in zip(vaddrs, kinds, vns):
        if kind == KIND_READ:
            assert vn == truth.get(vaddr, 0)
        else:
            truth[vaddr] = truth.get(vaddr, 0) + 1
            assert vn == truth[vaddr]


class TestVnConsistencyInvariant:
    """The central security invariant: the VN the analyzer supplies always
    equals the ground-truth write count of the line, in every input mode."""

    @given(seed=st.integers(0, 2**16), threads=st.sampled_from([1, 2, 4]))
    @settings(max_examples=8, deadline=None)
    def test_property_adam_iterations_consistent(self, seed, threads):
        registry = TensorRegistry(alignment=4 * KiB, guard_bytes=256 * KiB)
        groups = build_adam_groups(registry, n_layers=2, lines_per_tensor=16)
        config = AdamTraceConfig(threads=threads, thread_skew=0.2, seed=seed)
        for mode in MODES:
            analyzer = TenAnalyzer(capacity=24)  # force eviction churn too
            rng = random.Random(seed)
            truth = {}
            for _ in range(3):
                _check_vns(analyzer, adam_iteration_batch(groups, config, rng), mode, truth)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_property_random_mixed_traffic_consistent(self, seed):
        rng = random.Random(seed)
        lines = [BASE + i * LINE for i in range(64)]
        accesses = [
            (rng.choice(lines), KIND_READ if rng.random() < 0.5 else KIND_WRITE)
            for _ in range(600)
        ]
        batch = TraceBatch(*zip(*accesses))
        for mode in MODES:
            _check_vns(TenAnalyzer(capacity=16), batch, mode, {})
