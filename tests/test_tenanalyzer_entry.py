"""Meta Table entry geometry, write tracking and merging."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.tenanalyzer.entry import EntryGeometry, try_merge_geometries
from repro.cpu.tenanalyzer.meta_table import MetaTable
from repro.errors import SimulationError

LINE = 64


def geom_1d(base: int, n: int) -> EntryGeometry:
    return EntryGeometry(base, n, n, 1, extensible_run=True)


def geom_2d(base: int, run: int, stride: int, count: int) -> EntryGeometry:
    return EntryGeometry(base, run, stride, count, extensible_run=False)


class TestGeometry:
    def test_1d_contains_and_boundary(self):
        g = geom_1d(0, 4)
        assert g.contains_line(0) and g.contains_line(3 * LINE)
        assert not g.contains_line(4 * LINE)
        assert g.boundary_va() == 4 * LINE

    def test_1d_extension(self):
        g = geom_1d(0, 4)
        g.extend()
        assert g.n_lines == 5
        assert g.contains_line(4 * LINE)

    def test_2d_contains_respects_gaps(self):
        g = geom_2d(0, 4, 16, 2)  # lines 0-3 and 16-19
        assert g.contains_line(3 * LINE)
        assert not g.contains_line(4 * LINE)
        assert g.contains_line(16 * LINE)
        assert not g.contains_line(20 * LINE)

    def test_2d_extension_grows_rows(self):
        g = geom_2d(0, 4, 16, 2)
        assert g.boundary_va() == 32 * LINE  # start of row 2
        for _ in range(4):
            g.extend()
        assert g.count == 3 and g.tail_lines == 0

    def test_covered_lines_enumeration(self):
        g = geom_2d(0, 2, 8, 2)
        assert list(g.covered_lines()) == [0, LINE, 8 * LINE, 9 * LINE]

    def test_edge_detection(self):
        # Fig. 12 "hit edge": a write to the first or the last covered line.
        table, _ = tracked(geom_1d(0, 4), vn=0)
        assert [write(table, i * LINE)[2] for i in (0, 3, 1)] == [1, 1, 0]

    def test_invalid_geometry_rejected(self):
        with pytest.raises(SimulationError):
            EntryGeometry(0, 0, 1, 1)
        with pytest.raises(SimulationError):
            EntryGeometry(1, 4, 4, 1)  # unaligned base


class TestMerging:
    def test_1d_contiguous_concat(self):
        merged = try_merge_geometries(geom_1d(0, 8), geom_1d(8 * LINE, 8))
        assert merged is not None
        assert merged.n_lines == 16 and merged.is_contiguous

    def test_1d_concat_order_independent(self):
        a, b = geom_1d(0, 8), geom_1d(8 * LINE, 8)
        m1, m2 = try_merge_geometries(a, b), try_merge_geometries(b, a)
        assert m1 is not None and m2 is not None
        assert (m1.base_va, m1.n_lines) == (m2.base_va, m2.n_lines)

    def test_gap_pair_forms_2d(self):
        merged = try_merge_geometries(geom_1d(0, 4), geom_1d(16 * LINE, 4))
        assert merged is not None
        assert merged.count == 2 and merged.stride_lines == 16

    def test_gap_beyond_stride_field_rejected(self):
        # The 10-bit stride field bounds inferable row strides (Sec. 6.5).
        merged = try_merge_geometries(geom_1d(0, 4), geom_1d(2048 * LINE, 4))
        assert merged is None

    def test_2d_outer_append(self):
        merged = try_merge_geometries(geom_2d(0, 4, 16, 3), geom_1d(48 * LINE, 4))
        assert merged is not None and merged.count == 4

    def test_2d_inner_concat(self):
        merged = try_merge_geometries(geom_2d(0, 4, 16, 8), geom_2d(4 * LINE, 4, 16, 8))
        assert merged is not None
        assert merged.run_lines == 8 and merged.count == 8

    def test_collapse_to_contiguous(self):
        # Two bands that together fill the stride collapse back to 1D.
        merged = try_merge_geometries(geom_2d(0, 8, 16, 4), geom_2d(8 * LINE, 8, 16, 4))
        assert merged is not None
        assert merged.is_contiguous and merged.count == 1
        assert merged.n_lines == 64

    def test_mismatched_runs_rejected(self):
        assert try_merge_geometries(geom_1d(0, 4), geom_1d(16 * LINE, 5)) is None

    def test_overlapping_not_merged_as_2d(self):
        # Gap smaller than the run would overlap: must not form 2D.
        assert try_merge_geometries(geom_1d(0, 8), geom_1d(4 * LINE, 8)) is None

    @given(
        run=st.integers(1, 8),
        stride=st.integers(9, 64),
        count_a=st.integers(1, 6),
        count_b=st.integers(1, 6),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_outer_merge_coverage_is_union(self, run, stride, count_a, count_b):
        a = geom_2d(0, run, stride, count_a) if count_a > 1 else geom_1d(0, run)
        b_base = count_a * stride * LINE
        b = geom_2d(b_base, run, stride, count_b) if count_b > 1 else geom_1d(b_base, run)
        merged = try_merge_geometries(a, b)
        if merged is None:
            return
        union = set(a.covered_lines()) | set(b.covered_lines())
        assert set(merged.covered_lines()) == union


def tracked(geometry: EntryGeometry, vn: int):
    """A Meta Table holding one entry: write tracking is the table's write step."""
    table = MetaTable()
    return table, table.insert(geometry, vn=vn)


def write(table: MetaTable, vaddr: int):
    """One line through the write step: ``(vn, written, edges, completed)``."""
    return table.write_run(vaddr, 1)


class TestWriteTracking:
    def test_full_update_increments_vn(self):
        table, entry = tracked(geom_1d(0, 4), vn=3)
        outcomes = [write(table, i * LINE) for i in range(4)]
        assert [completed for *_, completed in outcomes] == [False, False, False, True]
        assert all(vn == 4 for vn, *_ in outcomes)
        assert entry.vn == 4
        assert not entry.updating and not entry.flipped

    def test_double_write_violates_assert1(self):
        table, entry = tracked(geom_1d(0, 4), vn=0)
        write(table, 0)
        # Assert1: the step writes nothing and leaves the line to the caller.
        assert write(table, 0)[1] == 0
        assert entry.flipped == {0} and entry.vn == 0

    def test_vn_for_line_during_update(self):
        table, entry = tracked(geom_1d(0, 4), vn=5)
        write(table, LINE)
        assert entry.vn_for_line(LINE) == 6  # flipped -> new VN
        assert entry.vn_for_line(0) == 5  # untouched -> old VN

    def test_edge_classification(self):
        table, _ = tracked(geom_1d(0, 4), vn=0)
        assert write(table, 0) == (1, 1, 1, False)  # hit-edge
        assert write(table, LINE) == (1, 1, 0, False)  # hit-in

    def test_uncovered_write_is_left_to_the_caller(self):
        table, entry = tracked(geom_1d(0, 4), vn=0)
        assert write(table, 100 * LINE)[1] == 0
        assert not entry.updating and not entry.flipped

    @given(order=st.permutations(list(range(8))))
    @settings(max_examples=30, deadline=None)
    def test_property_any_order_completes_once(self, order):
        table, entry = tracked(geom_1d(0, 8), vn=0)
        completions = sum(write(table, i * LINE)[3] for i in order)
        assert completions == 1
        assert entry.vn == 1

    def test_mergeable_excludes_updating(self):
        table, entry = tracked(geom_1d(0, 4), vn=0)
        write(table, 0)
        assert not entry.mergeable
