"""The Meta Table's run steps and the Tensor Filter's stream columns.

``MetaTable.read_run`` and ``MetaTable.write_run`` apply a whole run of
line accesses in one step; each must leave the table as the same run of
one-line steps leaves it. The Tensor Filter keeps its in-flight streams as
parallel columns, one slot per stream in allocation order.
"""

import copy

import pytest

from repro.cpu.tenanalyzer.entry import EntryGeometry
from repro.cpu.tenanalyzer.meta_table import LookupKind, MetaTable
from repro.cpu.tenanalyzer.tensor_filter import TensorFilter
from repro.units import CACHELINE_BYTES

LINE = CACHELINE_BYTES
BASE = 0x40000


def contiguous(first, n_lines):
    """A 1D geometry of ``n_lines`` lines from line ``first`` of ``BASE``."""
    return EntryGeometry(
        base_va=BASE + first * LINE, run_lines=n_lines, stride_lines=n_lines, count=1
    )


def table_with(*entries):
    """A Meta Table holding ``(geometry, vn)`` entries, inserted in order."""
    table = MetaTable()
    return table, [table.insert(geometry, vn=vn) for geometry, vn in entries]


def lru_state(table):
    """What a read step may change: the tick, each entry's LRU tick and
    the merge window's id order."""
    ticks = {entry.entry_id: entry.lru_tick for entry in table.entries()}
    return table._tick, ticks, list(table._recent_updates)


def write_state(table):
    """What a write step may change, besides the LRU state."""
    entries = {
        entry.entry_id: (
            entry.geometry.base_va,
            entry.geometry.n_lines,
            entry.vn,
            entry.updating,
            sorted(entry.flipped),
        )
        for entry in table.entries()
    }
    return entries, lru_state(table), table.stats.as_dict()


class TestReadRun:
    def test_uncovered_line_changes_nothing(self):
        table, _ = table_with((contiguous(0, 8), 0))
        before = lru_state(table)
        assert table.read_run(BASE + 20 * LINE, 4) == (None, 0)
        assert lru_state(table) == before

    @pytest.mark.parametrize(
        "offset, n_lines, covered",
        [(0, 3, 3), (0, 8, 8), (0, 20, 8), (5, 10, 3), (7, 1, 1)],
    )
    def test_counts_covered_lines_of_a_contiguous_entry(self, offset, n_lines, covered):
        table, (entry,) = table_with((contiguous(0, 8), 0))
        tick = table._tick
        assert table.read_run(BASE + offset * LINE, n_lines) == (entry, covered)
        assert table._tick == entry.lru_tick == tick + covered

    @pytest.mark.parametrize(
        "offset, n_lines, covered",
        [(0, 5, 2), (1, 5, 1), (8, 1, 1), (16, 4, 2), (2, 4, 0)],
    )
    def test_counts_stop_at_a_strided_entry_row_end(self, offset, n_lines, covered):
        # Rows of 2 lines, 8 lines apart: lines 0-1, 8-9 and 16-17.
        strided = EntryGeometry(
            base_va=BASE, run_lines=2, stride_lines=8, count=3, extensible_run=False
        )
        table, (entry,) = table_with((strided, 0))
        hit, n = table.read_run(BASE + offset * LINE, n_lines)
        assert n == covered
        assert hit is (entry if covered else None)

    @pytest.mark.parametrize("offset, n_lines", [(0, 1), (0, 8), (3, 4), (6, 5)])
    def test_equals_per_line_lookups(self, offset, n_lines):
        # Two entries under different VNs, so they never merge; the second
        # one is the most recent when the run starts on the first.
        entries = ((contiguous(0, 8), 0), (contiguous(64, 8), 1))
        batched, _ = table_with(*entries)
        reference, (entry, _) = table_with(*entries)
        vaddr = BASE + offset * LINE
        hit, n = batched.read_run(vaddr, n_lines)
        looked_up = 0
        for line in range(vaddr, vaddr + n_lines * LINE, LINE):
            if reference.entry_of(line) is not entry:
                break
            assert reference.lookup(line) == (LookupKind.HIT_IN, entry)
            looked_up += 1
        assert n == looked_up
        assert lru_state(batched) == lru_state(reference)
        assert lru_state(batched)[2][-1] == hit.entry_id

    def test_merge_window_keeps_the_most_recent_last_and_is_bounded(self):
        table = MetaTable(merge_window=1)  # holds the 4 most recent ids
        # Distinct VNs: nothing merges.
        entries = [table.insert(contiguous(100 * i, 4), vn=i) for i in range(6)]
        assert list(table._recent_updates) == [2, 3, 4, 5]
        table.read_run(entries[0].geometry.base_va, 2)
        assert list(table._recent_updates) == [3, 4, 5, 0]
        table.read_run(entries[4].geometry.base_va, 1)
        assert list(table._recent_updates) == [3, 5, 0, 4]


class TestWriteRun:
    def test_uncovered_line_changes_nothing(self):
        table, _ = table_with((contiguous(0, 8), 3))
        before = write_state(table)
        assert table.write_run(BASE + 20 * LINE, 4) == (0, 0, 0, False)
        assert write_state(table) == before

    def test_assert1_on_the_first_line_changes_nothing(self):
        table, (entry,) = table_with((contiguous(0, 8), 3))
        table.write_run(BASE + 2 * LINE, 1)
        before = write_state(table)
        assert table.write_run(BASE + 2 * LINE, 3) == (0, 0, 0, False)
        assert write_state(table) == before
        assert entry.flipped == {BASE + 2 * LINE}

    def test_stops_before_a_line_flipped_this_round(self):
        table, (entry,) = table_with((contiguous(0, 8), 3))
        table.write_run(BASE + 5 * LINE, 1)
        assert table.write_run(BASE + 2 * LINE, 6) == (4, 3, 0, False)
        assert entry.flipped == {BASE + line * LINE for line in (2, 3, 4, 5)}
        assert entry.updating and entry.vn == 3

    @pytest.mark.parametrize(
        "offset, n_lines, written, edges",
        [(0, 1, 1, 1), (1, 3, 3, 0), (7, 1, 1, 1), (0, 7, 7, 1), (1, 7, 7, 1), (3, 20, 5, 1)],
    )
    def test_counts_the_entry_edges_it_writes(self, offset, n_lines, written, edges):
        table, (entry,) = table_with((contiguous(0, 8), 3))
        assert table.write_run(BASE + offset * LINE, n_lines) == (4, written, edges, False)
        assert len(entry.flipped) == written and entry.updating

    def test_a_whole_update_completes_in_one_step(self):
        table, (entry,) = table_with((contiguous(0, 8), 3))
        # Line 0 is an edge, lines 1-6 are inside, and line 7 completes.
        assert table.write_run(BASE, 12) == (4, 8, 2, True)
        assert entry.vn == 4 and not entry.flipped and not entry.updating

    def test_completion_mid_entry_ends_the_step(self):
        table, (entry,) = table_with((contiguous(0, 8), 3))
        table.write_run(BASE + 4 * LINE, 4)
        # Line 3 completes the update; lines 4-7 start the next round.
        assert table.write_run(BASE, 8) == (4, 4, 2, True)
        assert entry.vn == 4 and not entry.flipped
        assert table.write_run(BASE + 4 * LINE, 4) == (5, 4, 1, False)
        assert entry.vn == 4 and entry.updating

    @pytest.mark.parametrize("last", [0, 3, 7])
    def test_a_completing_write_is_an_edge_wherever_it_falls(self, last):
        table, (entry,) = table_with((contiguous(0, 8), 3))
        for line in range(8):
            if line != last:
                table.write_run(BASE + line * LINE, 1)
        assert table.write_run(BASE + last * LINE, 1) == (4, 1, 1, True)
        assert entry.vn == 4

    def test_completion_merges_with_a_window_neighbour(self):
        # Adjacent entries under VNs 1 and 0 stay apart until the second
        # one's update completes at VN 1.
        table, parts = table_with((contiguous(0, 4), 1), (contiguous(4, 4), 0))
        assert table.n_entries == 2 and table.stats["merges"] == 0
        assert table.write_run(BASE + 4 * LINE, 4) == (1, 4, 2, True)
        (merged,) = table.entries()
        assert table.stats["merges"] == 1
        assert (merged.geometry.base_va, merged.geometry.n_lines, merged.vn) == (BASE, 8, 1)
        assert merged.entry_id not in {part.entry_id for part in parts}

    @pytest.mark.parametrize(
        "runs",
        [
            [(0, 8)],
            [(2, 3), (0, 8)],
            [(4, 4), (0, 8)],
            [(7, 1), (0, 7), (0, 3)],
        ],
    )
    def test_equals_per_line_writes(self, runs):
        """Runs of ``(first line, n_lines)``, each written until the step
        refuses a line (uncovered or already flipped): in whole-run steps
        and one line at a time."""
        entries = ((contiguous(0, 8), 3), (contiguous(64, 4), 0))

        def replay(whole_runs):
            table, _ = table_with(*entries)
            vns, edges, completions = [], 0, 0
            for first, n_lines in runs:
                vaddr = BASE + first * LINE
                while n_lines:
                    step = n_lines if whole_runs else 1
                    vn, written, step_edges, completed = table.write_run(vaddr, step)
                    if not written:
                        break
                    vns += [vn] * written
                    edges += step_edges
                    completions += completed
                    vaddr += written * LINE
                    n_lines -= written
            return vns, edges, completions, write_state(table)

        assert replay(whole_runs=True) == replay(whole_runs=False)


def streams(tensor_filter):
    """The filter's in-flight streams as ``(base, vn, collected, tick,
    stride, next)`` tuples, in slot order."""
    return list(zip(*tensor_filter._columns))


class TestTensorFilterColumns:
    A, B, C, D = (BASE + i * 0x10000 for i in range(4))

    def test_streams_take_slots_in_allocation_order(self):
        f = TensorFilter(n_entries=3)
        for vaddr, vn in ((self.A, 0), (self.B, 2), (self.C, 1)):
            f.observe(vaddr, vn)
        assert streams(f) == [
            (self.A, 0, 1, 1, 1, self.A + LINE),
            (self.B, 2, 1, 2, 1, self.B + LINE),
            (self.C, 1, 1, 3, 1, self.C + LINE),
        ]
        assert f.occupancy == 3 and f.stats["allocations"] == 3

    def test_a_continuing_line_updates_its_slot_in_place(self):
        f = TensorFilter(n_entries=3)
        f.observe(self.A, 0)
        f.observe(self.B, 0)
        f.observe(self.A + LINE, 0)
        assert streams(f) == [
            (self.A, 0, 2, 3, 1, self.A + 2 * LINE),
            (self.B, 0, 1, 2, 1, self.B + LINE),
        ]

    def test_a_line_continues_the_first_matching_stream(self):
        f = TensorFilter()
        f.observe(self.A, 0)
        f.observe(self.A, 0)  # not a continuation: a second stream at A
        f.observe(self.A + LINE, 0)
        assert [collected for _, _, collected, *_ in streams(f)] == [2, 1]

    def test_eviction_drops_the_least_recent_slot(self):
        f = TensorFilter(n_entries=3)
        for vaddr in (self.A, self.B, self.C, self.A + LINE, self.D):
            f.observe(vaddr, 0)
        # A was continued after B and C were allocated: B is the victim.
        assert [base for base, *_ in streams(f)] == [self.A, self.C, self.D]
        assert f.stats["evictions"] == 1

    def test_a_vn_change_restarts_the_stream_in_its_slot(self):
        f = TensorFilter(n_entries=3)
        f.observe(self.A, 0)
        f.observe(self.B, 0)
        f.observe(self.A + LINE, 5)
        assert streams(f) == [
            (self.A + LINE, 5, 1, 3, 1, self.A + 2 * LINE),
            (self.B, 0, 1, 2, 1, self.B + LINE),
        ]
        assert f.stats["vn_restarts"] == 1

    def test_a_detection_frees_its_slot(self):
        f = TensorFilter(n_entries=3)
        f.observe(self.B, 0)
        geometry = None
        for i in range(4):
            geometry = f.observe(self.A + i * LINE, 0)
        assert (geometry.base_va, geometry.n_lines) == (self.A, 4)
        assert [base for base, *_ in streams(f)] == [self.B]

    def test_stride_detection_locks_the_second_line_stride(self):
        f = TensorFilter(stride_detect=True)
        f.observe(self.A, 0)
        f.observe(self.A + 3 * LINE, 0)
        assert streams(f) == [(self.A, 0, 2, 2, 3, self.A + 6 * LINE)]
        assert f.stats["stride_locks"] == 1

    @pytest.mark.parametrize(
        "offset, n_lines, survivors",
        [
            (0, 1, [8, 20]),
            (0, 6, [8, 20]),
            (-2, 4, [8, 20]),
            (3, 2, [0, 8, 20]),  # starts at the first stream's next line
            (5, 10, [0, 20]),
            (21, 2, [0, 8]),  # between the strided stream's lines
            (24, 3, [0, 8]),
            (26, 4, [0, 8, 20]),  # starts at the strided stream's next line
        ],
    )
    def test_drop_covering_equals_single_line_calls(self, offset, n_lines, survivors):
        f = TensorFilter(stride_detect=True)
        for line in range(3):
            f.observe(self.A + line * LINE, 0)  # lines 0-2, next 3
        f.observe(self.A + 8 * LINE, 1)  # line 8, next 9
        f.observe(self.A + 20 * LINE, 2)
        f.observe(self.A + 23 * LINE, 2)  # lines 20 and 23, next 26
        reference = copy.deepcopy(f)
        vaddr = self.A + offset * LINE
        f.drop_covering(vaddr, n_lines)
        for line in range(vaddr, vaddr + n_lines * LINE, LINE):
            reference.drop_covering(line)
        assert streams(f) == streams(reference)
        assert [(base - self.A) // LINE for base, *_ in streams(f)] == survivors
