"""Reference Meta Table merge: unindex both parts, index the merged entry."""

from __future__ import annotations

from repro.cpu.tenanalyzer import TenAnalyzer
from repro.cpu.tenanalyzer.entry import EntryGeometry, MetaTableEntry
from repro.cpu.tenanalyzer.meta_table import MetaTable


class ReindexingMetaTable(MetaTable):
    """A :class:`MetaTable` whose merges rebuild the line index line by line.

    Production merges re-point only the smaller part's lines at the larger
    part's cell. Here every covered line of both parts is popped and every
    line of the merged entry is indexed afresh under a fresh id.
    """

    def _apply_merge(self, a_id: int, b_id: int, combined: EntryGeometry) -> int:
        a, b = self._entries[a_id], self._entries[b_id]
        self._unindex_entry(a_id, a)
        self._unindex_entry(b_id, b)
        self._retire(a_id)
        self._retire(b_id)
        merged = MetaTableEntry(geometry=combined, vn=a.vn, mac=a.mac ^ b.mac, source="merge")
        merged_id = self._next_id
        self._next_id += 1
        self._entries[merged_id] = merged
        merged.entry_id = merged_id
        self._tick += 1
        merged.lru_tick = self._tick
        self._index_entry(merged)
        self._note_updated(merged_id)
        return merged_id


def reindexing_analyzer(**kwargs) -> TenAnalyzer:
    """A :class:`TenAnalyzer` built with ``kwargs`` on a :class:`ReindexingMetaTable`."""
    analyzer = TenAnalyzer(**kwargs)
    table = analyzer.table
    analyzer.table = ReindexingMetaTable(
        capacity=table.capacity,
        merge_window=table.merge_window,
        vn_store=analyzer.vn_store,
        stats=table.stats,
        replacement=table.replacement,
    )
    return analyzer
