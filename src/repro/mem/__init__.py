"""Memory substrate: address layout, simulated DRAM contents, caches, timing."""

from repro.mem.backing import SimulatedDram
from repro.mem.cache import LruCacheCore
from repro.mem.dram import DramTimingModel
from repro.mem.layout import PageTable, line_index, line_of, page_of
from repro.mem.metadata_cache import MetadataKind

__all__ = [
    "SimulatedDram",
    "LruCacheCore",
    "DramTimingModel",
    "PageTable",
    "line_index",
    "line_of",
    "page_of",
    "MetadataKind",
]
