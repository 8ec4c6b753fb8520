"""Key layout of the MEE metadata cache (Table 1: 32 KB).

One shared cache holds off-chip security metadata — VN lines, MAC lines and
Merkle-tree nodes. Each metadata object gets a synthetic line address in a
per-(kind, level) region so different kinds and tree levels never alias.

The replay loops (``cpu/metadata_model.py``, ``eval/scenarios.py``) key a
:class:`repro.mem.cache.LruCacheCore` by the synthetic *line index*
``synthetic_addr // 64 = ((kind * 8 + level) << KEY_SHIFT) + index``, so
the constants below are the one place that layout is defined.
"""

from __future__ import annotations

import enum

from repro.units import CACHELINE_BYTES


class MetadataKind(enum.Enum):
    """What a cached metadata line holds."""

    VN = 0
    MAC = 1
    TREE = 2  # Merkle interior node; the level is encoded in the address


#: Synthetic address regions, 2^40 bytes apart so kinds never collide.
REGION_STRIDE = 1 << 40
#: The same regions in line-index space: 2^40 / 64 = 2^34 lines apart.
KEY_SHIFT = (REGION_STRIDE // CACHELINE_BYTES).bit_length() - 1
#: Line-index key of MAC line 0 (VN line ``i`` is key ``i``).
MAC_BASE = (MetadataKind.MAC.value * 8) << KEY_SHIFT
#: Line-index key of tree node 0 at level 0; level ``l`` adds ``l << KEY_SHIFT``.
TREE_BASE = (MetadataKind.TREE.value * 8) << KEY_SHIFT
