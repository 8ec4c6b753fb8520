"""Serial reference of the tensor-condition scan."""

from __future__ import annotations

from typing import List, Sequence

from repro.cpu.tenanalyzer.entry import EntryGeometry
from repro.units import CACHELINE_BYTES


def detect_streams(
    vaddrs: Sequence[int], vns: Sequence[int], min_run: int = 4
) -> List[tuple]:
    """Reference of :func:`repro.cpu.tenanalyzer.tensor_filter.detect_streams`
    (contiguous mode): every maximal run of line-contiguous addresses
    sharing one VN, at least ``min_run`` lines long."""
    streams: List[tuple] = []
    total = len(vaddrs)
    start = 0
    for i in range(1, total + 1):
        broken = (
            i == total or vaddrs[i] != vaddrs[i - 1] + CACHELINE_BYTES or vns[i] != vns[i - 1]
        )
        if broken:
            run = i - start
            if run >= min_run:
                geometry = EntryGeometry(
                    base_va=vaddrs[start],
                    run_lines=run,
                    stride_lines=run,
                    count=1,
                    extensible_run=True,
                )
                streams.append((geometry, vns[start]))
            start = i
    return streams
