"""DRAM timing models (DDR4-2400 x2 channels for the CPU, GDDR5 for the NPU).

A queue-free analytic model: streams are characterised by bytes moved and an
efficiency factor; random/metadata traffic pays a row-buffer-miss factor.
These are the Table-1 memory systems; the calibration rationale is in
DESIGN.md Sec. 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import gb_per_s


@dataclass(frozen=True)
class DramTimingModel:
    """Bandwidth/latency description of one memory system.

    ``peak_bw`` bytes/s, ``idle_latency_s`` of one line access,
    ``row_miss_factor`` multiplies the *effective cost* of poorly-localised
    (metadata) traffic, reflecting row-buffer misses and read-modify-write
    turnarounds.
    """

    name: str
    peak_bw: float
    idle_latency_s: float
    row_miss_factor: float = 2.0
    stream_efficiency: float = 0.85

    def __post_init__(self) -> None:
        if self.peak_bw <= 0 or self.idle_latency_s <= 0:
            raise ConfigError(f"{self.name}: bandwidth and latency must be positive")
        if not 0 < self.stream_efficiency <= 1:
            raise ConfigError(f"{self.name}: stream efficiency must be in (0, 1]")

    @property
    def effective_stream_bw(self) -> float:
        """Achievable sequential-stream bandwidth (bytes/s)."""
        return self.peak_bw * self.stream_efficiency

    def stream_time(self, nbytes: float) -> float:
        """Time to stream ``nbytes`` sequentially."""
        if nbytes < 0:
            raise ConfigError("cannot stream negative bytes")
        return nbytes / self.effective_stream_bw

    def effective_bytes(self, stream_bytes: float, metadata_bytes: float) -> float:
        """Bandwidth-equivalent demand of mixed stream + metadata traffic.

        Metadata lines are small, scattered and frequently read-modify-write,
        so each metadata byte costs ``row_miss_factor`` stream-bytes of DRAM
        time. This is the quantity compared against ``effective_stream_bw``.
        """
        if stream_bytes < 0 or metadata_bytes < 0:
            raise ConfigError("traffic volumes must be non-negative")
        return stream_bytes + self.row_miss_factor * metadata_bytes

    def line_latency(self, dependent_accesses: int = 0) -> float:
        """Latency of a demand line access plus ``dependent_accesses``
        serialized metadata accesses (a Merkle walk is a dependent chain)."""
        if dependent_accesses < 0:
            raise ConfigError("dependent access count must be >= 0")
        return self.idle_latency_s * (1 + dependent_accesses)


def ddr4_2400_2ch() -> DramTimingModel:
    """CPU memory from Table 1: DDR4-2400, 2 channels = 38.4 GB/s peak."""
    return DramTimingModel(
        name="ddr4-2400x2",
        peak_bw=gb_per_s(38.4),
        idle_latency_s=80e-9,
        row_miss_factor=2.0,
        stream_efficiency=0.85,
    )


def gddr5_npu() -> DramTimingModel:
    """NPU memory from Table 1: GDDR5, 40 GB @ 128 GB/s."""
    return DramTimingModel(
        name="gddr5",
        peak_bw=gb_per_s(128.0),
        idle_latency_s=120e-9,
        row_miss_factor=2.0,
        stream_efficiency=0.9,
    )
