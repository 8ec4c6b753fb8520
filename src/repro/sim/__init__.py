"""Simulation kernel: statistics and memory-trace batches."""

from repro.sim.stats import Stats

__all__ = ["Stats"]
