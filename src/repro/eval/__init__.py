"""Evaluation harness: one generator per paper figure/table.

Each ``figNN`` module exposes a ``run(...)`` returning a result dataclass
and a ``render(result)`` producing the ASCII table, and registers itself
into :data:`repro.eval.registry.REGISTRY` under its paper name. The
orchestrator (``python -m repro run``) schedules registered experiments in
parallel with result caching (``--jobs 1 --no-cache`` runs them serially,
uncached).
"""

from repro.eval.registry import REGISTRY, experiment
from repro.eval.tables import ascii_table, save_result

__all__ = ["REGISTRY", "ascii_table", "experiment", "save_result"]
