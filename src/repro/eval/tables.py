"""ASCII table rendering and result persistence."""

from __future__ import annotations

import os
from typing import Iterable, List, Sequence


def ascii_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a fixed-width table."""
    materialized: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in materialized)
    return "\n".join(out)


def results_dir() -> str:
    """The results directory (created on demand).

    ``REPRO_RESULTS_DIR`` overrides the default repo-level ``results/`` —
    the tests and CI's reference runs use it for isolated output trees.
    """
    path = os.environ.get("REPRO_RESULTS_DIR")
    if not path:
        here = os.path.dirname(os.path.abspath(__file__))
        repo = os.path.abspath(os.path.join(here, "..", "..", ".."))
        path = os.path.join(repo, "results")
    os.makedirs(path, exist_ok=True)
    return path


def save_result(name: str, text: str) -> str:
    """Persist a rendered experiment to results/<name>.txt.

    ``name`` may carry directory components (sweep points save under
    ``results/sweeps/<sweep>/points/``); intermediate directories are
    created on demand.
    """
    path = os.path.join(results_dir(), f"{name}.txt")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.rstrip() + "\n")
    return path


def fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


def pct(value: float, digits: int = 1) -> str:
    return f"{value * 100:.{digits}f}%"
