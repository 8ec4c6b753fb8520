"""Learned per-point cost model for execution ordering.

Every manifest this repo writes already records the true ``elapsed_s``
of every experiment point, so predicted cost does not have to be guessed
from a static class: :class:`CostModel` ingests that history
(``results/manifest.json`` plus every sweep and shard ``manifest.json``)
and predicts seconds for an (experiment, params) point. The estimate
resolution order is:

1. **point-history** — samples recorded for this exact experiment at
   these exact normalized params (median by default, EWMA optional);
2. **experiment-history** — samples for the same experiment at any
   params (a new matrix point of a known experiment);
3. **prior** — the static cost-class priors
   (:data:`STATIC_PRIORS`: ``slow`` > ``medium`` > ``fast``) when the
   experiment has never run here.

The model is deliberately simple and deterministic: for a fixed results
tree it always produces the same predictions. Consumers:
``Orchestrator._execute`` (longest-predicted-first ordering) and
``serve --autosplit-min-seconds``.
"""

from __future__ import annotations

import datetime
import glob
import json
import os
import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.eval.registry import COST_CLASSES, normalize_params
from repro.eval.tables import results_dir

#: Manifest row statuses that carry a real timing sample (mirrors the
#: orchestrator's STATUS_EXECUTED / STATUS_CACHED).
SUCCESS_STATUSES = ("executed", "cached")

#: Static per-cost-class priors (predicted seconds) used when an
#: experiment has no recorded history. Strictly ordered slow > medium >
#: fast — this ordering is what the orchestrator's history-free fallback
#: scheduling relies on.
STATIC_PRIORS: Dict[str, float] = {"slow": 30.0, "medium": 5.0, "fast": 1.0}

#: Where a :class:`CostEstimate` came from (most to least specific).
SOURCE_POINT = "point-history"
SOURCE_EXPERIMENT = "experiment-history"
SOURCE_PRIOR = "prior"

#: Newest samples kept per key; older history beyond the window is
#: ignored so a sped-up implementation stops paying for ancient timings.
DEFAULT_WINDOW = 16

_ESTIMATORS = ("median", "ewma")


def params_key(params: Optional[Mapping[str, Any]]) -> str:
    """Canonical string key for a parameter point (normalized, sorted)."""
    return json.dumps(normalize_params(dict(params or {})), sort_keys=True)


@dataclass(frozen=True)
class CostEstimate:
    """One predicted duration with its provenance."""

    seconds: float
    source: str  #: SOURCE_POINT | SOURCE_EXPERIMENT | SOURCE_PRIOR
    samples: int  #: history samples behind the estimate (0 for priors)


class CostModel:
    """Predict per-point seconds from recorded run history.

    Samples are ``(ts, elapsed_s)`` pairs indexed twice — by
    (experiment, params-key) and by experiment alone — so prediction can
    fall from the exact point to the experiment to the static prior.
    """

    def __init__(
        self,
        priors: Optional[Mapping[str, float]] = None,
        estimator: str = "median",
        ewma_alpha: float = 0.5,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        if estimator not in _ESTIMATORS:
            raise ConfigError(f"cost estimator must be one of {_ESTIMATORS}, got {estimator!r}")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        self.priors = dict(STATIC_PRIORS)
        self.priors.update(priors or {})
        missing = sorted(set(COST_CLASSES) - set(self.priors))
        if missing:
            raise ConfigError(f"priors missing cost class(es) {missing}")
        self.estimator = estimator
        self.ewma_alpha = ewma_alpha
        self.window = window
        self._point: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
        self._experiment: Dict[str, List[Tuple[float, float]]] = {}

    # ------------------------------------------------------------------
    # Observation

    def observe(
        self,
        experiment: str,
        params: Optional[Mapping[str, Any]],
        elapsed_s: float,
        ts: float = 0.0,
    ) -> None:
        """Record one completed point's wall time.

        Non-positive durations are dropped: a 0.0 ``elapsed_s`` means the
        record never actually timed an execution.
        """
        if elapsed_s <= 0.0:
            return
        sample = (float(ts), float(elapsed_s))
        self._point.setdefault((experiment, params_key(params)), []).append(sample)
        self._experiment.setdefault(experiment, []).append(sample)

    def sample_count(self) -> int:
        """Total observations ingested."""
        return sum(len(samples) for samples in self._experiment.values())

    # ------------------------------------------------------------------
    # Prediction

    def _estimate(self, samples: List[Tuple[float, float]]) -> float:
        ordered = [v for _, v in sorted(samples)][-self.window :]
        if self.estimator == "median":
            return float(statistics.median(ordered))
        value = ordered[0]
        for sample in ordered[1:]:
            value = self.ewma_alpha * sample + (1.0 - self.ewma_alpha) * value
        return float(value)

    def prior(self, cost_class: str) -> float:
        """The static prior for a cost class (unknown classes -> fast)."""
        return self.priors.get(cost_class, self.priors["fast"])

    def predict(
        self,
        experiment: str,
        params: Optional[Mapping[str, Any]] = None,
        cost_class: str = "fast",
    ) -> CostEstimate:
        """Predicted seconds for one point, most specific history first."""
        samples = self._point.get((experiment, params_key(params)))
        if samples:
            return CostEstimate(self._estimate(samples), SOURCE_POINT, len(samples))
        samples = self._experiment.get(experiment)
        if samples:
            return CostEstimate(self._estimate(samples), SOURCE_EXPERIMENT, len(samples))
        return CostEstimate(self.prior(cost_class), SOURCE_PRIOR, 0)

    # ------------------------------------------------------------------
    # Ingestion

    def ingest_manifest(self, path: str) -> int:
        """Feed every successful experiment row of a results manifest.

        Cached rows carry the *original* execution's elapsed time, so they
        are timing samples too (re-observing the same run from a later
        manifest is harmless: duplicate identical samples do not move a
        median).
        """
        with open(path, "r", encoding="utf-8") as f:
            document = json.load(f)
        ts = _parse_iso_ts(document.get("generated_at"))
        count = 0
        for row in document.get("experiments", []):
            if not isinstance(row, dict):
                continue
            if row.get("status") not in SUCCESS_STATUSES:
                continue
            elapsed = row.get("elapsed_s") or 0.0
            experiment = row.get("experiment") or row.get("name")
            if not experiment or not isinstance(elapsed, (int, float)) or elapsed <= 0:
                continue
            self.observe(str(experiment), row.get("params") or {}, float(elapsed), ts)
            count += 1
        return count

    @classmethod
    def from_results(cls, root: Optional[str] = None, **kwargs: Any) -> "CostModel":
        """Build a model from every manifest under the results tree.

        Scans ``manifest.json`` plus every sweep and shard
        ``manifest.json``. Unreadable or torn files are skipped — history
        is advisory, and a half-written manifest must never fail a run.
        """
        model = cls(**kwargs)
        root = root or results_dir()
        paths = [os.path.join(root, "manifest.json")]
        paths.extend(sorted(glob.glob(os.path.join(root, "sweeps", "*", "manifest.json"))))
        paths.extend(
            sorted(glob.glob(os.path.join(root, "sweeps", "*", "shards", "*", "manifest.json")))
        )
        for path in paths:
            try:
                model.ingest_manifest(path)
            except (OSError, ValueError):
                continue
        return model


def _parse_iso_ts(value: Any) -> float:
    """Epoch seconds from a manifest ``generated_at`` stamp (0.0 on junk)."""
    if not isinstance(value, str):
        return 0.0
    try:
        return datetime.datetime.fromisoformat(value).timestamp()
    except ValueError:
        return 0.0
