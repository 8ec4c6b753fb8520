"""Parallel experiment scheduler with caching and a machine-readable manifest.

The experiments are embarrassingly parallel — each one derives its
figure/table from the analytic models with no shared mutable state — so the
scheduler fans them out over a :class:`concurrent.futures.ProcessPoolExecutor`
(longest-predicted-first via the learned cost model, to minimize makespan),
replays unchanged experiments
from the :mod:`repro.eval.cache`, and records per-experiment timing, seed,
cache key and artifact path in ``results/manifest.json``.

``jobs=1`` runs everything in-process, in the same longest-predicted-first
order the pool uses — the artifacts are byte-identical to a parallel run's,
and a debugger can step into the experiment.

A failed point fails its run (the manifest keeps the worker traceback and
exception class) without stopping its siblings. A failed or interrupted
run is finished by running it again: every point that completed was
stored, fsynced, in the result cache and replays from there.
"""

from __future__ import annotations

import concurrent.futures
import datetime
import hashlib
import json
import os
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.eval import cache as result_cache
from repro.eval.cost import CostModel
from repro.eval.registry import REGISTRY, normalize_params
from repro.eval.tables import results_dir, save_result
from repro.sim.stats import Stats

#: results/manifest.json layout version.
MANIFEST_SCHEMA = 1

STATUS_EXECUTED = "executed"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"


def derive_seed(run_seed: int, name: str) -> int:
    """Per-experiment RNG seed, stable across runs and worker placement."""
    digest = hashlib.sha256(f"{run_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def format_error(exc: BaseException) -> str:
    """Full traceback text for ``exc``, including chained causes.

    For pool failures the exception re-raised by ``Future.result()``
    chains the worker-side ``_RemoteTraceback``, so the text names the
    actual raising frame inside the worker, not just the join site.
    """
    return "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))


@dataclass(frozen=True)
class PointRequest:
    """One scheduling request: an experiment at one parameter point.

    ``label`` names the point in logs, the manifest and artifact paths;
    it defaults to the experiment name and must be unique within a batch
    (a sweep schedules many points of the *same* experiment, so its labels
    carry the axis values).
    """

    experiment: str
    params: Dict[str, Any] = field(default_factory=dict)
    label: Optional[str] = None
    priority: int = 0  #: higher schedules first (service jobs set it)

    @property
    def display(self) -> str:
        return self.label or self.experiment


@dataclass
class ExperimentRun:
    """Outcome of one scheduled experiment (or sweep point)."""

    name: str  #: display label (== experiment name outside sweeps)
    status: str
    elapsed_s: float  #: execution time (original run's time when cached)
    seed: int
    cache_key: str
    params: Dict[str, Any]
    tags: List[str]
    cost: str
    experiment: str = ""  #: registry name (defaults to ``name``)
    text: str = ""
    artifact: Optional[str] = None
    error: Optional[str] = None
    error_type: Optional[str] = None  #: exception class name on failure
    summary: Optional[dict] = None

    def __post_init__(self) -> None:
        if not self.experiment:
            self.experiment = self.name

    def manifest_record(self) -> dict:
        return {
            "name": self.name,
            "experiment": self.experiment,
            "status": self.status,
            "elapsed_s": round(self.elapsed_s, 6),
            "seed": self.seed,
            "cache_key": self.cache_key,
            "params": self.params,
            "tags": self.tags,
            "cost": self.cost,
            "artifact": self.artifact,
            "error": self.error,
            "error_type": self.error_type,
            "summary": self.summary,
        }


@dataclass
class _Job:
    """Internal pairing of a pending run with what executing it needs."""

    run: ExperimentRun
    overrides: Dict[str, Any]
    save_artifact: bool = True
    priority: int = 0


@dataclass
class RunReport:
    """Everything one orchestrator invocation did."""

    runs: List[ExperimentRun]
    jobs: int
    cache_enabled: bool
    source_digest: str
    wall_s: float
    stats: Stats = field(default_factory=lambda: Stats("orchestrator"))

    @property
    def ok(self) -> bool:
        return all(r.status != STATUS_FAILED for r in self.runs)

    def rendered(self) -> Dict[str, str]:
        """``{name: text}`` in scheduling order (the legacy runner's shape)."""
        return {r.name: r.text for r in self.runs}

    def counts(self) -> Dict[str, int]:
        counts = {STATUS_EXECUTED: 0, STATUS_CACHED: 0, STATUS_FAILED: 0}
        for run in self.runs:
            counts[run.status] += 1
        return counts

    def manifest(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "jobs": self.jobs,
            "cache_enabled": self.cache_enabled,
            "source_digest": self.source_digest,
            "wall_s": round(self.wall_s, 6),
            "counts": self.counts(),
            "counters": self.stats.as_dict(),
            "experiments": [r.manifest_record() for r in self.runs],
        }

    def write_manifest(self, path: Optional[str] = None) -> str:
        path = path or os.path.join(results_dir(), "manifest.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(self.manifest(), f, indent=2)
            f.write("\n")
        os.replace(tmp, path)
        return path


def _execute_one(name: str, seed: int, params: Dict[str, Any]) -> dict:
    """Worker entry point: run one experiment by registry name.

    Runs in a pool worker (or inline for ``jobs=1``); returns a picklable
    record, never the result object itself.
    """
    random.seed(seed)
    spec = REGISTRY.get(name)
    start = time.perf_counter()
    output = spec.execute(**params)
    elapsed = time.perf_counter() - start
    return {
        "name": name,
        "text": output.text,
        "summary": output.summary(),
        "elapsed_s": elapsed,
    }


class Orchestrator:
    """Schedules registered experiments; owns the cache and the manifest."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        use_cache: bool = True,
        run_seed: int = 0,
        verbose: bool = True,
        show_text: bool = False,
        persistent_pool: bool = False,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        self.use_cache = use_cache
        self.run_seed = run_seed
        self.verbose = verbose
        self.show_text = show_text
        #: Predicts per-point seconds for scheduling order; built lazily
        #: from the results-tree history on first use when not injected.
        self.cost_model = cost_model
        #: Keep one warm worker pool across run()/run_points() calls (the
        #: ``repro serve`` mode) instead of building a pool per batch.
        self.persistent_pool = persistent_pool
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._pool_broken = False

    def _log(self, message: str) -> None:
        if self.verbose:
            print(message, flush=True)

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        """The shared worker pool, (re)built on first use or after a break.

        A :class:`BrokenExecutor` poisons a pool permanently, so a broken
        persistent pool is recycled rather than resubmitted to — the batch
        that observed the break still reports its points failed, but the
        *next* batch gets fresh workers instead of inheriting the corpse.
        """
        if self._pool_broken:
            self.shutdown_pool()
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.jobs)
            self._pool_broken = False
        return self._pool

    def shutdown_pool(self) -> None:
        """Tear down the persistent worker pool (no-op when none is live)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "Orchestrator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown_pool()

    def run(
        self,
        only: Optional[Sequence[str]] = None,
        tags: Optional[Sequence[str]] = None,
        params: Optional[Dict[str, Dict[str, Any]]] = None,
        write_manifest: bool = True,
    ) -> RunReport:
        """Run the selected experiments; returns the full report.

        ``params`` maps experiment name -> keyword overrides for its
        ``run`` function (overrides participate in the cache key).
        """
        specs = REGISTRY.select(only=only, tags=tags)
        params = params or {}
        unmatched = sorted(set(params) - {spec.name for spec in specs})
        if unmatched:
            raise ConfigError(
                f"param overrides for experiment(s) not in this run: {unmatched}; "
                f"selected: {[spec.name for spec in specs]}"
            )
        points = [
            PointRequest(experiment=spec.name, params=dict(params.get(spec.name, {})))
            for spec in specs
        ]
        return self.run_points(points, write_manifest=write_manifest)

    def run_points(
        self,
        points: Sequence[PointRequest],
        write_manifest: bool = True,
        manifest_path: Optional[str] = None,
        save_artifacts: bool = True,
    ) -> RunReport:
        """Schedule an explicit batch of (experiment, params) points.

        This is the sweep engine's entry: many points may target the *same*
        experiment at different parameters, each keyed and cached
        independently. Labels must be unique — they name the manifest rows
        and (when ``save_artifacts``) the ``results/`` artifact files,
        nested directories allowed.
        """
        seen: Dict[str, str] = {}
        for point in points:
            if point.display in seen:
                raise ConfigError(
                    f"duplicate point label {point.display!r} "
                    f"(experiments {seen[point.display]!r} and {point.experiment!r})"
                )
            seen[point.display] = point.experiment
        stats = Stats("orchestrator")
        digest = result_cache.source_digest()
        cache = result_cache.ResultCache()
        start = time.perf_counter()

        pending: List[_Job] = []
        runs: List[ExperimentRun] = []
        for point in points:
            spec = REGISTRY.get(point.experiment)
            overrides = dict(point.params)
            spec.validate_params(overrides)
            label = point.display
            seed = derive_seed(self.run_seed, label)
            norm = normalize_params(overrides)
            key = result_cache.cache_key(spec.name, norm, seed, digest)
            run = ExperimentRun(
                name=label,
                status=STATUS_FAILED,
                elapsed_s=0.0,
                seed=seed,
                cache_key=key,
                params=norm,
                tags=list(spec.tags),
                cost=spec.cost,
                experiment=spec.name,
            )
            runs.append(run)
            entry = cache.load(spec.name, key) if self.use_cache else None
            if entry is not None:
                run.status = STATUS_CACHED
                run.text = entry.text
                run.elapsed_s = entry.elapsed_s
                run.summary = entry.summary
                if save_artifacts:
                    run.artifact = save_result(label, entry.text)
                stats.add("cache.hits")
                self._log(f"[cached {entry.elapsed_s:6.1f}s] {run.artifact or label}")
            else:
                if self.use_cache:
                    stats.add("cache.misses")
                pending.append(
                    _Job(
                        run=run,
                        overrides=overrides,
                        save_artifact=save_artifacts,
                        priority=point.priority,
                    )
                )

        if pending:
            self._execute(pending, cache, stats)

        report = RunReport(
            runs=runs,
            jobs=self.jobs,
            cache_enabled=self.use_cache,
            source_digest=digest,
            wall_s=time.perf_counter() - start,
            stats=stats,
        )
        if write_manifest:
            path = report.write_manifest(manifest_path)
            self._log(f"manifest: {path}")
        counts = report.counts()
        self._log(
            f"done in {report.wall_s:.1f}s — {counts[STATUS_EXECUTED]} executed, "
            f"{counts[STATUS_CACHED]} cached, {counts[STATUS_FAILED]} failed"
            f" (jobs={self.jobs})"
        )
        return report

    def _predicted_s(self, run: ExperimentRun) -> float:
        """Predicted seconds for one pending run (scheduling order key)."""
        if self.cost_model is None:
            self.cost_model = CostModel.from_results()
        return self.cost_model.predict(run.experiment, run.params, cost_class=run.cost).seconds

    def _execute(
        self,
        pending: List[_Job],
        cache: result_cache.ResultCache,
        stats: Stats,
    ) -> None:
        # Higher-priority jobs first, then longest-predicted first so the
        # pool's tail is short. Prediction comes from recorded manifest
        # history and falls back to the static slow > medium > fast
        # priors, so even a history-free run orders all three cost classes
        # instead of the old binary slow/not-slow sort that let "medium"
        # points schedule dead last.
        ordered = sorted(pending, key=lambda j: (-j.priority, -self._predicted_s(j.run)))
        if self.jobs == 1 or (len(pending) == 1 and not self.persistent_pool):
            for job in ordered:
                self._finish(job, *self._run_inline(job), cache, stats)
            return
        if self.persistent_pool:
            self._drain_pool(self._ensure_pool(), ordered, cache, stats)
            return
        workers = min(self.jobs, len(ordered))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            self._drain_pool(pool, ordered, cache, stats)

    def _drain_pool(
        self,
        pool: concurrent.futures.ProcessPoolExecutor,
        ordered: List[_Job],
        cache: result_cache.ResultCache,
        stats: Stats,
    ) -> None:
        futures = {
            pool.submit(_execute_one, job.run.experiment, job.run.seed, job.overrides): job
            for job in ordered
        }
        for future in concurrent.futures.as_completed(futures):
            job = futures[future]
            record, error, error_type = None, None, None
            try:
                record = future.result()
            except concurrent.futures.BrokenExecutor as exc:
                # A worker died hard (segfault/OOM-kill): the pool is
                # unusable. Record the failure; the remaining futures fail
                # the same way, so the report stays complete, and a
                # persistent pool is rebuilt before its next batch.
                error, error_type = format_error(exc), type(exc).__name__
                self._pool_broken = True
            except Exception as exc:
                error, error_type = format_error(exc), type(exc).__name__
            self._finish(job, record, error, error_type, cache, stats)

    def _run_inline(self, job: _Job):
        try:
            record = _execute_one(job.run.experiment, job.run.seed, job.overrides)
            return record, None, None
        except Exception as exc:
            return None, format_error(exc), type(exc).__name__

    def _finish(
        self,
        job: _Job,
        record: Optional[dict],
        error: Optional[str],
        error_type: Optional[str],
        cache: result_cache.ResultCache,
        stats: Stats,
    ) -> None:
        run = job.run
        if record is None:
            run.status = STATUS_FAILED
            run.error = error or "unknown failure"
            run.error_type = error_type
            stats.add("experiments.failed")
            self._log(f"[FAILED] {run.name}\n{run.error}")
            return
        run.status = STATUS_EXECUTED
        run.text = record["text"]
        run.summary = record["summary"]
        run.elapsed_s = record["elapsed_s"]
        if job.save_artifact:
            run.artifact = save_result(run.name, run.text)
        stats.add("experiments.executed")
        stats.add("experiments.executed_s", run.elapsed_s)
        if self.use_cache:
            # The fsynced cache entry is what lets a re-run after a crash
            # replay this point instead of executing it again.
            cache.store(
                result_cache.CacheEntry(
                    name=run.experiment,
                    key=run.cache_key,
                    text=run.text,
                    elapsed_s=run.elapsed_s,
                    seed=run.seed,
                    params=run.params,
                    summary=run.summary,
                )
            )
        self._log(f"[{run.elapsed_s:6.1f}s] {run.artifact or run.name}")
        if self.show_text:
            self._log(run.text + "\n")


def clean(remove_cache: bool = True) -> List[str]:
    """Delete rendered artifacts, the manifest, and (optionally) the cache.

    Only touches files the orchestrator itself writes; returns their paths.
    """
    removed: List[str] = []
    root = results_dir()
    REGISTRY.load_all()
    known = set(REGISTRY.names())
    for filename in sorted(os.listdir(root)):
        path = os.path.join(root, filename)
        is_artifact = filename.endswith(".txt") and filename[: -len(".txt")] in known
        if is_artifact or filename == "manifest.json":
            os.unlink(path)
            removed.append(path)
    sweeps_root = os.path.join(root, "sweeps")
    if os.path.isdir(sweeps_root):
        shutil.rmtree(sweeps_root)
        removed.append(sweeps_root)
    if remove_cache:
        cache = result_cache.ResultCache()
        count = cache.clear()
        if count:
            removed.append(f"{cache.root} ({count} entries)")
        if os.path.isdir(cache.root) and not os.listdir(cache.root):
            os.rmdir(cache.root)
    return removed
