"""Job execution for the ``repro serve`` executor.

:func:`execute_job` turns one canonical job spec into its terminal
outcome tuple ``(ok, result, error, error_type)``. Each job runs on a
fresh :class:`~repro.eval.orchestrator.Orchestrator`, built the way
``repro run`` and ``sweep run`` build theirs, so a job writes the same
artifacts and cache entries as the equivalent command-line run.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.eval.orchestrator import STATUS_CACHED, STATUS_FAILED, Orchestrator, PointRequest
from repro.serve import schema

#: (ok, result payload, error traceback, error type name)
Outcome = Tuple[bool, Optional[dict], Optional[str], Optional[str]]


def execute_job(task: str, spec: Dict[str, Any], jobs: Optional[int] = None) -> Outcome:
    """Run one claimed job to its terminal outcome on ``jobs`` worker processes.

    Never raises for a *job* failure — that comes back as ``ok=False``
    plus the traceback; only programming errors escape.
    """
    if task == schema.TASK_EXPERIMENT:
        return _execute_experiment(spec, jobs)
    if task == schema.TASK_SWEEP:
        return _execute_sweep(spec, jobs)
    raise ValueError(f"unknown job task {task!r}")


def _execute_experiment(spec: Dict[str, Any], jobs: Optional[int]) -> Outcome:
    orchestrator = Orchestrator(jobs=jobs, run_seed=spec["seed"], verbose=False)
    report = orchestrator.run_points(
        [PointRequest(experiment=spec["experiment"], params=dict(spec["params"]))],
        write_manifest=False,
    )
    run = report.runs[0]
    if run.status == STATUS_FAILED:
        return False, None, run.error, run.error_type
    result = {
        "task": schema.TASK_EXPERIMENT,
        "status": run.status,
        "cached": run.status == STATUS_CACHED,
        "artifact": run.artifact,
        "text": run.text,
        "elapsed_s": run.elapsed_s,
        "cache_key": run.cache_key,
        "summary": run.summary,
    }
    return True, result, None, None


def _execute_sweep(spec: Dict[str, Any], jobs: Optional[int]) -> Outcome:
    from repro.eval import sweep as sweep_mod

    outcome = sweep_mod.run_sweep(
        sweep_mod.load_spec(spec["spec"]),
        jobs=jobs,
        quick=spec["quick"],
        limit=spec["limit"],
        verbose=False,
    )
    result = {
        "task": schema.TASK_SWEEP,
        "cached": all(r.status == STATUS_CACHED for r in outcome.report.runs),
        "document": outcome.document(),
        "json_path": outcome.json_path,
        "csv_path": outcome.csv_path,
    }
    if outcome.ok:
        return True, result, None, None
    failed = [r for r in outcome.report.runs if r.status == STATUS_FAILED]
    return False, result, failed[0].error, failed[0].error_type
