"""Job execution shared by the serve executor and ``repro worker``.

:func:`execute_job` turns one canonical job spec into its terminal
outcome tuple ``(ok, result, error, error_type)`` on a caller-supplied
:class:`~repro.eval.orchestrator.Orchestrator`. The server's in-process
executor thread and every remote worker run the *same* code path, so a
job produces byte-identical artifacts no matter which process claimed it
— the orchestrator's content-hash result cache and ``save_result`` do
all the writing, both of which are atomic (`os.replace`) and therefore
safe for several workers sharing one results tree.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.eval.orchestrator import STATUS_CACHED, STATUS_FAILED, Orchestrator, PointRequest
from repro.serve import schema

#: (ok, result payload, error traceback, error type name)
Outcome = Tuple[bool, Optional[dict], Optional[str], Optional[str]]


def execute_job(task: str, spec: Dict[str, Any], orchestrator: Orchestrator) -> Outcome:
    """Run one claimed job to its terminal outcome.

    Never raises for a *job* failure — that comes back as ``ok=False``
    plus the traceback; only programming errors escape.
    """
    if task == schema.TASK_EXPERIMENT:
        return _execute_experiment(spec, orchestrator)
    if task == schema.TASK_SWEEP:
        return _execute_sweep(spec, orchestrator)
    raise ValueError(f"unknown job task {task!r}")


def _execute_experiment(spec: Dict[str, Any], orchestrator: Orchestrator) -> Outcome:
    orchestrator.run_seed = spec["seed"]
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


def _execute_sweep(spec: Dict[str, Any], orchestrator: Orchestrator) -> Outcome:
    from repro.eval import sweep as sweep_mod

    outcome = sweep_mod.run_sweep(
        sweep_mod.load_spec(spec["spec"]),
        quick=spec["quick"],
        limit=spec["limit"],
        verbose=False,
        orchestrator=orchestrator,
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

