"""Wire schema of the ``repro serve`` job-queue service.

The service speaks JSON over localhost HTTP. Every endpoint lives under
the ``/v1`` prefix:

========================  ======================================================
``GET  /v1/health``       service liveness + queue counts
``POST /v1/jobs``         submit a job (body: a *submission*, below);
                          returns the job view — already terminal with
                          ``cached: true`` when the result cache serves it
``GET  /v1/jobs``         all jobs, submission order (``{"jobs": [...]}``)
``GET  /v1/jobs/<id>``    one job view (status, attempts, error traceback)
``GET  /v1/jobs/<id>/result``  terminal payload (409 until the job finishes)
``POST /v1/jobs/<id>/cancel``  cancel a still-queued job (409 otherwise)
``POST /v1/shutdown``     graceful stop: finish the running job, then exit
========================  ======================================================

A *submission* body names a task and its arguments::

    {"task": "experiment", "experiment": "fig16_overall",
     "params": {...}, "seed": 0}
    {"task": "sweep", "spec": "mee_geometry", "quick": true, "limit": null}

:func:`validate_submission` canonicalizes a body (defaults filled,
unknown keys rejected, experiment params checked against the registry
schema) so invalid work is refused at submit time with a 400, never
enqueued. :func:`fingerprint` hashes the canonical spec together with
the package source digest — the key under which duplicate submissions
are served straight from completed results.

Errors are ``{"error": "<message>"}`` with a 4xx status.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping

from repro.errors import ConfigError
from repro.eval.journal import (
    JOB_DONE,
    JOB_FAILED,
    JOB_RUNNING,
    TERMINAL_JOB_STATUSES,
    JobRecord,
)
from repro.eval.registry import REGISTRY, normalize_params

#: Wire payload layout version; bump on breaking changes.
#: 1 -> 2: the job view and submissions lost their scheduling and worker
#: fields; a submission that still carries one is refused as unknown.
SERVE_SCHEMA = 2

#: All endpoints live under this prefix.
API_PREFIX = "/v1"

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

TASK_EXPERIMENT = "experiment"
TASK_SWEEP = "sweep"
TASKS = (TASK_EXPERIMENT, TASK_SWEEP)


def _require_bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"submission field {name!r} must be a boolean, got {value!r}")
    return value


def _require_int(value: Any, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"submission field {name!r} must be an integer, got {value!r}")
    return value


def validate_submission(payload: Any) -> Dict[str, Any]:
    """Canonicalize a submission body into its spec.

    The canonical spec is a plain JSON-safe dict with every default made
    explicit — it is what gets journaled, fingerprinted, and executed.
    Any problem raises :class:`ConfigError` (the server answers 400;
    nothing is enqueued).
    """
    if not isinstance(payload, Mapping):
        raise ConfigError(f"submission must be a JSON object, got {type(payload).__name__}")
    task = payload.get("task")
    if task not in TASKS:
        raise ConfigError(f"submission 'task' must be one of {TASKS}, got {task!r}")
    known = {"task"}
    spec: Dict[str, Any] = {"task": task}
    if task == TASK_EXPERIMENT:
        known |= {"experiment", "params", "seed"}
        name = payload.get("experiment")
        if not isinstance(name, str) or not name:
            raise ConfigError("experiment submission needs an 'experiment' name")
        experiment = REGISTRY.get(name)  # raises ConfigError on unknown names
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise ConfigError(f"'params' must be a JSON object, got {type(params).__name__}")
        params = dict(params)
        experiment.validate_params(params)
        spec["experiment"] = experiment.name
        spec["params"] = normalize_params(params)
        spec["seed"] = _require_int(payload.get("seed", 0), "seed")
    elif task == TASK_SWEEP:
        known |= {"spec", "quick", "limit"}
        from repro.eval.sweep import load_spec

        name = payload.get("spec")
        if not isinstance(name, str) or not name:
            raise ConfigError("sweep submission needs a 'spec' name")
        sweep_spec = load_spec(name)  # raises ConfigError on unknown specs
        limit = payload.get("limit")
        if limit is not None:
            limit = _require_int(limit, "limit")
            if limit <= 0:
                raise ConfigError(f"'limit' must be positive, got {limit}")
        spec["spec"] = sweep_spec.name if not name.endswith(".toml") else name
        spec["quick"] = _require_bool(payload.get("quick", False), "quick")
        spec["limit"] = limit
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(f"unknown submission field(s) {unknown} for task {task!r}")
    return spec


def fingerprint(spec: Mapping[str, Any], source_digest: str) -> str:
    """Content hash of a canonical spec under one source digest.

    Two submissions with the same fingerprint request byte-identical
    work: same task, same canonical arguments, same package sources.
    """
    payload = json.dumps(
        {"schema": SERVE_SCHEMA, "spec": dict(spec), "source": source_digest},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


def job_view(record: JobRecord, result: bool = False) -> Dict[str, Any]:
    """The JSON shape of one job on the wire (and in CLI output).

    The fat ``result`` payload (rendered artifact text, a whole sweep
    document) stays off the default view — the ``/result`` endpoint
    serves it — but failures always carry the full worker traceback.
    """
    # Attempts = executions actually started: the prior-life count a
    # restart recovery journaled, plus the current one once the job is
    # (or was) on the executor. Cache-served and still-queued/cancelled
    # jobs never ran, so their current life does not count.
    executing = record.status in (JOB_RUNNING, JOB_DONE, JOB_FAILED) and not record.cached
    view = {
        "schema": SERVE_SCHEMA,
        "id": record.job_id,
        "task": record.task,
        "status": record.status,
        "spec": dict(record.spec),
        "attempts": record.attempt + (1 if executing else 0),
        "fingerprint": record.fingerprint,
        "cached": record.cached,
        "elapsed_s": round(record.elapsed_s, 6),
        "submitted_at": record.submitted_at,
        "updated_at": record.ts,
        "error": record.error,
        "error_type": record.error_type,
        "has_result": record.result is not None,
    }
    if result:
        view["result"] = record.result
    return view


def parse_body(raw: bytes) -> Any:
    """Decode a request body as JSON; :class:`ConfigError` on garbage."""
    if not raw:
        raise ConfigError("empty request body; expected a JSON object")
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ConfigError(f"request body is not valid JSON: {exc}") from exc


def error_body(message: str) -> Dict[str, str]:
    """The wire shape of every error answer: ``{"error": message}``."""
    return {"error": message}


def extract_error(payload: Any, fallback: str) -> str:
    """The server's error message out of a response body, defensively."""
    if isinstance(payload, Mapping) and isinstance(payload.get("error"), str):
        return payload["error"]
    return fallback


def view_is_terminal(view: Mapping[str, Any]) -> bool:
    """Whether a wire job view carries a terminal status."""
    return view.get("status") in TERMINAL_JOB_STATUSES
