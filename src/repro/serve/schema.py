"""Wire schema of the ``repro serve`` job-queue service.

The service speaks JSON over localhost HTTP. Every endpoint lives under
the ``/v1`` prefix:

========================  ======================================================
``GET  /v1/health``       service liveness + queue counts
``POST /v1/jobs``         submit a job (body: a *submission*, below);
                          returns the job view — already terminal with
                          ``cached: true`` when the result cache serves it
``POST /v1/jobs/submit_batch``  submit many jobs in one round trip
                          (body: ``{"jobs": [submission, ...]}``); the
                          response's ``jobs`` list is aligned to the
                          request — a view per accepted entry, an
                          ``{"index", "error"}`` object per rejected one
                          (a bad spec rejects only its own entry), plus
                          ``accepted``/``rejected`` counts. Accepted
                          entries are journaled as one durable batch.
``POST /v1/jobs/status_batch``  many job views in one round trip (body:
                          ``{"ids": [...]}`` or ``{"all": true}``);
                          unknown ids come back as per-entry errors
``GET  /v1/jobs``         all jobs, submission order (``{"jobs": [...]}``)
``GET  /v1/jobs/<id>``    one job view (status, attempts, error traceback)
``GET  /v1/jobs/<id>/result``  terminal payload (409 until the job finishes)
``POST /v1/jobs/<id>/cancel``  cancel a still-queued job (409 otherwise)
``POST /v1/jobs/claim``   lease the best pending job to a remote worker
                          (body: ``{"worker", "lease_ttl", "tags"}``);
                          ``{"job": null, "outstanding": N, "total": N}``
                          when idle
``POST /v1/jobs/<id>/heartbeat``  extend a held lease (409 once lost)
``POST /v1/jobs/<id>/complete``   report a leased job's terminal outcome
``POST /v1/shutdown``     graceful stop: finish the running job, then exit
========================  ======================================================

A *submission* body names a task and its arguments::

    {"task": "experiment", "experiment": "fig16_overall",
     "params": {...}, "seed": 0, "priority": 0}
    {"task": "sweep", "spec": "mee_geometry", "quick": true,
     "limit": null, "priority": 0}

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
from typing import Any, Dict, Mapping, Tuple

from repro.errors import ConfigError
from repro.eval.journal import JOB_DONE, JOB_FAILED, JOB_RUNNING, JobRecord
from repro.eval.registry import REGISTRY, normalize_params

#: Wire payload layout version; bump on breaking changes.
SERVE_SCHEMA = 1

#: All endpoints live under this prefix.
API_PREFIX = "/v1"

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

TASK_EXPERIMENT = "experiment"
TASK_SWEEP = "sweep"
TASKS = (TASK_EXPERIMENT, TASK_SWEEP)

#: Lease length a worker gets when its claim names none (seconds).
DEFAULT_LEASE_TTL = 60.0

#: Entries one ``/v1/jobs/submit_batch`` or ``status_batch`` body may
#: carry; a cap so a runaway client cannot wedge a handler thread.
MAX_BATCH = 1000


def _require_bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"submission field {name!r} must be a boolean, got {value!r}")
    return value


def _require_int(value: Any, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"submission field {name!r} must be an integer, got {value!r}")
    return value


def _require_tags(value: Any, name: str = "tags") -> list:
    if value is None:
        return []
    if not isinstance(value, list) or not all(isinstance(t, str) and t for t in value):
        raise ConfigError(f"{name!r} must be a list of non-empty strings, got {value!r}")
    return sorted(set(value))


def validate_submission(payload: Any) -> Tuple[Dict[str, Any], int]:
    """Canonicalize a submission body; returns ``(spec, priority)``.

    The canonical spec is a plain JSON-safe dict with every default made
    explicit — it is what gets journaled, fingerprinted, and executed.
    ``priority`` rides outside the spec so that submitting the same work
    at a different priority still deduplicates. Any problem raises
    :class:`ConfigError` (the server answers 400; nothing is enqueued).
    """
    if not isinstance(payload, Mapping):
        raise ConfigError(f"submission must be a JSON object, got {type(payload).__name__}")
    task = payload.get("task")
    if task not in TASKS:
        raise ConfigError(f"submission 'task' must be one of {TASKS}, got {task!r}")
    priority = _require_int(payload.get("priority", 0), "priority")
    _require_tags(payload.get("tags"))
    known = {"task", "priority", "tags"}
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
    return spec, priority


def validate_batch_jobs(payload: Any) -> list:
    """Shape-check a ``/jobs/submit_batch`` envelope; returns the entries.

    Only the envelope (a ``{"jobs": [...]}`` object, non-empty, at most
    :data:`MAX_BATCH` entries) is validated here — envelope problems are
    a whole-request 400. Each entry is validated individually by the
    server so that one bad spec rejects only that entry, never its batch
    mates.
    """
    if not isinstance(payload, Mapping):
        raise ConfigError(f"batch must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - {"jobs"})
    if unknown:
        raise ConfigError(f"unknown batch field(s) {unknown}")
    jobs = payload.get("jobs")
    if not isinstance(jobs, list) or not jobs:
        raise ConfigError("batch needs a non-empty 'jobs' list of submissions")
    if len(jobs) > MAX_BATCH:
        raise ConfigError(f"batch of {len(jobs)} jobs exceeds the limit of {MAX_BATCH}")
    return list(jobs)


def validate_batch_status(payload: Any) -> Tuple[list, bool]:
    """Canonicalize a ``/jobs/status_batch`` body: ``(ids, all_jobs)``.

    Either ``{"ids": [...]}`` (explicit job ids, capped at
    :data:`MAX_BATCH`) or ``{"all": true}`` (every job the server
    knows); naming both is refused.
    """
    if not isinstance(payload, Mapping):
        raise ConfigError(f"status batch must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - {"ids", "all"})
    if unknown:
        raise ConfigError(f"unknown status batch field(s) {unknown}")
    all_jobs = payload.get("all", False)
    if not isinstance(all_jobs, bool):
        raise ConfigError(f"status batch 'all' must be a boolean, got {all_jobs!r}")
    ids = payload.get("ids")
    if all_jobs:
        if ids is not None:
            raise ConfigError("status batch takes 'ids' or 'all', not both")
        return [], True
    if not isinstance(ids, list) or not ids or not all(isinstance(i, str) and i for i in ids):
        raise ConfigError("status batch needs a non-empty 'ids' list of job ids (or 'all': true)")
    if len(ids) > MAX_BATCH:
        raise ConfigError(f"status batch of {len(ids)} ids exceeds the limit of {MAX_BATCH}")
    return list(ids), False


def submission_tags(payload: Mapping[str, Any]) -> list:
    """Routing tags of a submission body, canonicalized (sorted, unique).

    Tags constrain *where* a job may run — a worker claims a job only
    when its own tags cover the job's — and ride outside the canonical
    spec so they never perturb fingerprints.
    """
    return _require_tags(payload.get("tags"))


def validate_claim(payload: Any) -> Tuple[str, float, list]:
    """Canonicalize a ``/jobs/claim`` body: ``(worker, lease_ttl, tags)``."""
    if not isinstance(payload, Mapping):
        raise ConfigError(f"claim must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - {"worker", "lease_ttl", "tags"})
    if unknown:
        raise ConfigError(f"unknown claim field(s) {unknown}")
    worker = payload.get("worker")
    if not isinstance(worker, str) or not worker:
        raise ConfigError("claim needs a non-empty 'worker' id")
    ttl = payload.get("lease_ttl", DEFAULT_LEASE_TTL)
    if isinstance(ttl, bool) or not isinstance(ttl, (int, float)) or ttl <= 0:
        raise ConfigError(f"'lease_ttl' must be a positive number of seconds, got {ttl!r}")
    return worker, float(ttl), _require_tags(payload.get("tags"))


def validate_complete(payload: Any) -> Dict[str, Any]:
    """Canonicalize a ``/jobs/<id>/complete`` body.

    Returns ``{"worker", "ok", "result", "error", "error_type",
    "elapsed_s"}`` with defaults filled; the failure fields are required
    exactly when ``ok`` is false.
    """
    if not isinstance(payload, Mapping):
        raise ConfigError(f"completion must be a JSON object, got {type(payload).__name__}")
    known = {"worker", "ok", "result", "error", "error_type", "elapsed_s"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(f"unknown completion field(s) {unknown}")
    worker = payload.get("worker")
    if not isinstance(worker, str) or not worker:
        raise ConfigError("completion needs a non-empty 'worker' id")
    ok = _require_bool(payload.get("ok"), "ok")
    result = payload.get("result")
    if result is not None and not isinstance(result, Mapping):
        raise ConfigError(f"'result' must be a JSON object, got {type(result).__name__}")
    error = payload.get("error")
    error_type = payload.get("error_type")
    if not ok and (not isinstance(error, str) or not error):
        raise ConfigError("a failed completion needs a non-empty 'error' traceback")
    if error is not None and not isinstance(error, str):
        raise ConfigError(f"'error' must be a string, got {type(error).__name__}")
    if error_type is not None and not isinstance(error_type, str):
        raise ConfigError(f"'error_type' must be a string, got {type(error_type).__name__}")
    elapsed = payload.get("elapsed_s", 0.0)
    if isinstance(elapsed, bool) or not isinstance(elapsed, (int, float)) or elapsed < 0:
        raise ConfigError(f"'elapsed_s' must be a non-negative number, got {elapsed!r}")
    return {
        "worker": worker,
        "ok": ok,
        "result": None if result is None else dict(result),
        "error": error,
        "error_type": error_type,
        "elapsed_s": float(elapsed),
    }


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
        "priority": record.priority,
        "attempts": record.attempt + (1 if executing else 0),
        "fingerprint": record.fingerprint,
        "cached": record.cached,
        "elapsed_s": round(record.elapsed_s, 6),
        "submitted_at": record.submitted_at,
        "updated_at": record.ts,
        "error": record.error,
        "error_type": record.error_type,
        "has_result": record.result is not None,
        "worker": record.worker,
        "lease_expires_at": record.lease_expires_at,
        "tags": list(record.tags),
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
    from repro.eval.journal import TERMINAL_JOB_STATUSES

    return view.get("status") in TERMINAL_JOB_STATUSES
