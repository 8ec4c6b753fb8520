"""The ``repro serve`` service: HTTP front end + supervisor back end.

Architecture::

    clients ──HTTP──▶ ThreadingHTTPServer (handler threads)
    workers ──HTTP──▶     │  submit / status / result / cancel
                          │  claim / heartbeat / complete   (lease wire)
                          ▼
                      JobStore  (fsynced jobs.jsonl — the only state)
                          ▲
                          │  expire leases / claim / finish
                      supervisor thread ──▶ Orchestrator (persistent pool)

Handler threads only ever touch the store (plus a synchronous result-
cache probe at submit time). The single supervisor thread does the rest,
every poll tick: reap expired worker leases (re-enqueue, attempt + 1)
and — unless ``--external-only`` — claim and run the next job on one
long-lived process pool, so the pool's warm workers and the
content-hash cache are shared across every submission. All service state lives in the store's journal: kill the
process at any point and a restart resumes the queue.

Remote ``repro worker`` processes are just another client of the same
``/v1`` API: they claim under a lease, heartbeat while executing, and
report completion; a worker that dies mid-job simply stops heartbeating
and the supervisor re-enqueues the job once the lease lapses.

``--once`` is the CI mode: the service exits by itself once at least one
job exists, nothing is queued or running, and no request has arrived for
``grace`` seconds — long enough for a test to submit, wait, and resubmit
for the cache-hit assertion before the server stands down.

(`REPRO_SERVE_NO_EXECUTOR=1` starts the server without its supervisor
thread — a fault-injection knob for the kill/restart tests only.)
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError, JobConflictError, UnknownJobError
from repro.eval import cache as result_cache
from repro.eval.journal import JOB_DONE, JOB_FAILED, JobRecord
from repro.eval.orchestrator import STATUS_CACHED, Orchestrator, derive_seed, format_error
from repro.eval.registry import normalize_params
from repro.eval.tables import save_result
from repro.serve import schema
from repro.serve.execution import execute_job
from repro.serve.store import JobStore

#: How long the executor naps between empty queue polls, and how often the
#: HTTP loop checks for shutdown (``close`` waits out at most one poll).
_POLL_S = 0.05


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    service: "JobService"


class JobService:
    """One queue directory, one HTTP endpoint, one executor, one pool."""

    def __init__(
        self,
        queue_dir: Optional[str] = None,
        host: str = schema.DEFAULT_HOST,
        port: int = schema.DEFAULT_PORT,
        workers: Optional[int] = None,
        once: bool = False,
        grace: float = 5.0,
        verbose: bool = True,
        start_executor: bool = True,
        external_only: bool = False,
    ) -> None:
        self.store = JobStore(queue_dir)
        self.orchestrator = Orchestrator(jobs=workers, verbose=False, persistent_pool=True)
        self.once = once
        self.grace = grace
        self.verbose = verbose
        self.start_executor = start_executor
        self.external_only = external_only
        self.source_digest = result_cache.source_digest()
        self._stop = threading.Event()
        self._failed_jobs = 0
        self._last_activity = time.monotonic()
        self._threads: List[threading.Thread] = []
        try:
            self.httpd = _Server((host, port), _Handler)
        except OSError as exc:
            raise ConfigError(f"cannot bind {host}:{port}: {exc}") from exc
        self.httpd.service = self
        self.host, self.port = self.httpd.server_address[:2]

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Start the HTTP thread (and the executor unless disabled)."""
        http = threading.Thread(target=self.httpd.serve_forever, args=(_POLL_S,), daemon=True)
        http.start()
        self._threads.append(http)
        if self.start_executor:
            executor = threading.Thread(target=self._executor_loop, daemon=True)
            executor.start()
            self._threads.append(executor)
        self._log(
            f"serving on http://{self.host}:{self.port}{schema.API_PREFIX} "
            f"(queue: {self.store.root}, workers: {self.orchestrator.jobs}"
            f"{', once' if self.once else ''})"
        )

    def run(self) -> int:
        """Serve until shut down; exit 0 unless a job failed."""
        self.start()
        try:
            while not self._stop.wait(0.1):
                pass
        except KeyboardInterrupt:
            self._log("interrupted; shutting down")
        finally:
            self.close()
        return 0 if self._failed_jobs == 0 else 1

    def request_shutdown(self) -> None:
        """Ask the service to stop (the running job finishes first)."""
        self._stop.set()

    def close(self) -> None:
        """Stop every thread, the HTTP listener, and the worker pool."""
        self._stop.set()
        self.httpd.shutdown()
        self.httpd.server_close()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=30)
        self._threads.clear()
        self.orchestrator.shutdown_pool()

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[serve] {message}", flush=True)

    def touch(self) -> None:
        """Note client activity (defers the ``--once`` drain exit)."""
        self._last_activity = time.monotonic()

    # -- submission (handler threads) ------------------------------------------

    def submit(self, payload: Any) -> JobRecord:
        """Validate, cache-probe, and enqueue one submission."""
        spec, priority = schema.validate_submission(payload)
        tags = schema.submission_tags(payload)
        fp = schema.fingerprint(spec, self.source_digest)
        cached = self._probe_cache(spec, fp)
        record = self.store.submit(
            spec, priority=priority, fingerprint=fp, cached_result=cached, tags=tags
        )
        self._log(
            f"job {record.job_id} submitted: {spec['task']}"
            + (" (cache hit)" if cached is not None else "")
        )
        return record

    def submit_batch(self, payload: Any) -> Dict[str, Any]:
        """Validate, cache-probe, and enqueue a whole submission batch.

        Each entry is validated independently: a bad spec becomes an
        ``{"index", "error"}`` entry in the response while its batch
        mates proceed. Every accepted entry is journaled in one durable
        batch append (:meth:`JobStore.submit_many` — one fsync, one lock
        hold, so a concurrent claim sees none or all of them). The
        response's ``jobs`` list is aligned to the request order.
        """
        bodies = schema.validate_batch_jobs(payload)
        entries: List[Optional[Dict[str, Any]]] = [None] * len(bodies)
        prepared: List[Tuple[int, Dict[str, Any]]] = []
        for index, body in enumerate(bodies):
            try:
                spec, priority = schema.validate_submission(body)
                tags = schema.submission_tags(body)
                fp = schema.fingerprint(spec, self.source_digest)
                cached = self._probe_cache(spec, fp)
            except ConfigError as exc:
                entries[index] = {"index": index, "error": str(exc)}
                continue
            prepared.append(
                (
                    index,
                    {
                        "spec": spec,
                        "priority": priority,
                        "fingerprint": fp,
                        "cached_result": cached,
                        "tags": tags,
                    },
                )
            )
        records = self.store.submit_many([entry for _, entry in prepared])
        for (index, _), record in zip(prepared, records):
            entries[index] = schema.job_view(record)
        accepted = sum(1 for entry in entries if entry is not None and "id" in entry)
        rejected = len(entries) - accepted
        self._log(
            f"batch submitted: {accepted} accepted, {rejected} rejected "
            f"of {len(entries)} entries"
        )
        return {
            "schema": schema.SERVE_SCHEMA,
            "jobs": entries,
            "accepted": accepted,
            "rejected": rejected,
        }

    def status_batch(self, payload: Any) -> Dict[str, Any]:
        """Answer many status lookups from committed store state.

        ``{"all": true}`` lists every job in submission order (one
        consistent snapshot); ``{"ids": [...]}`` resolves each id, with
        unknown ids answered as per-entry ``{"id", "error"}`` objects
        rather than failing the batch. Reads only; nothing is journaled.
        """
        ids, all_jobs = schema.validate_batch_status(payload)
        if all_jobs:
            views: List[Dict[str, Any]] = [schema.job_view(r) for r in self.store.jobs()]
        else:
            views = []
            for job_id in ids:
                try:
                    views.append(schema.job_view(self.store.get(job_id)))
                except UnknownJobError as exc:
                    views.append({"id": job_id, "error": str(exc)})
        return {
            "schema": schema.SERVE_SCHEMA,
            "jobs": views,
            "total": self.store.total(),
        }

    def complete(self, job_id: str, payload: Any) -> JobRecord:
        """Apply a worker's completion report to its leased job."""
        done = schema.validate_complete(payload)
        record = self.store.finish(
            job_id,
            status=JOB_DONE if done["ok"] else JOB_FAILED,
            result=done["result"],
            error=done["error"],
            error_type=done["error_type"],
            elapsed_s=done["elapsed_s"],
            worker=done["worker"],
        )
        if not done["ok"]:
            self._failed_jobs += 1
        self._log(
            f"job {record.job_id} {record.status} by worker {done['worker']} "
            f"in {done['elapsed_s']:.1f}s"
        )
        return record

    def _probe_cache(self, spec: Dict[str, Any], fp: str) -> Optional[dict]:
        """A terminal result for this spec, if one is already durable.

        Experiments probe the content-hash result cache directly (hitting
        results computed by ``repro run`` or earlier jobs alike); sweeps
        are served from the newest completed job with the same
        fingerprint.
        """
        if spec["task"] == schema.TASK_EXPERIMENT:
            name = spec["experiment"]
            seed = derive_seed(spec["seed"], name)
            key = result_cache.cache_key(
                name, normalize_params(dict(spec["params"])), seed, self.source_digest
            )
            entry = result_cache.ResultCache().load(name, key)
            if entry is None:
                return None
            return {
                "task": schema.TASK_EXPERIMENT,
                "status": STATUS_CACHED,
                "cached": True,
                "artifact": save_result(name, entry.text),
                "text": entry.text,
                "elapsed_s": entry.elapsed_s,
                "cache_key": key,
                "summary": entry.summary,
            }
        prior = self.store.find_completed(fp)
        if prior is None:
            return None
        result = dict(prior.result or {})
        result["cached"] = True
        return result

    # -- supervision (the executor thread) --------------------------------------

    def _executor_loop(self) -> None:
        """The supervisor tick: reap leases, run jobs."""
        while not self._stop.is_set():
            try:
                progressed = self._reap_leases()
                if not self.external_only:
                    job = self.store.claim()
                    if job is not None:
                        self.touch()
                        self._execute(job)
                        self.touch()
                        progressed = True
                if progressed:
                    continue
                if self.once and self._drained():
                    self._log("queue drained; exiting (--once)")
                    self._stop.set()
                    break
                self._stop.wait(_POLL_S)
            except Exception as exc:
                # A store I/O failure (disk full, EIO on the journal
                # fsync) must not kill the executor silently while the
                # HTTP side keeps accepting work; log, count it as a
                # failure, back off, retry. Restart recovery re-enqueues
                # any job caught between claim and finish.
                self._failed_jobs += 1
                print(f"[serve] executor error: {format_error(exc)}", flush=True)
                self._stop.wait(1.0)

    def _drained(self) -> bool:
        return (
            self.store.total() > 0
            and self.store.active() == 0
            and time.monotonic() - self._last_activity > self.grace
        )

    def _reap_leases(self) -> bool:
        """Re-enqueue (or fail out) running jobs whose lease lapsed."""
        reaped = self.store.expire_leases()
        for record in reaped:
            if record.status == JOB_FAILED:
                self._failed_jobs += 1
                self._log(f"job {record.job_id} failed: lease attempts exhausted")
            else:
                self._log(
                    f"job {record.job_id} lease expired; re-enqueued "
                    f"(attempt {record.attempt + 1})"
                )
        return bool(reaped)

    def _execute(self, job: JobRecord) -> None:
        self._log(f"job {job.job_id} running: {job.task} (priority {job.priority})")
        start = time.perf_counter()
        try:
            ok, result, error, error_type = execute_job(job.task, job.spec, self.orchestrator)
        except Exception as exc:  # a job must never kill the executor
            ok, result = False, None
            error, error_type = format_error(exc), type(exc).__name__
        elapsed = time.perf_counter() - start
        if not ok:
            self._failed_jobs += 1
        record = self.store.finish(
            job.job_id,
            status=JOB_DONE if ok else JOB_FAILED,
            result=result,
            error=error,
            error_type=error_type,
            elapsed_s=elapsed,
        )
        self._log(f"job {record.job_id} {record.status} in {elapsed:.1f}s")


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON router over :class:`JobService` (see the wire schema)."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    server: _Server

    @property
    def service(self) -> JobService:
        """The owning :class:`JobService` (shared across handler threads)."""
        return self.server.service

    def log_message(self, format: str, *args: Any) -> None:
        """Route http.server's access log through the service logger."""
        if self.service.verbose:
            print(f"[serve] {self.address_string()} {format % args}", flush=True)

    def _send(self, code: int, payload: dict) -> None:
        """Answer with a JSON body and an exact Content-Length."""
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _route(self) -> Tuple[str, ...]:
        """The request path as ``/v1``-relative segments (empty = miss)."""
        path = self.path.split("?", 1)[0].rstrip("/")
        if not path.startswith(schema.API_PREFIX):
            return ()
        return tuple(p for p in path[len(schema.API_PREFIX) :].split("/") if p)

    def _read_body(self) -> bytes:
        """Drain the request body regardless of route.

        Under HTTP/1.1 keep-alive, unread body bytes would be parsed as
        the *next* request line on the connection — so every POST must
        consume its body even when the route ignores it.
        """
        length = int(self.headers.get("Content-Length") or 0)
        return self.rfile.read(length) if length > 0 else b""

    def _guarded(self, respond: Any) -> None:
        """Run one route, mapping failures onto wire-schema errors.

        The status follows the error's type: 404 for an unknown job, 409
        for a transition the job's state refuses, 400 for any other
        :class:`ConfigError` (a bad request).
        """
        try:
            respond()
        except ConfigError as exc:
            if isinstance(exc, UnknownJobError):
                code = 404
            elif isinstance(exc, JobConflictError):
                code = 409
            else:
                code = 400
            self._send(code, schema.error_body(str(exc)))
        except Exception as exc:  # never drop the connection without a body
            try:
                self._send(500, schema.error_body(f"internal error: {format_error(exc)}"))
            except OSError:
                pass  # client already gone; nothing left to answer

    def do_GET(self) -> None:
        """Dispatch a GET request (read-only; nothing is journaled)."""
        self.service.touch()
        self._guarded(self._get)

    def _get(self) -> None:
        """Serve the read-only endpoints: health, listings, job views.

        Every answer comes from the store's committed in-memory state
        under its lock — a request arriving mid-compaction blocks
        briefly and then sees the full queue, never a partial snapshot.
        """
        route = self._route()
        if route == ("health",):
            store = self.service.store
            self._send(
                200,
                {
                    "schema": schema.SERVE_SCHEMA,
                    "status": "ok",
                    "queue_dir": store.root,
                    "jobs": store.total(),
                    "counts": store.counts(),
                    "workers": self.service.orchestrator.jobs,
                    "once": self.service.once,
                    "external_only": self.service.external_only,
                    "source_digest": self.service.source_digest,
                },
            )
        elif route == ("jobs",):
            views = [schema.job_view(r) for r in self.service.store.jobs()]
            self._send(200, {"jobs": views})
        elif len(route) == 2 and route[0] == "jobs":
            self._send(200, schema.job_view(self.service.store.get(route[1])))
        elif len(route) == 3 and route[0] == "jobs" and route[2] == "result":
            record = self.service.store.get(route[1])
            if not record.terminal:
                self._send(
                    409,
                    schema.error_body(
                        f"job {record.job_id} is {record.status!r}; result not ready"
                    ),
                )
                return
            self._send(200, schema.job_view(record, result=True))
        else:
            self._send(404, schema.error_body(f"no such endpoint: GET {self.path}"))

    def do_POST(self) -> None:
        """Dispatch a POST request, draining its body first (keep-alive)."""
        self.service.touch()
        body = self._read_body()
        self._guarded(lambda: self._post(body))

    def _post(self, body: bytes) -> None:
        """Serve the mutating endpoints; each success is journaled.

        Submissions (single and batch), claims, heartbeats, completions,
        and cancels all append fsynced records to ``jobs.jsonl`` before
        answering — the response never promises state the journal does
        not yet hold. ``status_batch`` and ``shutdown`` journal nothing.
        """
        route = self._route()
        if route == ("jobs",):
            record = self.service.submit(schema.parse_body(body))
            self._send(200, schema.job_view(record))
        elif route == ("jobs", "submit_batch"):
            self._send(200, self.service.submit_batch(schema.parse_body(body)))
        elif route == ("jobs", "status_batch"):
            self._send(200, self.service.status_batch(schema.parse_body(body)))
        elif route == ("jobs", "claim"):
            worker, lease_ttl, tags = schema.validate_claim(schema.parse_body(body))
            record = self.service.store.claim(worker=worker, lease_ttl=lease_ttl, tags=tags)
            self._send(
                200,
                {
                    "job": None if record is None else schema.job_view(record),
                    "outstanding": self.service.store.active(),
                    "total": self.service.store.total(),
                },
            )
        elif len(route) == 3 and route[0] == "jobs" and route[2] == "heartbeat":
            payload = schema.parse_body(body)
            if not isinstance(payload, dict) or not isinstance(payload.get("worker"), str):
                raise ConfigError("heartbeat needs a JSON body naming its 'worker'")
            record = self.service.store.get(route[1])  # 404 before 409
            self._send(
                200, schema.job_view(self.service.store.heartbeat(record.job_id, payload["worker"]))
            )
        elif len(route) == 3 and route[0] == "jobs" and route[2] == "complete":
            record = self.service.store.get(route[1])  # 404 before 409
            self._send(
                200, schema.job_view(self.service.complete(record.job_id, schema.parse_body(body)))
            )
        elif len(route) == 3 and route[0] == "jobs" and route[2] == "cancel":
            record = self.service.store.get(route[1])  # 404 before 409
            self._send(200, schema.job_view(self.service.store.cancel(record.job_id)))
        elif route == ("shutdown",):
            self._send(200, {"status": "stopping"})
            self.service.request_shutdown()
        else:
            self._send(404, schema.error_body(f"no such endpoint: POST {self.path}"))


def build_service(args: Any) -> JobService:
    """CLI entry: a :class:`JobService` from ``repro serve`` arguments."""
    return JobService(
        queue_dir=args.queue_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        once=args.once,
        grace=args.grace,
        verbose=not args.quiet,
        start_executor=os.environ.get("REPRO_SERVE_NO_EXECUTOR") != "1",
        external_only=args.external_only,
    )
