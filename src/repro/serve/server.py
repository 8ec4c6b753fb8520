"""The ``repro serve`` HTTP front end.

Architecture::

    clients ──HTTP──▶ ThreadingHTTPServer (handler threads)
                          │  submit / status / result / cancel
                          ▼
                      JobStore  (fsynced jobs.jsonl — the only state)
                          ▲
                          │  claim / finish, oldest job first
                      executor thread (serve/worker.py)
                          └──▶ a fresh Orchestrator per job

Handler threads only ever touch the store (plus a synchronous result-
cache probe at submit time). The one executor thread runs the jobs,
each on its own orchestrator, so a job writes the same artifacts and
cache entries as the equivalent ``repro run`` or ``sweep run``. All
service state lives in the store's journal: kill the process at any
point and a restart resumes the queue.

``--once`` is the CI mode: the service exits by itself once at least one
job exists, nothing is queued or running, and no request has arrived for
``grace`` seconds — long enough for a test to submit, wait, and resubmit
for the cache-hit assertion before the server stands down.

(`REPRO_SERVE_NO_EXECUTOR=1` starts the server without its executor
thread — a fault-injection knob for the kill/restart tests only.)
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError, JobConflictError, UnknownJobError
from repro.eval import cache as result_cache
from repro.eval.journal import JobRecord
from repro.eval.orchestrator import STATUS_CACHED, derive_seed, format_error
from repro.eval.registry import normalize_params
from repro.eval.tables import save_result
from repro.serve import schema
from repro.serve.store import JobStore
from repro.serve.worker import Worker

#: How often the HTTP loop checks for shutdown (``close`` waits out at
#: most one poll).
_POLL_S = 0.05


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    service: "JobService"


class JobService:
    """One queue directory, one HTTP endpoint, one executor."""

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
    ) -> None:
        self.source_digest = result_cache.source_digest()
        # Bind before opening the store. Opening runs restart recovery,
        # which re-enqueues every running job; when the port is taken, a
        # live server may be running those jobs from this same queue.
        try:
            self.httpd = _Server((host, port), _Handler)
        except OSError as exc:
            raise ConfigError(f"cannot bind {host}:{port}: {exc}") from exc
        try:
            self.store = JobStore(queue_dir)
        except BaseException:
            self.httpd.server_close()
            raise
        self.httpd.service = self
        self.host, self.port = self.httpd.server_address[:2]
        self.once = once
        self.verbose = verbose
        self.start_executor = start_executor
        self._stop = threading.Event()
        self.worker = Worker(
            self.store, self._stop, jobs=workers, once=once, grace=grace, verbose=verbose
        )
        self._threads: List[threading.Thread] = []

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Start the HTTP thread (and the executor unless disabled)."""
        http = threading.Thread(target=self.httpd.serve_forever, args=(_POLL_S,), daemon=True)
        http.start()
        self._threads.append(http)
        if self.start_executor:
            executor = threading.Thread(target=self.worker.run, daemon=True)
            executor.start()
            self._threads.append(executor)
        self._log(
            f"serving on http://{self.host}:{self.port}{schema.API_PREFIX} "
            f"(queue: {self.store.root}, workers: {self.worker.jobs}"
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
        return 0 if self.worker.failed == 0 else 1

    def request_shutdown(self) -> None:
        """Ask the service to stop (the running job finishes first)."""
        self._stop.set()

    def close(self) -> None:
        """Stop the executor and the HTTP listener."""
        self._stop.set()
        self.httpd.shutdown()
        self.httpd.server_close()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=30)
        self._threads.clear()

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[serve] {message}", flush=True)

    def touch(self) -> None:
        """Note client activity (defers the ``--once`` drain exit)."""
        self.worker.touch()

    # -- submission (handler threads) ------------------------------------------

    def submit(self, payload: Any) -> JobRecord:
        """Validate, cache-probe, and enqueue one submission."""
        spec = schema.validate_submission(payload)
        fp = schema.fingerprint(spec, self.source_digest)
        cached = self._probe_cache(spec, fp)
        record = self.store.submit(spec, fingerprint=fp, cached_result=cached)
        self._log(
            f"job {record.job_id} submitted: {spec['task']}"
            + (" (cache hit)" if cached is not None else "")
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
        """Answer with a JSON body and an exact Content-Length.

        A connection that ends after this answer says so with
        ``Connection: close``.
        """
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
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
        consume its body even when the route ignores it. A
        ``Content-Length`` that is not a non-negative integer leaves the
        body unframed: the request is a :class:`ConfigError` (400) and
        the connection closes after the answer.
        """
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ConfigError(f"Content-Length must be a non-negative integer, got {raw!r}")
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

        Every answer comes from the store's committed in-memory state,
        read under its lock.
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
                    "workers": self.service.worker.jobs,
                    "once": self.service.once,
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
        """Dispatch a POST request (its body is read inside the error mapping)."""
        self.service.touch()
        self._guarded(self._post)

    def _post(self) -> None:
        """Serve the mutating endpoints; each success is journaled.

        The body is drained before routing (keep-alive). Submissions and
        cancels append fsynced records to ``jobs.jsonl`` before
        answering — the response never promises state the journal does
        not yet hold. ``shutdown`` journals nothing.
        """
        body = self._read_body()
        route = self._route()
        if route == ("jobs",):
            record = self.service.submit(schema.parse_body(body))
            self._send(200, schema.job_view(record))
        elif len(route) == 3 and route[0] == "jobs" and route[2] == "cancel":
            self._send(200, schema.job_view(self.service.store.cancel(route[1])))
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
    )
