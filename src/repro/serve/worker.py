"""The ``repro worker`` process: a remote executor of the serve queue.

A worker is just another HTTP client of a running ``repro serve``
instance. Its loop is claim → execute → complete:

- **claim** leases the best pending job (``/v1/jobs/claim``) under this
  worker's id for ``lease_ttl`` seconds;
- while the job runs on the worker's own persistent-pool
  :class:`~repro.eval.orchestrator.Orchestrator`, a daemon thread
  **heartbeats** every ``lease_ttl / 3`` seconds, pushing the journaled
  expiry out — so as long as the process is alive the job stays its;
- **complete** reports the terminal outcome. A 409 answer means the
  lease was lost first (the worker stalled past its TTL and the server
  re-enqueued the job); the worker drops the result on the floor —
  whoever re-ran the job journaled the canonical outcome — and moves on.

A worker that dies mid-job needs no cleanup protocol at all: its
heartbeats simply stop, the lease lapses, and the server's supervisor
re-enqueues the job with attempt + 1.

Workers share the results tree (the content-hash cache and artifact
writes are atomic ``os.replace`` operations), so co-located workers
deduplicate work naturally. ``--once`` is the fleet drain mode for CI:
exit as soon as a claim comes back empty, nothing is outstanding, and
at least one job has ever been submitted — the same "wait for work,
then drain" contract as ``serve --once``, so a fleet can be pre-warmed
before the first submission arrives.

(``REPRO_WORKER_HOLD_S=N`` makes the worker sleep N seconds after
claiming, before executing — heartbeating all the while. A fault-
injection knob: the crash tests SIGKILL the held worker mid-lease and
assert the queue recovers.)
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Dict, Optional, Sequence

from repro.errors import ServiceError
from repro.eval.orchestrator import Orchestrator, format_error
from repro.serve import schema
from repro.serve.client import ServeClient
from repro.serve.execution import execute_job


def default_worker_id() -> str:
    """Unique-enough worker identity: ``<hostname>-<pid>``."""
    return f"{socket.gethostname()}-{os.getpid()}"


class Worker:
    """One claim→execute→complete loop against one serve endpoint."""

    def __init__(
        self,
        host: str = schema.DEFAULT_HOST,
        port: int = schema.DEFAULT_PORT,
        worker_id: Optional[str] = None,
        lease_ttl: float = schema.DEFAULT_LEASE_TTL,
        tags: Sequence[str] = (),
        jobs: Optional[int] = None,
        once: bool = False,
        poll: float = 0.2,
        verbose: bool = True,
    ) -> None:
        self.client = ServeClient(host, port)
        self.worker_id = worker_id or default_worker_id()
        self.lease_ttl = float(lease_ttl)
        self.tags = sorted(tags)
        self.once = once
        self.poll = poll
        self.verbose = verbose
        self.orchestrator = Orchestrator(jobs=jobs, verbose=False, persistent_pool=True)
        self._failed_jobs = 0
        self._stop = threading.Event()

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[worker {self.worker_id}] {message}", flush=True)

    def request_stop(self) -> None:
        """Finish the current job, then exit the loop."""
        self._stop.set()

    def wait_for_server(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Poll ``/health`` until the server answers (startup racing)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.client.health()
            except ServiceError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.2)

    def run(self) -> int:
        """Work the queue until stopped (or drained, under ``--once``).

        Exit status: 0 clean, 1 if any job this worker ran failed, 2 if
        the server became unreachable.
        """
        health = self.wait_for_server()
        self._log(
            f"joined http://{self.client.host}:{self.client.port} "
            f"(queue: {health.get('queue_dir')}, lease {self.lease_ttl:g}s"
            + (f", tags {','.join(self.tags)}" if self.tags else "")
            + (", once" if self.once else "")
            + ")"
        )
        try:
            while not self._stop.is_set():
                answer = self.client.claim(self.worker_id, self.lease_ttl, self.tags)
                view = answer.get("job")
                if view is None:
                    if self.once and answer.get("total") and not answer.get("outstanding"):
                        self._log("queue drained; exiting (--once)")
                        break
                    self._stop.wait(self.poll)
                    continue
                self._run_job(view)
        except ServiceError as exc:
            print(f"[worker {self.worker_id}] server lost: {exc}", flush=True)
            return 2
        finally:
            self.orchestrator.shutdown_pool()
        return 0 if self._failed_jobs == 0 else 1

    def _heartbeat_loop(self, job_id: str, stop: threading.Event) -> None:
        interval = max(self.lease_ttl / 3.0, 0.05)
        while not stop.wait(interval):
            try:
                self.client.heartbeat(job_id, self.worker_id)
            except ServiceError as exc:
                self._log(f"lease on job {job_id} lost: {exc}")
                return

    def _run_job(self, view: Dict[str, Any]) -> None:
        job_id = view["id"]
        self._log(f"job {job_id} claimed: {view['task']} (attempt {view['attempts']})")
        stop_beat = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(job_id, stop_beat), daemon=True
        )
        beat.start()
        start = time.perf_counter()
        try:
            hold = float(os.environ.get("REPRO_WORKER_HOLD_S") or 0)
            if hold > 0:
                # Fault injection: look alive (heartbeating) but never
                # reach execution, so a test can SIGKILL us mid-lease.
                time.sleep(hold)
            ok, result, error, error_type = execute_job(
                view["task"], dict(view["spec"]), self.orchestrator
            )
        except Exception as exc:  # a job must never kill the worker loop
            ok, result = False, None
            error, error_type = format_error(exc), type(exc).__name__
        finally:
            stop_beat.set()
            beat.join(timeout=5)
        elapsed = time.perf_counter() - start
        if not ok:
            self._failed_jobs += 1
        try:
            self.client.complete(
                job_id,
                self.worker_id,
                ok=ok,
                result=result,
                error=error,
                error_type=error_type,
                elapsed_s=elapsed,
            )
            self._log(f"job {job_id} {'done' if ok else 'failed'} in {elapsed:.1f}s")
        except ServiceError as exc:
            if exc.status != 409:
                raise
            # The lease lapsed while we worked: the job was re-enqueued
            # (or re-run) and someone else's outcome is canonical now.
            self._log(f"job {job_id} completion refused (lease lost): {exc}")


def build_worker(args: Any) -> Worker:
    """CLI entry: a :class:`Worker` from ``repro worker`` arguments."""
    host, _, port = args.server.rpartition(":")
    try:
        port_num = int(port)
    except ValueError:
        raise ServiceError(
            f"--server must look like HOST:PORT (e.g. 127.0.0.1:8765), "
            f"got {args.server!r}"
        ) from None
    return Worker(
        host=host or schema.DEFAULT_HOST,
        port=port_num,
        worker_id=args.id,
        lease_ttl=args.lease_ttl,
        tags=args.tags or [],
        jobs=args.jobs,
        once=args.once,
        poll=args.poll,
        verbose=not args.quiet,
    )
