"""The ``repro serve`` executor: runs queued jobs one at a time, oldest first.

:class:`Worker` drains one :class:`~repro.serve.store.JobStore`. Each
step claims the oldest queued job (journaled ``running``), runs it
through :func:`~repro.serve.execution.execute_job` on a fresh
orchestrator, and journals the terminal outcome. A job that fails is
recorded with its traceback and the loop moves on. A store I/O error
(disk full, EIO on the journal fsync) is logged, counted as a failure
and retried after a back-off; restart recovery re-enqueues a job caught
between its claim and its finish.

Under ``once`` the loop ends by itself once at least one job exists,
nothing is queued or running, and nothing has happened for ``grace``
seconds: :meth:`Worker.touch` records activity, and the HTTP side calls
it for every request.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

from repro.eval.journal import JOB_DONE, JOB_FAILED
from repro.eval.orchestrator import format_error
from repro.serve.execution import execute_job
from repro.serve.store import JobStore

#: How long the loop naps between empty queue polls.
_POLL_S = 0.05


class Worker:
    """Claim → execute → finish, one job at a time, against one store."""

    def __init__(
        self,
        store: JobStore,
        stop: threading.Event,
        jobs: Optional[int] = None,
        once: bool = False,
        grace: float = 5.0,
        verbose: bool = True,
    ) -> None:
        self.store = store
        self.stop = stop  #: set to end the loop; the loop sets it when ``once`` drains
        #: Worker processes each job's orchestrator gets (1 = in-process).
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        self.once = once
        self.grace = grace
        self.verbose = verbose
        self.failed = 0  #: failed jobs plus store errors
        self._last_activity = time.monotonic()

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[serve] {message}", flush=True)

    def touch(self) -> None:
        """Note activity (defers the ``once`` exit by ``grace`` seconds)."""
        self._last_activity = time.monotonic()

    def run(self) -> None:
        """Run queued jobs until ``stop`` is set (or drained, under ``once``)."""
        while not self.stop.is_set():
            try:
                ran = self.run_next()
            except Exception as exc:
                self.failed += 1
                print(f"[serve] executor error: {format_error(exc)}", flush=True)
                self.stop.wait(1.0)
                continue
            if ran:
                self.touch()
            elif self.once and self._drained():
                self._log("queue drained; exiting (--once)")
                self.stop.set()
            else:
                self.stop.wait(_POLL_S)

    def _drained(self) -> bool:
        return (
            self.store.total() > 0
            and self.store.active() == 0
            and time.monotonic() - self._last_activity > self.grace
        )

    def run_next(self) -> bool:
        """Run the oldest queued job to its terminal record; False if none is queued."""
        job = self.store.claim()
        if job is None:
            return False
        self._log(f"job {job.job_id} running: {job.task}")
        start = time.perf_counter()
        try:
            ok, result, error, error_type = execute_job(job.task, job.spec, self.jobs)
        except Exception as exc:  # a job must never kill the executor
            ok, result = False, None
            error, error_type = format_error(exc), type(exc).__name__
        elapsed = time.perf_counter() - start
        if not ok:
            self.failed += 1
        record = self.store.finish(
            job.job_id,
            status=JOB_DONE if ok else JOB_FAILED,
            result=result,
            error=error,
            error_type=error_type,
            elapsed_s=elapsed,
        )
        self._log(f"job {record.job_id} {record.status} in {elapsed:.1f}s")
        return True
