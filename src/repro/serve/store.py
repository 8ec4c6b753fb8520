"""Durable, journal-backed job queue for ``repro serve``.

The queue has no in-memory-only state: every transition —
``submitted -> running -> done | failed``, or ``submitted ->
cancelled`` — is appended to ``jobs.jsonl`` as one
:class:`~repro.eval.journal.JobRecord` line that counts as written only
once it is flushed and fsynced, and the newest record per job id *is*
the job's state. :func:`~repro.eval.journal.read_journal` tolerates a
torn final line, so killing the server at any instant loses at most the
line being written; reopening the store replays the journal and
:meth:`JobStore.recover` re-enqueues whatever a dead server left
``running``. Jobs run in submission order (FIFO).

The store is thread-safe (the HTTP handler threads submit/cancel while
the executor thread claims/finishes) but single-process: one server owns
one queue directory.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
import uuid
from typing import Dict, List, Optional

from repro.errors import JobConflictError, UnknownJobError
from repro.eval.journal import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_RUNNING,
    JOB_SUBMITTED,
    JobRecord,
    RunJournal,
    read_journal,
)
from repro.eval.tables import results_dir


def default_queue_dir() -> str:
    """Where the queue lives unless ``--queue-dir`` says otherwise."""
    return os.path.join(results_dir(), "queue")


class JobStore:
    """The durable queue: submit, claim, finish, cancel — all journaled."""

    def __init__(self, root: Optional[str] = None) -> None:
        """Open (or create) the queue at ``root`` and replay its journal.

        Opening journals a ``resume`` marker on an existing queue (after
        truncating any crash-torn tail), and dead-server recovery runs
        before the store is handed out. Opening is never read-only: to
        look at a queue another server may own, read its journal with
        :func:`~repro.eval.journal.read_journal` instead.
        """
        self.root = root or default_queue_dir()
        self.path = os.path.join(self.root, "jobs.jsonl")
        self._lock = threading.RLock()
        #: Newest record per job id. A dict keeps its keys in first-insertion
        #: order, so iterating it walks the jobs in submission order.
        self._jobs: Dict[str, JobRecord] = {}
        if os.path.isfile(self.path):
            for record in read_journal(self.path).jobs:
                self._jobs[record.job_id] = record
            # attach() truncates a torn tail and appends a resume marker,
            # so every store reopening is visible in the journal itself.
            self._journal = RunJournal.attach(self.path)
        else:
            self._journal = RunJournal.start(
                self.path, {"queue": "repro-serve", "created_at": time.time()}
            )
        self.recover()

    def recover(self) -> None:
        """Re-enqueue jobs a dead server left mid-execution.

        A ``running`` record with no terminal successor means an executor
        died mid-job: the job goes back to ``submitted`` with its attempt
        count bumped, so restart resumes the queue where the crash cut it
        off.
        """
        with self._lock:
            now = time.time()
            for record in self.jobs():
                if record.status == JOB_RUNNING:
                    self._append(
                        dataclasses.replace(
                            record, status=JOB_SUBMITTED, attempt=record.attempt + 1, ts=now
                        )
                    )

    def _append(self, record: JobRecord) -> None:
        """Journal one record durably, then mirror it into memory.

        The journal line lands (fsynced) before the in-memory map sees
        the new state, so committed state is always a subset of the
        durable journal.
        """
        self._journal.append_job(record)
        self._jobs[record.job_id] = record

    def _new_id(self) -> str:
        while True:
            job_id = uuid.uuid4().hex[:12]
            if job_id not in self._jobs:
                return job_id

    def submit(
        self,
        spec: Dict[str, object],
        fingerprint: str = "",
        cached_result: Optional[dict] = None,
    ) -> JobRecord:
        """Enqueue a canonical spec; returns the journaled record.

        With ``cached_result`` the job is born terminal (``done`` with
        ``cached: true``) — the submission was answered from the result
        cache and never touches the executor.
        """
        with self._lock:
            now = time.time()
            record = JobRecord(
                job_id=self._new_id(),
                task=str(spec["task"]),
                status=JOB_DONE if cached_result is not None else JOB_SUBMITTED,
                spec=dict(spec),
                fingerprint=fingerprint,
                cached=cached_result is not None,
                result=cached_result,
                submitted_at=now,
                ts=now,
            )
            self._append(record)
            return record

    def claim(self) -> Optional[JobRecord]:
        """Move the oldest queued job to ``running`` and return it."""
        with self._lock:
            for record in self._jobs.values():
                if record.status == JOB_SUBMITTED:
                    running = dataclasses.replace(record, status=JOB_RUNNING, ts=time.time())
                    self._append(running)
                    return running
            return None

    def finish(
        self,
        job_id: str,
        status: str,
        result: Optional[dict] = None,
        error: Optional[str] = None,
        error_type: Optional[str] = None,
        elapsed_s: float = 0.0,
    ) -> JobRecord:
        """Journal a running job's terminal outcome."""
        with self._lock:
            record = self.get(job_id)
            if record.status != JOB_RUNNING:
                raise JobConflictError(
                    f"job {job_id} is {record.status!r}, not running; cannot finish it"
                )
            done = dataclasses.replace(
                record,
                status=status,
                result=result,
                error=error,
                error_type=error_type,
                elapsed_s=elapsed_s,
                ts=time.time(),
            )
            self._append(done)
            return done

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a job that has not started; anything else is refused."""
        with self._lock:
            record = self.get(job_id)
            if record.status != JOB_SUBMITTED:
                raise JobConflictError(
                    f"job {job_id} is {record.status!r}; only queued jobs can be cancelled"
                )
            cancelled = dataclasses.replace(record, status=JOB_CANCELLED, ts=time.time())
            self._append(cancelled)
            return cancelled

    def get(self, job_id: str) -> JobRecord:
        """The newest committed record of one job; unknown ids raise."""
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise UnknownJobError(f"unknown job id {job_id!r}")
            return record

    def jobs(self) -> List[JobRecord]:
        """Every job, submission order — committed state only."""
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        """Committed job count per status (for ``/v1/health``)."""
        with self._lock:
            out: Dict[str, int] = {}
            for record in self._jobs.values():
                out[record.status] = out.get(record.status, 0) + 1
            return out

    def active(self) -> int:
        """Jobs still needing the executor (queued or running)."""
        with self._lock:
            return sum(1 for r in self._jobs.values() if r.status in (JOB_SUBMITTED, JOB_RUNNING))

    def total(self) -> int:
        """Jobs ever submitted (any status)."""
        with self._lock:
            return len(self._jobs)

    def find_completed(self, fingerprint: str) -> Optional[JobRecord]:
        """The newest successfully completed job with this fingerprint.

        This is the duplicate-submission fast path for tasks the result
        cache cannot answer point-wise (whole sweeps): the prior job's
        terminal payload is served as the cache hit.
        """
        with self._lock:
            matches = [
                r
                for r in self._jobs.values()
                if r.fingerprint == fingerprint and r.status == JOB_DONE and r.result is not None
            ]
            return matches[-1] if matches else None
