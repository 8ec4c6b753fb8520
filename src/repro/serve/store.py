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
``running``. The journal is compacted down to its
newest-record-per-job snapshot both at recovery time and online — once
the live file exceeds a record threshold (``compact_records``) with at
least half its lines superseded — so ``jobs.jsonl`` stays bounded by
queue size under sustained load, not just across restarts.

Remote workers hold jobs under *leases*: a claim with ``lease_ttl > 0``
journals the worker id and a wall-clock expiry, heartbeats re-journal a
pushed-out expiry, and :meth:`JobStore.expire_leases` re-enqueues any
running job whose lease lapsed (attempt + 1) — the dead-server recovery
model applied per worker. A lease-holding worker survives a server
restart: its journaled lease is still live, so recovery leaves the job
running and the worker's heartbeats pick up against the new process.

The store is thread-safe (the HTTP handler threads submit/cancel while
the executor thread claims/finishes) but single-process: one server owns
one queue directory.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
import uuid
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigError, JobConflictError, UnknownJobError
from repro.eval.journal import (
    CRASH_EXIT_CODE,
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_RUNNING,
    JOB_SUBMITTED,
    JOURNAL_SCHEMA,
    KIND_HEADER,
    JobRecord,
    RunJournal,
    read_journal,
)
from repro.eval.tables import results_dir

#: Executions a job may burn through expired leases before it is failed
#: outright instead of re-enqueued (guards against a poison job that
#: kills every worker which picks it up).
MAX_LEASE_ATTEMPTS = 5

#: Journal record count past which a live store compacts itself (override
#: per store via the constructor, or process-wide with the
#: ``REPRO_STORE_COMPACT_RECORDS`` environment variable). Compaction also
#: waits until at least half the lines are superseded, so a genuinely
#: large queue is never rewritten on every transition.
DEFAULT_COMPACT_RECORDS = 4096


def default_queue_dir() -> str:
    """Where the queue lives unless ``--queue-dir`` says otherwise."""
    return os.path.join(results_dir(), "queue")


class JobStore:
    """The durable queue: submit, claim, finish, cancel — all journaled."""

    def __init__(
        self,
        root: Optional[str] = None,
        recover: bool = True,
        compact_records: Optional[int] = None,
    ) -> None:
        """Open (or create) the queue at ``root`` and replay its journal.

        Opening journals a ``resume`` marker on an existing queue (after
        truncating any crash-torn tail) and removes a stale compaction
        temp file a crash may have left behind — the swap is atomic, so
        an orphaned ``.compact.tmp`` is never part of committed state.
        With ``recover`` (the default) dead-server recovery and a
        compaction pass run before the store is handed out.
        """
        self.root = root or default_queue_dir()
        self.path = os.path.join(self.root, "jobs.jsonl")
        if compact_records is None:
            compact_records = int(
                os.environ.get("REPRO_STORE_COMPACT_RECORDS", DEFAULT_COMPACT_RECORDS)
            )
        if compact_records < 2:
            raise ConfigError(f"compact_records must be >= 2, got {compact_records}")
        self.compact_records = compact_records
        self._lock = threading.RLock()
        self._jobs: Dict[str, JobRecord] = {}  #: newest record per job id
        self._order: Dict[str, int] = {}  #: submission sequence (FIFO tiebreak)
        self._seq = 0
        self._lines = 0  #: job lines in the journal file (compaction trigger)
        stale_tmp = self.path + ".compact.tmp"
        if os.path.isfile(stale_tmp):
            os.remove(stale_tmp)  # a crash mid-compaction; the real journal won
        if os.path.isfile(self.path):
            self._replay()
            # attach() truncates a torn tail and appends a resume marker,
            # so every store reopening is visible in the journal itself.
            self._journal = RunJournal.attach(self.path)
        else:
            self._journal = RunJournal.start(
                self.path, {"queue": "repro-serve", "created_at": time.time()}
            )
        if recover:
            self.recover()

    def _replay(self) -> None:
        """Rebuild the in-memory newest-record map from the journal."""
        view = read_journal(self.path)
        for record in view.jobs:
            if record.job_id not in self._order:
                self._order[record.job_id] = self._seq
                self._seq += 1
            self._jobs[record.job_id] = record
        self._lines = len(view.jobs)

    def recover(self) -> List[JobRecord]:
        """Re-enqueue jobs a dead server left mid-execution, then compact.

        A ``running`` record with no terminal successor means an executor
        died mid-job: the job goes back to ``submitted`` with its attempt
        count bumped, so restart resumes the queue where the crash cut it
        off. The exception is a job under a still-live worker lease — its
        executor is a *remote* process that may well have survived this
        server's death, so it stays running; if the worker is in fact
        dead too, the supervisor's :meth:`expire_leases` sweep reaps it
        the moment the lease lapses. Returns the re-enqueued records.
        """
        requeued: List[JobRecord] = []
        with self._lock:
            now = time.time()
            for job_id, record in sorted(self._jobs.items(), key=lambda kv: self._order[kv[0]]):
                if record.status == JOB_RUNNING and record.lease_expires_at <= now:
                    fresh = dataclasses.replace(
                        record,
                        status=JOB_SUBMITTED,
                        attempt=record.attempt + 1,
                        worker="",
                        lease_ttl=0.0,
                        lease_expires_at=0.0,
                        ts=now,
                    )
                    self._append(fresh)
                    requeued.append(fresh)
            self._compact()
        return requeued

    def _compact(self) -> bool:
        """Rewrite the journal as its newest-record-per-job snapshot.

        Every queue transition appends a line, so under sustained load
        (or across many restarts) the journal would grow without bound
        even for a small queue. When superseded records exist, the
        snapshot (newest record per job, submission order) is written to
        a sibling ``.compact.tmp`` file, fsynced once, and atomically
        swapped in with ``os.replace``; a crash mid-compaction therefore
        leaves either the old journal or the new one, never a hybrid,
        and readers of ``jobs.jsonl`` never observe the temp file.
        Runs at recovery time and — via :meth:`_maybe_compact` — while
        the store is live, always under the store lock, so listings and
        claims only ever see committed state. No-op (returns False) when
        every line is already live state.

        Fault injection: ``REPRO_STORE_CRASH_IN_COMPACT=1`` hard-exits
        the process after the snapshot is durable but *before* the swap
        — the widest window a real crash could hit — for the
        kill-during-compaction tests.
        """
        with self._lock:
            view = read_journal(self.path)
            if len(view.jobs) <= len(self._jobs):
                self._lines = len(view.jobs)
                return False
            header = {k: v for k, v in (view.header or {}).items() if k not in ("kind", "schema")}
            header["compacted_at"] = time.time()
            header["compactions"] = int(header.get("compactions", 0)) + 1
            tmp = self.path + ".compact.tmp"
            self._write_snapshot(tmp, header)
            if os.environ.get("REPRO_STORE_CRASH_IN_COMPACT") == "1":
                os._exit(CRASH_EXIT_CODE)
            os.replace(tmp, self.path)
            self._lines = len(self._jobs)
            return True

    def _write_snapshot(self, tmp: str, header: Dict[str, object]) -> None:
        """Write header + newest-record-per-job lines to ``tmp``, one fsync."""
        head = {"kind": KIND_HEADER, "schema": JOURNAL_SCHEMA}
        head.update(header)
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(json.dumps(head, sort_keys=True) + "\n")
            for record in self.jobs():
                f.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
            f.flush()
            os.fsync(f.fileno())

    def _maybe_compact(self) -> bool:
        """Compact when the live journal has outgrown its queue.

        Triggers once the file holds at least ``compact_records`` job
        lines *and* half of them are superseded — the hysteresis keeps a
        large queue of mostly-live records from being rewritten on every
        transition. Called after each journal append, under the lock, so
        ``jobs.jsonl`` stays bounded by ``max(compact_records, 2 x
        queue size)`` no matter how long the server runs.
        """
        with self._lock:
            if self._lines < max(self.compact_records, 2 * len(self._jobs)):
                return False
            return self._compact()

    def expire_leases(self, max_attempts: int = MAX_LEASE_ATTEMPTS) -> List[JobRecord]:
        """Reap running jobs whose worker lease has lapsed.

        Each is re-enqueued as ``submitted`` with attempt + 1 and its
        lease cleared — unless that would be execution ``max_attempts``,
        in which case the job is failed outright with a synthetic
        ``LeaseExpired`` error. Returns the transitioned records; the
        supervisor loop calls this every poll tick.
        """
        transitioned: List[JobRecord] = []
        with self._lock:
            now = time.time()
            for record in self.jobs():
                if record.status != JOB_RUNNING:
                    continue
                if record.lease_expires_at <= 0 or record.lease_expires_at > now:
                    continue
                attempt = record.attempt + 1
                cleared = dict(worker="", lease_ttl=0.0, lease_expires_at=0.0, ts=now)
                if attempt >= max_attempts:
                    fresh = dataclasses.replace(
                        record,
                        status=JOB_FAILED,
                        attempt=attempt,
                        error=(
                            f"lease expired under worker {record.worker!r}; "
                            f"execution attempt {attempt} of {max_attempts} — "
                            "giving up on this job"
                        ),
                        error_type="LeaseExpired",
                        **cleared,
                    )
                else:
                    fresh = dataclasses.replace(
                        record, status=JOB_SUBMITTED, attempt=attempt, **cleared
                    )
                self._append(fresh)
                transitioned.append(fresh)
        return transitioned

    def _append(self, record: JobRecord) -> None:
        """Journal one record durably, then mirror it into memory.

        The journal line lands (fsynced) before the in-memory map sees
        the new state, so committed state is always a subset of the
        durable journal. Appending may trigger a live compaction pass
        (:meth:`_maybe_compact`) once the file outgrows the queue.
        """
        self._journal.append_job(record)
        if record.job_id not in self._order:
            self._order[record.job_id] = self._seq
            self._seq += 1
        self._jobs[record.job_id] = record
        self._lines += 1
        self._maybe_compact()

    def _new_id(self) -> str:
        while True:
            job_id = uuid.uuid4().hex[:12]
            if job_id not in self._jobs:
                return job_id

    def submit(
        self,
        spec: Dict[str, object],
        priority: int = 0,
        fingerprint: str = "",
        cached_result: Optional[dict] = None,
        tags: Sequence[str] = (),
    ) -> JobRecord:
        """Enqueue a canonical spec; returns the journaled record.

        With ``cached_result`` the job is born terminal (``done`` with
        ``cached: true``) — the submission was answered from the result
        cache and never touches the executor. ``tags`` constrain which
        workers may claim the job (a claim must cover them all).
        """
        with self._lock:
            now = time.time()
            record = JobRecord(
                job_id=self._new_id(),
                task=str(spec["task"]),
                status=JOB_DONE if cached_result is not None else JOB_SUBMITTED,
                spec=dict(spec),
                priority=priority,
                fingerprint=fingerprint,
                cached=cached_result is not None,
                result=cached_result,
                submitted_at=now,
                ts=now,
                tags=sorted(tags),
            )
            self._append(record)
            return record

    def submit_many(self, entries: Sequence[Dict[str, object]]) -> List[JobRecord]:
        """Enqueue many specs with one lock hold and one journal fsync.

        ``entries`` is a list of keyword dicts accepted by
        :meth:`submit` (``spec`` required; ``priority``, ``fingerprint``,
        ``cached_result``, ``tags`` optional). The whole batch is
        journaled as a single durable append
        (:meth:`~repro.eval.journal.RunJournal.append_jobs`), which
        amortizes the per-submission fsync, and the in-memory queue is
        updated only once the batch is on disk — so a concurrent
        :meth:`claim` observes either none of the batch or all of it,
        never a prefix. Returns the journaled records in entry order.
        """
        if not entries:
            return []
        with self._lock:
            now = time.time()
            taken = set(self._jobs)
            records: List[JobRecord] = []
            for entry in entries:
                spec = dict(entry["spec"])  # type: ignore[arg-type]
                cached_result = entry.get("cached_result")
                job_id = uuid.uuid4().hex[:12]
                while job_id in taken:
                    job_id = uuid.uuid4().hex[:12]
                taken.add(job_id)
                records.append(
                    JobRecord(
                        job_id=job_id,
                        task=str(spec["task"]),
                        status=JOB_DONE if cached_result is not None else JOB_SUBMITTED,
                        spec=spec,
                        priority=int(entry.get("priority", 0)),  # type: ignore[arg-type]
                        fingerprint=str(entry.get("fingerprint", "")),
                        cached=cached_result is not None,
                        result=cached_result,  # type: ignore[arg-type]
                        submitted_at=now,
                        ts=now,
                        tags=sorted(entry.get("tags", ())),  # type: ignore[arg-type]
                    )
                )
            self._journal.append_jobs(records)
            for record in records:
                self._order[record.job_id] = self._seq
                self._seq += 1
                self._jobs[record.job_id] = record
            self._lines += len(records)
            self._maybe_compact()
            return records

    def claim(
        self,
        worker: str = "",
        lease_ttl: float = 0.0,
        tags: Optional[Iterable[str]] = None,
    ) -> Optional[JobRecord]:
        """Move the best pending job to ``running`` and return it.

        "Best" is highest priority first, submission order within a
        priority — the job-priority scheduling the executor drains by.
        With ``lease_ttl > 0`` the claim journals a lease:
        ``worker`` owns the job until ``lease_expires_at``, renewable by
        :meth:`heartbeat`. ``tags`` is the claimer's capability set —
        ``None`` (the in-process executor) matches every job; a worker's
        list matches jobs whose tags it covers.
        """
        with self._lock:
            offered = None if tags is None else set(tags)
            pending = [
                r
                for r in self._jobs.values()
                if r.status == JOB_SUBMITTED
                and (offered is None or set(r.tags) <= offered)
            ]
            if not pending:
                return None
            best = min(pending, key=lambda r: (-r.priority, self._order[r.job_id]))
            now = time.time()
            running = dataclasses.replace(
                best,
                status=JOB_RUNNING,
                worker=worker,
                lease_ttl=lease_ttl if lease_ttl > 0 else 0.0,
                lease_expires_at=now + lease_ttl if lease_ttl > 0 else 0.0,
                ts=now,
            )
            self._append(running)
            return running

    def heartbeat(self, job_id: str, worker: str) -> JobRecord:
        """Renew a worker's lease; the refreshed record is journaled.

        Refused with :class:`JobConflictError` (the server answers 409)
        once the lease is lost — the job expired back to the queue,
        finished, or is held by someone else.
        """
        with self._lock:
            record = self.get(job_id)
            if record.status != JOB_RUNNING or record.worker != worker:
                raise JobConflictError(
                    f"job {job_id} lease lost: it is {record.status!r}"
                    + (f" under worker {record.worker!r}" if record.worker else "")
                )
            if record.lease_ttl <= 0:
                raise JobConflictError(f"job {job_id} holds no lease to heartbeat")
            now = time.time()
            fresh = dataclasses.replace(
                record, lease_expires_at=now + record.lease_ttl, ts=now
            )
            self._append(fresh)
            return fresh

    def finish(
        self,
        job_id: str,
        status: str,
        result: Optional[dict] = None,
        error: Optional[str] = None,
        error_type: Optional[str] = None,
        elapsed_s: float = 0.0,
        worker: Optional[str] = None,
    ) -> JobRecord:
        """Journal a running job's terminal outcome.

        With ``worker`` the caller must still hold the job's lease; a
        completion arriving after the lease expired and the job moved on
        is refused rather than clobbering the re-enqueued (or re-run)
        state.
        """
        with self._lock:
            record = self.get(job_id)
            if record.status != JOB_RUNNING:
                raise JobConflictError(
                    f"job {job_id} is {record.status!r}, not running; cannot finish it"
                )
            if worker is not None and record.worker != worker:
                raise JobConflictError(
                    f"job {job_id} lease lost: it is held by {record.worker!r}, "
                    f"not {worker!r}"
                )
            done = dataclasses.replace(
                record,
                status=status,
                result=result,
                error=error,
                error_type=error_type,
                elapsed_s=elapsed_s,
                worker=worker if worker is not None else record.worker,
                lease_ttl=0.0,
                lease_expires_at=0.0,
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
        """Every job, submission order — committed state only.

        Served from the in-memory newest-record map under the store
        lock, never from the journal file: a listing issued while a
        compaction is rewriting the journal blocks on the lock and then
        sees the complete committed queue, not a half-written
        ``.compact.tmp`` snapshot.
        """
        with self._lock:
            return sorted(self._jobs.values(), key=lambda r: self._order[r.job_id])

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
            if not matches:
                return None
            return max(matches, key=lambda r: self._order[r.job_id])
