"""Append-only JSONL journal behind the ``repro serve`` job queue.

This is the serve queue's journal and nothing else: sweeps and
``repro run`` write no journal, because the fsynced result cache already
lets a re-run replay every completed point. The queue store
(:mod:`repro.serve.store`) appends one :class:`JobRecord` line per job
state transition to ``results/queue/jobs.jsonl``.

Layout: one JSON object per line. The first line is a ``header`` record
describing the queue; every later line is a ``job`` record or a
``resume`` marker (one per store reopening). A record is only considered
written once its line is flushed *and* fsynced, so a crash can at worst
truncate the final line — :func:`read_journal` tolerates a torn tail and
surfaces it as ``truncated``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ConfigError

#: Journal line layout version; bump on breaking changes.
JOURNAL_SCHEMA = 1

KIND_HEADER = "header"
KIND_RESUME = "resume"
KIND_JOB = "job"

#: Lifecycle of a queued service job (``repro serve``): a submission is
#: appended as ``submitted``, claimed as ``running``, and finished as one
#: of the terminal statuses. The newest record per ``job_id`` wins, so the
#: whole queue state is reconstructable from the journal alone.
JOB_SUBMITTED = "submitted"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
JOB_STATUSES = (JOB_SUBMITTED, JOB_RUNNING, JOB_DONE, JOB_FAILED, JOB_CANCELLED)
TERMINAL_JOB_STATUSES = (JOB_DONE, JOB_FAILED, JOB_CANCELLED)


@dataclass(frozen=True)
class JobRecord:
    """One journaled queue-job state transition (``repro serve``).

    A job wraps a whole orchestrator invocation (an experiment or a
    sweep) rather than a single point; ``spec`` is the canonical
    submission payload and ``fingerprint`` its content hash under the
    current source digest, which is what duplicate-submission cache hits
    key on. :meth:`from_json` drops keys this class does not define, so
    a ``jobs.jsonl`` written by an older version, whose records carried
    more fields, still opens.
    """

    job_id: str
    task: str  #: "experiment" | "sweep"
    status: str  #: one of JOB_STATUSES
    spec: Dict[str, Any] = field(default_factory=dict)
    attempt: int = 0  #: 0-based execution attempt (restart recovery bumps it)
    fingerprint: str = ""  #: content hash of (spec, source digest)
    cached: bool = False  #: served from the result cache without executing
    elapsed_s: float = 0.0
    error: Optional[str] = None  #: full worker traceback on failure
    error_type: Optional[str] = None  #: exception class name on failure
    result: Optional[dict] = None  #: terminal payload (artifact/document/report)
    submitted_at: float = 0.0  #: wall-clock submission time (time.time())
    ts: float = 0.0  #: wall-clock write time of this record

    def to_json(self) -> dict:
        payload: Dict[str, Any] = {"kind": KIND_JOB, "schema": JOURNAL_SCHEMA}
        payload.update(dataclasses.asdict(self))
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "JobRecord":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_JOB_STATUSES


@dataclass
class JournalView:
    """A parsed journal: header, job records in write order, markers."""

    path: str
    header: Optional[dict]
    resumes: int = 0
    truncated: bool = False  #: the final line was torn by a crash
    malformed: int = 0  #: valid-JSON job lines missing required fields
    jobs: List[JobRecord] = field(default_factory=list)  #: queue-job records

    def last_by_job(self) -> Dict[str, JobRecord]:
        """Latest record per job id (later lines supersede earlier)."""
        last: Dict[str, JobRecord] = {}
        for record in self.jobs:
            last[record.job_id] = record
        return last


def read_journal(path: str) -> JournalView:
    """Parse a journal file, tolerating a crash-torn final line.

    Parsing stops at the first undecodable line (``truncated=True``) —
    everything before it was fsynced and is trusted. A decodable job
    line missing required fields (hand-edited, or a future schema) is
    skipped and counted in ``malformed`` rather than crashing the
    reader. A missing file is a :class:`ConfigError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"no journal at {path!r}: {exc}") from exc
    header: Optional[dict] = None
    jobs: List[JobRecord] = []
    resumes = 0
    truncated = False
    malformed = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except ValueError:
            truncated = True
            break
        if not isinstance(payload, dict):
            truncated = True
            break
        kind = payload.get("kind")
        if kind == KIND_HEADER and header is None:
            header = payload
        elif kind == KIND_JOB:
            try:
                jobs.append(JobRecord.from_json(payload))
            except TypeError:
                malformed += 1
        elif kind == KIND_RESUME:
            resumes += 1
        # Unknown kinds are skipped for forward compatibility.
    return JournalView(
        path=path,
        header=header,
        resumes=resumes,
        truncated=truncated,
        malformed=malformed,
        jobs=jobs,
    )


class RunJournal:
    """Writer half: every appended line is flushed and fsynced.

    The file is reopened per append — the write rate is one line per job
    transition, and a short-lived handle keeps the
    journal consistent even if the owning process is killed between
    appends.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    @classmethod
    def start(cls, path: str, header: Optional[dict] = None) -> "RunJournal":
        """Begin a fresh journal (truncating any previous one)."""
        journal = cls(path)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            if header is not None:
                payload = {"kind": KIND_HEADER, "schema": JOURNAL_SCHEMA}
                payload.update(header)
                f.write(json.dumps(payload, sort_keys=True) + "\n")
            f.flush()
            os.fsync(f.fileno())
        return journal

    @classmethod
    def attach(cls, path: str) -> "RunJournal":
        """Append to an existing journal (a reopened queue).

        A crash tears the journal only mid-line — i.e. the file does not
        end in a newline — so the torn tail (never a durable record) is
        truncated away first. Appending straight after it would fuse the
        partial line with the resume marker into one unparseable line and
        hide every later record from :func:`read_journal`.
        """
        journal = cls(path)
        journal._truncate_torn_tail()
        journal._append_line({"kind": KIND_RESUME, "schema": JOURNAL_SCHEMA, "ts": time.time()})
        return journal

    def _truncate_torn_tail(self) -> None:
        try:
            with open(self.path, "rb") as f:
                data = f.read()
        except OSError:
            return
        if not data or data.endswith(b"\n"):
            return
        keep = data.rfind(b"\n") + 1  # 0 when no complete line survived
        with open(self.path, "r+b") as f:
            f.truncate(keep)
            f.flush()
            os.fsync(f.fileno())

    def append_job(self, record: JobRecord) -> None:
        """Durably append one queue-job state transition."""
        self._append_line(record.to_json())

    def _append_line(self, payload: dict) -> None:
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(json.dumps(payload, sort_keys=True) + "\n")
            f.flush()
            os.fsync(f.fileno())
