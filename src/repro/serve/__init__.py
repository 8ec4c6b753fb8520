"""``repro serve`` — a job-queue service over the orchestrator.

Submissions (experiments and sweeps) arrive over a localhost HTTP JSON
API, are journaled into a durable on-disk queue, and run one at a time,
oldest first, each on a fresh orchestrator. The content-hash result
cache is the serving layer: duplicate submissions come back ``cached``
immediately.

- :mod:`repro.serve.schema` — wire schema (endpoints, submissions, views)
- :mod:`repro.serve.store` — the fsynced, journal-backed FIFO queue
- :mod:`repro.serve.server` — the HTTP front end
- :mod:`repro.serve.worker` — the executor thread (claim, execute, finish)
- :mod:`repro.serve.execution` — one job on one orchestrator
- :mod:`repro.serve.client` — stdlib client (`repro jobs ...` uses it)
"""

from repro.serve.client import ServeClient
from repro.serve.schema import DEFAULT_HOST, DEFAULT_PORT
from repro.serve.server import JobService
from repro.serve.store import JobStore

__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "JobService", "JobStore", "ServeClient"]
