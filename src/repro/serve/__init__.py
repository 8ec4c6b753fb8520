"""``repro serve`` — a persistent job-queue service over the orchestrator.

Submissions (experiments and sweeps) arrive over a localhost
HTTP JSON API, are journaled into a durable on-disk queue, and execute
on one long-lived process pool with the content-hash result cache as the
serving layer — duplicate submissions come back ``cached`` immediately.

- :mod:`repro.serve.schema` — wire schema (endpoints, submissions, views)
- :mod:`repro.serve.store` — the fsynced, journal-backed queue
- :mod:`repro.serve.server` — HTTP front end + executor back end
- :mod:`repro.serve.client` — stdlib client (`repro jobs ...` uses it)
"""

from repro.serve.client import ServeClient
from repro.serve.schema import DEFAULT_HOST, DEFAULT_PORT
from repro.serve.server import JobService
from repro.serve.store import JobStore

__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "JobService", "JobStore", "ServeClient"]
