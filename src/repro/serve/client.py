"""Stdlib HTTP client for the ``repro serve`` job queue.

Wraps the wire schema (:mod:`repro.serve.schema`) behind plain methods
returning parsed JSON. Every failure — unreachable server, 4xx answer,
wait timeout — surfaces as :class:`~repro.errors.ServiceError` with a
human-readable message, which the CLI turns into a clean exit 2.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional

from repro.errors import ServiceError
from repro.serve import schema


class ServeClient:
    """Talks to one ``repro serve`` endpoint."""

    def __init__(
        self,
        host: str = schema.DEFAULT_HOST,
        port: int = schema.DEFAULT_PORT,
        timeout: float = 30.0,
    ) -> None:
        """Point the client at one server; no connection is made yet."""
        self.host = host
        self.port = port
        self.timeout = timeout

    @property
    def base_url(self) -> str:
        """The server's ``/v1`` API root, e.g. ``http://127.0.0.1:8765/v1``."""
        return f"http://{self.host}:{self.port}{schema.API_PREFIX}"

    def _request(self, method: str, path: str, payload: Optional[dict] = None) -> Any:
        """One HTTP round trip; every failure becomes a ServiceError."""
        url = self.base_url + path
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            url, data=data, method=method, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                body = json.loads(exc.read().decode("utf-8"))
            except ValueError:
                body = None
            message = schema.extract_error(body, f"{method} {url} failed: HTTP {exc.code}")
            raise ServiceError(message, status=exc.code) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach repro serve at {self.host}:{self.port} ({exc.reason}); "
                "is the server running?"
            ) from exc
        except (ValueError, OSError) as exc:
            raise ServiceError(f"{method} {url} failed: {exc}") from exc

    # -- endpoints -------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Server liveness plus queue counts (``GET /health``)."""
        return self._request("GET", "/health")

    def submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one job; returns its wire view (maybe already done)."""
        return self._request("POST", "/jobs", payload)

    def job(self, job_id: str) -> Dict[str, Any]:
        """One job's wire view (no result payload)."""
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        """Every job the server knows, submission order."""
        return self._request("GET", "/jobs")["jobs"]

    def result(self, job_id: str) -> Dict[str, Any]:
        """The job view including its terminal ``result`` payload."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a still-queued job (journaled); 409 once it started."""
        return self._request("POST", f"/jobs/{job_id}/cancel", {})

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to stop once its running job finishes."""
        return self._request("POST", "/shutdown", {})

    def wait(
        self, job_id: str, timeout: Optional[float] = None, interval: float = 0.2
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its final view.

        Raises :class:`ServiceError` if ``timeout`` seconds pass first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            if schema.view_is_terminal(view):
                return view
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"timed out after {timeout:.1f}s waiting for job {job_id} "
                    f"(last status: {view.get('status')!r})"
                )
            time.sleep(interval)
