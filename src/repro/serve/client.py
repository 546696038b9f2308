"""A small blocking client for the simulation service.

:class:`ServeClient` wraps the service's JSON API in plain method calls
on :mod:`urllib` — no extra dependencies, usable from scripts, tests and
the ``repro client`` CLI.  HTTP error statuses are mapped back onto the
same exception types the server raised (429 →
:class:`~repro.errors.QuotaError`, 404 →
:class:`~repro.errors.UnknownJobError`, 503 →
:class:`~repro.errors.ServiceClosedError`, other 4xx/5xx →
:class:`~repro.errors.ServeError`), so client code handles a remote
service exactly like an in-process :class:`~repro.serve.jobs.JobManager`.
Transport failures — an unreachable service, or no complete response
within ``timeout_s`` — raise :class:`~repro.errors.ServeError` too.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..errors import (
    JobSpecError,
    QuotaError,
    ServeError,
    ServiceClosedError,
    UnknownJobError,
)

#: Terminal job states, mirrored from :class:`~repro.serve.jobs.JobState`
#: so the client module stays importable without the server stack.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


def _error_from_status(status: int, message: str) -> ServeError:
    """Rebuild the service-side exception type from an HTTP status."""
    if status == 429:
        return QuotaError(message)
    if status == 404:
        return UnknownJobError(message)
    if status == 503:
        return ServiceClosedError(message)
    if status == 400:
        return JobSpecError(message)
    return ServeError(f"HTTP {status}: {message}")


class ServeClient:
    """Blocking JSON client for one ``repro serve`` endpoint URL."""

    def __init__(self, url: str, timeout_s: float = 60.0) -> None:
        self.url = url.rstrip("/")
        self.timeout_s = timeout_s

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    @contextmanager
    def _mapped_errors(self) -> Iterator[None]:
        """Turn every transport failure into a typed ServeError."""
        try:
            yield
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace")
            try:
                message = json.loads(detail)["error"]["message"]
            except (json.JSONDecodeError, KeyError, TypeError):
                message = detail.strip() or exc.reason
            raise _error_from_status(exc.code, message) from exc
        except urllib.error.URLError as exc:
            raise ServeError(
                f"cannot reach service at {self.url}: {exc.reason}"
            ) from exc
        except OSError as exc:
            # After connect: no (complete) answer within the timeout, or
            # the connection dropped mid-response.
            raise ServeError(
                f"no complete response from service at {self.url} "
                f"(timeout {self.timeout_s:g} s): {exc}"
            ) from exc

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """One JSON round trip; raises mapped ServeError subclasses."""
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.url + path, data=data, headers=headers, method=method
        )
        with self._mapped_errors():
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                return json.loads(response.read().decode("utf-8"))

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def index(self) -> Dict[str, Any]:
        """``GET /``: service descriptor."""
        return self._request("GET", "/")

    def stats(self) -> Dict[str, Any]:
        """``GET /stats``: engine/cache/quota/coalescer counters."""
        return self._request("GET", "/stats")

    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /jobs``: submit a raw job spec, return its summary."""
        return self._request("POST", "/jobs", spec)

    def run(
        self,
        apps: Sequence[str],
        scheme: str = "baseline",
        windows: int = 1,
        client: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit a single-point ``run`` job."""
        spec: Dict[str, Any] = {
            "kind": "run",
            "apps": list(apps),
            "scheme": scheme,
            "windows": windows,
        }
        if client is not None:
            spec["client"] = client
        return self.submit(spec)

    def grid(
        self,
        app_sets: Sequence[Sequence[str]],
        schemes: Sequence[str],
        windows: int = 1,
        client: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit a ``grid`` job (``compare_grid`` order)."""
        spec: Dict[str, Any] = {
            "kind": "grid",
            "app_sets": [list(apps) for apps in app_sets],
            "schemes": list(schemes),
            "windows": windows,
        }
        if client is not None:
            spec["client"] = client
        return self.submit(spec)

    def jobs(self, client: Optional[str] = None) -> Dict[str, Any]:
        """``GET /jobs`` (optionally filtered by client label)."""
        suffix = f"?client={client}" if client else ""
        return self._request("GET", f"/jobs{suffix}")

    def job(self, job_id: str) -> Dict[str, Any]:
        """``GET /jobs/{id}``: one job summary."""
        return self._request("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """``POST /jobs/{id}/cancel``."""
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def result(self, job_id: str) -> Dict[str, Any]:
        """``GET /jobs/{id}/result``: artifacts of a terminal job."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def wait(
        self,
        job_id: str,
        timeout_s: float = 300.0,
        poll_s: float = 0.05,
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its final summary."""
        deadline = time.monotonic() + timeout_s
        while True:
            summary = self.job(job_id)
            if summary["state"] in TERMINAL_STATES:
                return summary
            if time.monotonic() > deadline:
                raise ServeError(
                    f"timed out after {timeout_s:.0f}s waiting for "
                    f"job {job_id}"
                )
            time.sleep(poll_s)

    def events(
        self, job_id: str, follow: bool = True
    ) -> Iterator[Dict[str, Any]]:
        """Stream ``GET /jobs/{id}/events`` records as parsed dicts."""
        suffix = "" if follow else "?follow=0"
        request = urllib.request.Request(
            f"{self.url}/jobs/{job_id}/events{suffix}",
            headers={"Accept": "application/x-ndjson"},
        )
        with self._mapped_errors():
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                for raw in response:
                    line = raw.decode("utf-8").strip()
                    if line:
                        yield json.loads(line)

    def run_and_wait(
        self,
        spec: Dict[str, Any],
        timeout_s: float = 300.0,
    ) -> Dict[str, Any]:
        """Submit a spec, wait for it, and return the result payload."""
        job = self.submit(spec)
        self.wait(job["id"], timeout_s=timeout_s)
        return self.result(job["id"])


def collect_events(
    client: ServeClient, job_id: str, follow: bool = True
) -> List[Dict[str, Any]]:
    """Drain an event stream into a list (convenience for scripts)."""
    return list(client.events(job_id, follow=follow))
