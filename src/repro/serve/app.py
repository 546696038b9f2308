"""The asyncio HTTP front end: ``repro serve`` as a process.

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server` —
no web framework, stdlib only, one connection per request
(``Connection: close``).  JSON in, JSON out, except
``GET /jobs/{id}/events`` which streams newline-delimited JSON records
until the job is terminal.

Error contract (exception → HTTP status):

* :class:`~repro.errors.QuotaError` → 429
* :class:`~repro.errors.UnknownJobError` → 404
* :class:`~repro.errors.ServiceClosedError` → 503
* any other :class:`~repro.errors.ReproError` (malformed spec, unknown
  app or scheme, …) → 400

The server runs in the foreground (:meth:`ReproServer.run`, with
``SIGINT``/``SIGTERM`` triggering a graceful drain) or on a background
thread (:meth:`start_background` / :meth:`stop_background`) for tests
and embedding.  Shutdown always drains: running jobs finish their
current chunk, results are published, then the engine backend closes.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Callable, Dict, List, Optional
from urllib.parse import parse_qs, urlsplit

from ..errors import (
    QuotaError,
    ReproError,
    ServeError,
    ServiceClosedError,
    UnknownJobError,
)
from ..obs.stream import ndjson_line
from .artifacts import ARTIFACT_VERSION
from .jobs import JobManager
from .router import Router

#: Largest accepted request body; protects the loop from hostile posts.
MAX_BODY_BYTES = 1 << 20

#: Reason phrases for the statuses this server emits.
REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class Request:
    """One parsed HTTP request as the handlers see it."""

    method: str
    path: str
    params: Dict[str, str] = field(default_factory=dict)
    query: Dict[str, List[str]] = field(default_factory=dict)
    body: Optional[Any] = None

    def flag(self, name: str, default: bool = False) -> bool:
        """A boolean query parameter (``0``/``false``/``no`` are false)."""
        values = self.query.get(name)
        if not values:
            return default
        return values[-1].lower() not in ("0", "false", "no")


@dataclass
class Response:
    """What a handler produces: JSON payload or an NDJSON line stream."""

    status: int = 200
    payload: Optional[Any] = None
    stream: Optional[AsyncIterator[str]] = None


def error_payload(status: int, message: str, kind: str = "") -> Dict[str, Any]:
    """The uniform error body every non-2xx JSON response carries."""
    return {
        "error": {
            "status": status,
            "type": kind or REASONS.get(status, "Error"),
            "message": message,
        }
    }


def status_for(error: ReproError) -> int:
    """Map a repro exception onto the HTTP status contract."""
    if isinstance(error, QuotaError):
        return 429
    if isinstance(error, UnknownJobError):
        return 404
    if isinstance(error, ServiceClosedError):
        return 503
    return 400


class ReproServer:
    """The ``repro serve`` process: router + connection loop + lifecycle."""

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
        max_jobs: Optional[int] = None,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self.max_jobs = max_jobs
        #: ``http://host:port`` once the socket is bound.
        self.url: Optional[str] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._done: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._inflight_requests = 0
        self._last_activity = 0.0
        self.router = Router()
        self._install_routes()

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def _install_routes(self) -> None:
        """Register every endpoint on the router."""
        add = self.router.add
        add("GET", "/", self._h_index)
        add("GET", "/healthz", self._h_health)
        add("POST", "/jobs", self._h_submit)
        add("GET", "/jobs", self._h_jobs)
        add("GET", "/jobs/{id}", self._h_job)
        add("POST", "/jobs/{id}/cancel", self._h_cancel)
        add("GET", "/jobs/{id}/result", self._h_result)
        add("GET", "/jobs/{id}/events", self._h_events)
        add("GET", "/stats", self._h_stats)

    async def _h_index(self, request: Request) -> Response:
        """``GET /``: service descriptor and endpoint list."""
        return Response(
            payload={
                "service": "repro serve",
                "artifact_version": ARTIFACT_VERSION,
                "endpoints": [
                    f"{route.method} /{'/'.join(route.segments)}"
                    if route.segments
                    else f"{route.method} /"
                    for route in self.router.routes
                ],
            }
        )

    async def _h_health(self, request: Request) -> Response:
        """``GET /healthz``: liveness plus drain status."""
        return Response(
            payload={"ok": True, "closing": self.manager.closing}
        )

    async def _h_submit(self, request: Request) -> Response:
        """``POST /jobs``: accept a job spec, return the job summary."""
        if not isinstance(request.body, dict):
            return Response(
                400,
                error_payload(
                    400, "request body must be a JSON job spec object"
                ),
            )
        job = self.manager.submit(request.body)
        return Response(202, job.describe())

    async def _h_jobs(self, request: Request) -> Response:
        """``GET /jobs``: list jobs, optionally ``?client=`` filtered."""
        client = (request.query.get("client") or [None])[-1]
        return Response(
            payload={
                "jobs": [
                    job.describe() for job in self.manager.jobs(client)
                ],
                "counts": self.manager.counts(),
            }
        )

    async def _h_job(self, request: Request) -> Response:
        """``GET /jobs/{id}``: one job's summary."""
        return Response(
            payload=self.manager.get(request.params["id"]).describe()
        )

    async def _h_cancel(self, request: Request) -> Response:
        """``POST /jobs/{id}/cancel``: idempotent cancellation."""
        return Response(
            payload=self.manager.cancel(request.params["id"]).describe()
        )

    async def _h_result(self, request: Request) -> Response:
        """``GET /jobs/{id}/result``: artifacts once terminal, else 409."""
        job = self.manager.get(request.params["id"])
        if not job.terminal:
            return Response(
                409,
                error_payload(
                    409,
                    f"job {job.id} is {job.state}; results are available "
                    f"once it is terminal",
                ),
            )
        return Response(payload=job.result_payload())

    async def _h_events(self, request: Request) -> Response:
        """``GET /jobs/{id}/events``: NDJSON event stream (``?follow=0``
        replays only what is already recorded)."""
        job_id = request.params["id"]
        self.manager.get(job_id)  # 404 before committing to a stream
        follow = request.flag("follow", default=True)

        async def lines() -> AsyncIterator[str]:
            async for record in self.manager.follow_events(job_id, follow):
                yield ndjson_line(record)

        return Response(stream=lines())

    async def _h_stats(self, request: Request) -> Response:
        """``GET /stats``: engine, cache, quota and coalescer counters."""
        return Response(payload=self.manager.stats())

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve exactly one request on a fresh connection, then close."""
        self._inflight_requests += 1
        try:
            response = await self._one_request(reader)
            if response.stream is not None:
                await self._write_stream(writer, response)
            else:
                self._write_json(writer, response)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to salvage
        finally:
            self._inflight_requests -= 1
            if self._loop is not None:
                self._last_activity = self._loop.time()
            writer.close()

    async def _one_request(self, reader: asyncio.StreamReader) -> Response:
        """Parse one request and dispatch it; never raises ReproError."""
        try:
            request_line = await reader.readline()
            if not request_line:
                return Response(400, error_payload(400, "empty request"))
            parts = request_line.decode("latin-1").split()
            if len(parts) != 3:
                return Response(
                    400, error_payload(400, "malformed request line")
                )
            method, target, _version = parts
            headers: Dict[str, str] = {}
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n", b""):
                    break
                name, _, value = raw.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
            if length > MAX_BODY_BYTES:
                return Response(
                    413,
                    error_payload(
                        413,
                        f"request body of {length} bytes exceeds the "
                        f"{MAX_BODY_BYTES}-byte limit",
                    ),
                )
            body_bytes = await reader.readexactly(length) if length else b""
        except ValueError:
            return Response(
                400, error_payload(400, "unparseable request header")
            )
        split = urlsplit(target)
        body: Optional[Any] = None
        if body_bytes:
            try:
                body = json.loads(body_bytes)
            except json.JSONDecodeError as exc:
                return Response(
                    400,
                    error_payload(400, f"request body is not JSON: {exc}"),
                )
        match = self.router.resolve(method, split.path)
        if match.status == 404:
            return Response(
                404, error_payload(404, f"no such path: {split.path}")
            )
        if match.status == 405:
            return Response(
                405,
                error_payload(
                    405,
                    f"{method} not allowed on {split.path}; "
                    f"allowed: {', '.join(match.allowed)}",
                ),
            )
        request = Request(
            method=method,
            path=split.path,
            params=match.params or {},
            query=parse_qs(split.query),
            body=body,
        )
        assert match.handler is not None
        try:
            return await match.handler(request)
        except ReproError as exc:
            status = status_for(exc)
            return Response(
                status,
                error_payload(status, str(exc), type(exc).__name__),
            )

    def _write_json(
        self, writer: asyncio.StreamWriter, response: Response
    ) -> None:
        """Emit a complete JSON response with Content-Length."""
        payload = response.payload if response.payload is not None else {}
        body = (
            json.dumps(payload, sort_keys=True, indent=2) + "\n"
        ).encode("utf-8")
        writer.write(
            self._head(
                response.status,
                "application/json",
                content_length=len(body),
            )
        )
        writer.write(body)

    async def _write_stream(
        self, writer: asyncio.StreamWriter, response: Response
    ) -> None:
        """Emit an NDJSON stream delimited by connection close."""
        writer.write(self._head(response.status, "application/x-ndjson"))
        await writer.drain()
        assert response.stream is not None
        async for line in response.stream:
            writer.write((line + "\n").encode("utf-8"))
            await writer.drain()

    @staticmethod
    def _head(
        status: int,
        content_type: str,
        content_length: Optional[int] = None,
    ) -> bytes:
        """Status line + headers; omitted length means close-delimited."""
        lines = [
            f"HTTP/1.1 {status} {REASONS.get(status, 'OK')}",
            f"Content-Type: {content_type}",
            "Connection: close",
        ]
        if content_length is not None:
            lines.append(f"Content-Length: {content_length}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> str:
        """Bind the socket, start the manager; returns the service URL."""
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        self.manager.start()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self.url = f"http://{self.host}:{self.port}"
        if self.max_jobs is not None:
            self._loop.create_task(self._watch_max_jobs())
        self._ready.set()
        return self.url

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain jobs, close engine."""
        if self._server is not None:
            self._server.close()
        await self.manager.close(drain=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def _watch_max_jobs(self) -> None:
        """Self-terminate after ``max_jobs`` finished jobs (test aid).

        Waits for quiescence first — no in-flight request and a short
        idle window — so a scripted client still gets to download the
        final job's results before the socket goes away.
        """
        assert self.max_jobs is not None
        assert self._done is not None and self._loop is not None
        while not self._done.is_set():
            quiescent = (
                self._inflight_requests == 0
                and self._loop.time() - self._last_activity > 1.0
            )
            if self.manager.jobs_finished >= self.max_jobs and quiescent:
                self._done.set()
                return
            await asyncio.sleep(0.05)

    async def run(
        self, ready: Optional[Callable[[str], None]] = None
    ) -> None:
        """Foreground mode: serve until a signal or ``max_jobs`` fires."""
        url = await self.start()
        assert self._done is not None and self._loop is not None
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._loop.add_signal_handler(signum, self._done.set)
                except NotImplementedError:  # platform without loop signals
                    pass
        if ready is not None:
            ready(url)
        try:
            await self._done.wait()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # background-thread mode (tests, embedding)
    # ------------------------------------------------------------------
    def start_background(self, timeout_s: float = 10.0) -> str:
        """Run the server on a daemon thread; returns the bound URL."""
        if self._thread is not None:
            raise ServeError("server already running in the background")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.run()),
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise ServeError(
                f"service did not come up within {timeout_s:.0f}s"
            )
        assert self.url is not None
        return self.url

    def stop_background(self, timeout_s: float = 30.0) -> None:
        """Drain and stop a background server, joining its thread."""
        if self._thread is None:
            return
        if self._loop is not None and self._done is not None:
            self._loop.call_soon_threadsafe(self._done.set)
        self._thread.join(timeout_s)
        self._thread = None
