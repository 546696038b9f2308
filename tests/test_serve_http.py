"""HTTP-layer tests: endpoints, error statuses, streaming, the CLI."""

import json
import re
import socket
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.cli import main
from repro.core.compare import compare_grid
from repro.core.engine import ScenarioEngine
from repro.errors import (
    JobSpecError,
    QuotaError,
    ServeError,
    UnknownJobError,
)
from repro.serve import (
    JobManager,
    ReproServer,
    ServeClient,
    canonical_json,
    result_artifact,
)

GRID = {"app_sets": [["A1"], ["A2", "A4"]], "schemes": ["baseline", "com"]}


@contextmanager
def serving(engine=None, **manager_kwargs):
    """A background server over a fresh engine; yields a ServeClient."""
    engine = engine or ScenarioEngine(memory_cache=16)
    manager = JobManager(engine, **manager_kwargs)
    server = ReproServer(manager, port=0)
    url = server.start_background()
    try:
        yield ServeClient(url)
    finally:
        server.stop_background()


def raw_request(url, method="GET", body=None):
    """One urllib round trip returning ``(status, parsed_json)``."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_http_submit_poll_result_bit_identity():
    with serving() as client:
        assert client.health()["ok"] is True
        job = client.grid(GRID["app_sets"], GRID["schemes"], client="t")
        assert job["state"] in ("pending", "running")
        final = client.wait(job["id"])
        assert final["state"] == "done"
        served = client.result(job["id"])["points"]
    grid = compare_grid(GRID["app_sets"], GRID["schemes"])
    direct = [
        result_artifact(grid[tuple(apps)][scheme])
        for apps in GRID["app_sets"]
        for scheme in GRID["schemes"]
    ]
    for ours, theirs in zip(direct, served):
        theirs = dict(theirs)
        theirs["fingerprint"] = None
        assert canonical_json(ours) == canonical_json(theirs)


def test_http_error_statuses():
    with serving(max_jobs_per_client=1) as client:
        # 404: unknown job id, via the client's exception mapping.
        with pytest.raises(UnknownJobError):
            client.job("j999")
        # 400: malformed spec.
        with pytest.raises(JobSpecError):
            client.submit({"kind": "run", "apps": []})
        # 400, not a dropped connection: a sweep point that is no object.
        with pytest.raises(JobSpecError):
            client.submit({"kind": "sweep", "points": [1]})
        # 400: spec valid JSON but not an object.
        status, payload = raw_request(
            f"{client.url}/jobs", method="POST", body=[1, 2]
        )
        assert status == 400
        assert "job spec" in payload["error"]["message"]
        # 404: unrouted path; 405: wrong method on a real path.
        status, _ = raw_request(f"{client.url}/nope")
        assert status == 404
        status, payload = raw_request(f"{client.url}/jobs", method="PUT")
        assert status == 405
        assert "POST" in payload["error"]["message"]


def test_http_quota_429_and_cancel():
    gate_entered = threading.Event()
    gate_release = threading.Event()

    def hook(job):
        gate_entered.set()
        gate_release.wait(timeout=30)

    try:
        with serving(
            max_jobs_per_client=1, chunk_points=1, executor_hook=hook
        ) as client:
            first = client.grid(
                GRID["app_sets"], GRID["schemes"], client="greedy"
            )
            assert gate_entered.wait(10)
            with pytest.raises(QuotaError):
                client.run(["A3"], client="greedy")
            status, payload = raw_request(
                f"{client.url}/jobs",
                method="POST",
                body={"kind": "run", "apps": ["A3"], "client": "greedy"},
            )
            assert status == 429
            assert payload["error"]["type"] == "QuotaError"
            # Result before terminal -> 409 via the generic ServeError.
            with pytest.raises(ServeError):
                client.result(first["id"])
            cancelled = client.cancel(first["id"])
            assert cancelled["cancel_requested"] is True
            gate_release.set()
            final = client.wait(first["id"])
            assert final["state"] == "cancelled"
            assert client.stats()["quota"]["rejections"] == 2
    finally:
        gate_release.set()


@pytest.mark.parametrize(
    "make_engine",
    [
        pytest.param(
            lambda: ScenarioEngine(backend="serial", memory_cache=16),
            id="serial",
        ),
        pytest.param(
            lambda: ScenarioEngine(
                workers=2, backend="process", memory_cache=16
            ),
            id="process",
        ),
    ],
)
def test_http_event_stream_ndjson(make_engine):
    # A one-point job runs inline and holds the engine until the second
    # job's stream is open; the second job's two points then go to the
    # backend, so a process pool forks while that stream is open.
    release = threading.Event()
    try:
        with serving(
            make_engine(), executor_hook=lambda job: release.wait(10)
        ) as service:
            client = ServeClient(service.url, timeout_s=10)
            client.run(["A2"])
            job = client.grid([["A1", "A3"]], ["baseline", "com"], windows=2)
            stream = client.events(job["id"], follow=True)
            records = [next(stream)]
            release.set()
            # follow=True blocks until terminal, straight over HTTP.
            records.extend(stream)
            kinds = [record["record"] for record in records]
            assert kinds[0] == "state"
            assert "progress" in kinds
            assert "snapshot" in kinds
            states = [
                r["state"] for r in records if r["record"] == "state"
            ]
            assert states[-1] == "done"
            # Raw wire format: one JSON object per line.
            raw = urllib.request.urlopen(
                f"{client.url}/jobs/{job['id']}/events?follow=0", timeout=30
            )
            assert raw.headers["Content-Type"] == "application/x-ndjson"
            lines = [line for line in raw.read().split(b"\n") if line]
            assert len(lines) == len(records)
            assert json.loads(lines[0])["job"] == job["id"]
    finally:
        release.set()


@contextmanager
def silent_listener():
    """A TCP listener that takes connections and never answers them."""
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        yield f"http://127.0.0.1:{listener.getsockname()[1]}"


@pytest.mark.parametrize(
    "call",
    [lambda client: client.job("j1"), lambda client: list(client.events("j1"))],
    ids=["job", "events"],
)
def test_client_timeout_is_a_serve_error(call):
    with silent_listener() as url:
        client = ServeClient(url, timeout_s=0.2)
        with pytest.raises(ServeError, match=r"timeout 0\.2 s") as excinfo:
            call(client)
    assert url in str(excinfo.value)


def test_http_jobs_listing_and_stats():
    with serving() as client:
        client.run(["A1"], client="alpha")
        job_b = client.run(["A3"], client="beta")
        client.wait(job_b["id"])
        listing = client.jobs()
        assert {j["client"] for j in listing["jobs"]} == {"alpha", "beta"}
        only_beta = client.jobs(client="beta")
        assert [j["client"] for j in only_beta["jobs"]] == ["beta"]
        stats = client.stats()
        assert stats["jobs_finished"] >= 1
        assert "engine" in stats and "coalescer" in stats


def test_cli_serve_and_client_round_trip(capsys):
    exit_codes = []
    thread = threading.Thread(
        target=lambda: exit_codes.append(
            main(["serve", "--port", "0", "--max-jobs", "1"])
        )
    )
    thread.start()
    url = None
    for _ in range(200):
        match = re.search(
            r"listening on (\S+)", capsys.readouterr().out
        )
        if match:
            url = match.group(1)
            break
        thread.join(0.05)
    assert url, "serve never announced its URL"
    assert main(
        ["client", "--url", url, "run", "A1", "--wait"]
    ) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["state"] == "done"
    assert len(payload["points"]) == 1
    # --max-jobs 1 + quiescence: the server exits on its own.
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert exit_codes == [0]


def test_cli_client_status_events_and_stats(capsys):
    with serving(chunk_points=1) as client:
        job = client.grid(GRID["app_sets"], GRID["schemes"])
        assert main(
            ["client", "--url", client.url, "wait", job["id"]]
        ) == 0
        capsys.readouterr()
        assert main(
            ["client", "--url", client.url, "status", job["id"]]
        ) == 0
        assert json.loads(capsys.readouterr().out)["state"] == "done"
        assert main(
            ["client", "--url", client.url, "events", job["id"],
             "--no-follow"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(json.loads(line)["job"] == job["id"] for line in lines)
        assert main(["client", "--url", client.url, "stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["engine"]["scenarios_run"] == 4


def test_index_lists_endpoints():
    with serving() as client:
        index = client.index()
        assert "POST /jobs" in index["endpoints"]
        assert "GET /jobs/{id}/events" in index["endpoints"]
        assert index["artifact_version"] == 2
