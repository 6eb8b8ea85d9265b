"""The HTTP endpoint and the ``repro-serve`` CLI, end to end."""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.serve.client import HTTPClient, HTTPError
from repro.serve.http import serve_in_thread
from repro.serve.server import ModelServer
from repro.serve.worker import spawn_fleet, stop_fleet

from .conftest import MODEL_NAME


requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fleet needs the fork start method",
)


@pytest.fixture()
def endpoint(server):
    """The test server bound to an ephemeral loopback port."""
    httpd = serve_in_thread(server, port=0)
    host, port = httpd.server_address[:2]
    yield HTTPClient(f"http://{host}:{port}", timeout=30.0)
    httpd.shutdown()
    httpd.server_close()


@pytest.fixture()
def fleet_endpoint(registry):
    """A two-child pre-fork fleet over the test registry."""
    pid, url = spawn_fleet(
        registry, [MODEL_NAME], 2, max_batch_size=16, max_latency_ms=1.0
    )
    client = HTTPClient(url, timeout=30.0)
    try:
        assert client.wait_ready(timeout_s=30.0)["ready"] is True
        yield client
    finally:
        client.close()
        stop_fleet(pid)


def _raw_exchange(httpd_url: str, request: bytes) -> bytes:
    """Send raw bytes on a fresh socket; everything read until the server closes."""
    host, port = httpd_url.rsplit("//", 1)[1].split(":")
    with socket.create_connection((host, int(port)), timeout=10.0) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def test_http_predict_bit_identical_to_run_batch(
    endpoint, sequential_design, request_rows
):
    expected = sequential_design.simulate_batch(request_rows)
    labels = sequential_design.model.classes[expected]

    single = endpoint.predict(MODEL_NAME, list(request_rows[0]))
    assert single["class_id"] == int(expected[0])
    assert single["prediction"] == labels[0].item()

    bulk = endpoint.predict_many(MODEL_NAME, request_rows.tolist())
    assert bulk["class_ids"] == [int(i) for i in expected]
    assert bulk["predictions"] == labels.tolist()
    assert bulk["n_samples"] == request_rows.shape[0]


def test_http_and_in_process_clients_agree(endpoint, server, request_rows):
    a = server.predict_many(MODEL_NAME, request_rows[:7])
    b = endpoint.predict_many(MODEL_NAME, request_rows[:7].tolist())
    assert a["class_ids"] == b["class_ids"]
    assert a["predictions"] == b["predictions"]


def test_http_empty_batch(endpoint):
    out = endpoint.predict_many(MODEL_NAME, [])
    assert out["class_ids"] == []
    assert out["n_samples"] == 0


def test_http_stats_and_models_routes(endpoint, request_rows):
    endpoint.predict(MODEL_NAME, list(request_rows[0]))
    stats = endpoint.stats()
    assert MODEL_NAME in stats["models"]
    snap = stats["models"][MODEL_NAME]
    for key in (
        "requests_total",
        "requests_per_s",
        "batch_occupancy",
        "latency_p50_ms",
        "latency_p99_ms",
    ):
        assert key in snap
    assert snap["requests_total"] >= 1

    models = endpoint.models()["models"]
    assert [m["name"] for m in models] == [MODEL_NAME]
    assert models[0]["backend"] == "datapath.run_batch"
    assert endpoint.healthz()["status"] == "ok"


def test_http_keep_alive_reuses_one_connection(endpoint, request_rows):
    """Sequential requests ride one persistent HTTP/1.1 connection."""
    endpoint.healthz()
    conn = endpoint._conn
    assert conn is not None and conn.sock is not None
    local_port = conn.sock.getsockname()[1]
    for _ in range(3):
        endpoint.predict(MODEL_NAME, list(request_rows[0]))
        endpoint.stats()
    assert endpoint._conn is conn, "client dropped its persistent connection"
    assert conn.sock.getsockname()[1] == local_port, "socket was re-established"


def test_http_post_to_unknown_route_does_not_poison_the_connection(
    endpoint, request_rows
):
    """A 404 whose body the server never read must not desync keep-alive."""
    with pytest.raises(HTTPError) as err:
        endpoint._request("/nope", {"model": MODEL_NAME, "features": [0.5] * 64})
    assert err.value.status == 404
    # The very next requests on this client must still parse cleanly.
    assert endpoint.healthz()["status"] == "ok"
    out = endpoint.predict(MODEL_NAME, list(request_rows[0]))
    assert "class_id" in out


def test_http_client_survives_server_side_close(endpoint, request_rows):
    """A dropped kept socket is re-established transparently (one retry)."""
    import socket

    endpoint.healthz()
    # Simulate the server idle-timing us out: the fd stays valid but the
    # connection is dead, exactly like a peer close.
    endpoint._conn.sock.shutdown(socket.SHUT_RDWR)
    out = endpoint.predict(MODEL_NAME, list(request_rows[0]))
    assert "class_id" in out
    endpoint.close()  # explicit close re-opens lazily
    assert endpoint.healthz()["status"] == "ok"


def _assert_error_codes(endpoint, request_rows):
    with pytest.raises(HTTPError) as err:
        endpoint.predict(MODEL_NAME, [0.1, 0.2])  # wrong feature count
    assert err.value.status == 400

    for features in ({"a": 1}, [{"a": 1}] * request_rows.shape[1]):
        with pytest.raises(HTTPError) as err:
            endpoint._request("/predict", {"model": MODEL_NAME, "features": features})
        assert err.value.status == 400, features
        assert "features must be numbers" in str(err.value)
    with pytest.raises(HTTPError) as err:
        endpoint._request("/predict", {"model": MODEL_NAME, "batch": [{"a": 1}]})
    assert err.value.status == 400

    with pytest.raises(HTTPError) as err:
        endpoint.predict("not-a-model-name", list(request_rows[0]))
    assert err.value.status == 400

    with pytest.raises(HTTPError) as err:
        endpoint._request("/predict", {"model": MODEL_NAME})  # neither key
    assert err.value.status == 400

    with pytest.raises(HTTPError) as err:
        endpoint._request(
            "/predict",
            {
                "model": MODEL_NAME,
                "features": list(request_rows[0]),
                "batch": [list(request_rows[0])],
            },
        )
    assert err.value.status == 400

    with pytest.raises(HTTPError) as err:
        endpoint._request("/nope")
    assert err.value.status == 404


def test_http_error_codes(endpoint, request_rows):
    _assert_error_codes(endpoint, request_rows)


@requires_fork
def test_fleet_http_error_codes(fleet_endpoint, request_rows):
    """Every child is the single-process server: the same 400s."""
    _assert_error_codes(fleet_endpoint, request_rows)
    # The fleet still answers after every rejected request.
    assert "class_id" in fleet_endpoint.predict(MODEL_NAME, list(request_rows[0]))


@pytest.mark.parametrize("length", ["abc", "12abc", "1.5"])
def test_malformed_content_length_answers_400_and_closes(endpoint, length):
    reply = _raw_exchange(
        endpoint.base_url,
        (
            "POST /predict HTTP/1.1\r\nHost: test\r\n"
            f"Content-Type: application/json\r\nContent-Length: {length}\r\n\r\n"
        ).encode(),
    )
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 "), reply
    assert b"Connection: close" in head
    assert b"malformed Content-Length" in body
    # The server closed the socket (the read above ended) and keeps serving.
    assert endpoint.healthz()["status"] == "ok"


def test_healthz_reports_ready(endpoint):
    health = endpoint.healthz()
    assert health["status"] == "ok"
    assert health["ready"] is True
    assert endpoint.wait_ready(timeout_s=5.0)["ready"] is True


@requires_fork
def test_fleet_endpoint_end_to_end(fleet_endpoint, sequential_design, request_rows):
    """HTTP over a pre-fork fleet: poll ready, predict, fleet-wide stats."""
    expected = sequential_design.simulate_batch(request_rows)
    out = fleet_endpoint.predict_many(MODEL_NAME, request_rows.tolist())
    assert out["class_ids"] == [int(i) for i in expected]
    stats = fleet_endpoint.stats()
    assert stats["models"][MODEL_NAME]["requests_total"] >= 1
    assert [w["alive"] for w in stats["workers"]] == [True, True]


def test_predict_retries_on_503_with_backoff(request_rows):
    """A 503 window (drain/restart) is invisible to predict callers."""
    import json as json_module
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    hits = {"predict": 0}

    class FlakyHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _reply(self, status, payload):
            body = json_module.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0) or 0))
            hits["predict"] += 1
            if hits["predict"] <= 2:
                self._reply(503, {"error": "draining"})
            else:
                self._reply(200, {"class_id": 1})

        def do_GET(self):
            self._reply(503, {"error": "draining"})

    httpd = ThreadingHTTPServer(("127.0.0.1", 0), FlakyHandler)
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = httpd.server_address[:2]
    client = HTTPClient(f"http://{host}:{port}", retries=3, backoff_s=0.01)
    try:
        # predict rides out the two 503s (idempotent, bounded backoff)...
        assert client.predict(MODEL_NAME, list(request_rows[0]))["class_id"] == 1
        assert hits["predict"] == 3
        # ...but healthz never retries on status: the 503 is the answer.
        with pytest.raises(HTTPError) as err:
            client.healthz()
        assert err.value.status == 503
    finally:
        httpd.shutdown()
        httpd.server_close()


def test_http_shutdown_returns_503(registry, request_rows):
    server = ModelServer(registry, max_batch_size=8, max_latency_ms=0.0)
    httpd = serve_in_thread(server, port=0)
    host, port = httpd.server_address[:2]
    client = HTTPClient(f"http://{host}:{port}", timeout=30.0)
    try:
        assert client.healthz()["status"] == "ok"
        server.shutdown(drain=True)
        with pytest.raises(HTTPError) as err:
            client.healthz()
        assert err.value.status == 503
        with pytest.raises(HTTPError) as err:
            client.predict(MODEL_NAME, list(request_rows[0]))
        assert err.value.status == 503
    finally:
        httpd.shutdown()
        httpd.server_close()
        server.shutdown()


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def test_cli_rejects_malformed_model_names(capsys):
    from repro.cli import main_serve

    with pytest.raises(SystemExit) as exit_info:
        main_serve(["--models", "redwine-ours", "--port", "0"])
    assert exit_info.value.code == 2  # argparse usage error, before training


def test_cli_serves_http_end_to_end(monkeypatch, tiny_flow_config):
    """Boot the real repro-serve CLI on an ephemeral port and query it."""
    import repro.cli as cli
    import repro.serve.http as serve_http

    captured = {}
    original = serve_http.ServingHTTPServer.serve_forever

    def capturing_serve_forever(self, *args, **kwargs):
        captured["httpd"] = self
        return original(self, *args, **kwargs)

    monkeypatch.setattr(
        serve_http.ServingHTTPServer, "serve_forever", capturing_serve_forever
    )
    # Route the CLI onto the small test configuration so the preload trains
    # (or reuses) the tiny flow rather than the paper-sized one.
    monkeypatch.setattr(cli, "fast_config", lambda: tiny_flow_config)

    thread = threading.Thread(
        target=cli.main_serve,
        args=(
            [
                "--models",
                "redwine/ours",
                "--port",
                "0",
                "--fast",
                "--no-cache",
                "--max-batch-size",
                "32",
            ],
        ),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 120.0
    while "httpd" not in captured and time.monotonic() < deadline:
        time.sleep(0.05)
    assert "httpd" in captured, "CLI server did not come up"
    httpd = captured["httpd"]
    host, port = httpd.server_address[:2]
    client = HTTPClient(f"http://{host}:{port}", timeout=30.0)
    try:
        assert client.healthz()["status"] == "ok"
        models = client.models()["models"]
        assert [m["name"] for m in models] == ["redwine/ours"]
        n_features = models[0]["n_features"]
        out = client.predict("redwine/ours", [0.5] * n_features)
        assert out["model"] == "redwine/ours"
        assert out["class_id"] in range(len(models[0]["classes"]))
    finally:
        httpd.shutdown()
        thread.join(timeout=30.0)
    assert not thread.is_alive()


@requires_fork
def test_cli_serves_worker_fleet_end_to_end(tmp_path):
    """repro-serve --workers 2 as its own process: it prints its address
    once every child is ready, every child serves every model, and SIGINT
    drains the fleet and exits 0."""
    command = [
        sys.executable, "-m", "repro.serve", "--fast", "--samples", "220",
        "--cache-dir", str(tmp_path), "--workers", "2", "--port", "0",
        "--models", "redwine/ours", "cardio/ours",
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
    try:
        watchdog = threading.Timer(120.0, process.kill)
        watchdog.start()
        try:
            announced = next(
                (line for line in process.stdout if line.startswith("serving on")), ""
            )
        finally:
            watchdog.cancel()
        assert announced, "CLI fleet server did not come up"
        client = HTTPClient(announced.split()[2], timeout=30.0)
        assert client.healthz()["ready"] is True
        models = client.models()["models"]
        assert sorted(m["name"] for m in models) == ["cardio/ours", "redwine/ours"]
        out = client.predict("redwine/ours", [0.5] * models[0]["n_features"])
        assert out["model"] == "redwine/ours"
        stats = client.stats()
        assert len(stats["workers"]) == 2
        for worker in stats["workers"]:
            assert sorted(worker["models"]) == ["cardio/ours", "redwine/ours"]
        client.close()
    finally:
        process.send_signal(signal.SIGINT)
        assert process.wait(timeout=60.0) == 0
        process.stdout.close()
