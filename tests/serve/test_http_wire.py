"""The default serving path waits on no timer: wire and straggler window.

Two timers used to sit on every served request.  The handler wrote the
headers and the body as two segments on a Nagle socket, so the body waited
for the client's delayed ACK (~40 ms on Linux); and the micro-batcher held
a lone request for a 2 ms straggler window.  These tests pin both off.
"""

from __future__ import annotations

import http.client
import inspect
import json
import socket
import statistics
import time

from repro.cli import _serve_parser
from repro.serve import server as server_module
from repro.serve.batching import DEFAULT_MAX_BATCH_SIZE, DEFAULT_MAX_LATENCY_MS, MicroBatcher
from repro.serve.http import _ServingRequestHandler, serve_in_thread
from repro.serve.server import ModelServer
from repro.serve.worker import Supervisor, worker_main

from .conftest import MODEL_NAME


def test_every_layer_defaults_to_one_straggler_window(registry):
    assert DEFAULT_MAX_LATENCY_MS == 0.0
    batcher_default = inspect.signature(MicroBatcher).parameters["max_latency_ms"]
    assert batcher_default.default == DEFAULT_MAX_LATENCY_MS
    with ModelServer(registry) as server:
        assert server.max_latency_ms == DEFAULT_MAX_LATENCY_MS
        assert server.stats()["max_latency_ms"] == DEFAULT_MAX_LATENCY_MS
    for fleet_layer in (Supervisor, worker_main):
        default = inspect.signature(fleet_layer).parameters["max_latency_ms"].default
        assert default == DEFAULT_MAX_LATENCY_MS
    assert _serve_parser().parse_args([]).max_latency_ms == DEFAULT_MAX_LATENCY_MS


def test_every_layer_defaults_to_one_batch_ceiling(registry):
    assert server_module.DEFAULT_MAX_BATCH_SIZE is DEFAULT_MAX_BATCH_SIZE
    batcher_default = inspect.signature(MicroBatcher).parameters["max_batch_size"]
    assert batcher_default.default == DEFAULT_MAX_BATCH_SIZE
    with ModelServer(registry) as server:
        assert server.max_batch_size == DEFAULT_MAX_BATCH_SIZE
        assert server.stats()["max_batch_size"] == DEFAULT_MAX_BATCH_SIZE
    for fleet_layer in (Supervisor, worker_main):
        default = inspect.signature(fleet_layer).parameters["max_batch_size"].default
        assert default == DEFAULT_MAX_BATCH_SIZE
    assert _serve_parser().parse_args([]).max_batch_size == DEFAULT_MAX_BATCH_SIZE


def test_keep_alive_single_predicts_skip_the_delayed_ack(registry, request_rows):
    """Sequential predicts on one connection take milliseconds, not ~44 ms."""
    server = ModelServer(registry)
    httpd = serve_in_thread(server, port=0)
    host, port = httpd.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    headers = {"Content-Type": "application/json"}
    body = json.dumps({"model": MODEL_NAME, "features": list(request_rows[0])})
    try:
        round_trips = []
        for _ in range(30):
            start = time.perf_counter()
            conn.request("POST", "/predict", body=body, headers=headers)
            response = conn.getresponse()
            payload = json.loads(response.read())
            round_trips.append(time.perf_counter() - start)
            assert response.status == 200 and "class_id" in payload
        assert statistics.median(round_trips) < 0.020, round_trips
    finally:
        conn.close()
        httpd.shutdown()
        httpd.server_close()
        server.shutdown()


def test_accepted_socket_has_tcp_nodelay(monkeypatch, server, request_rows):
    """A reply larger than the write buffer leaves in several writes; with
    Nagle's algorithm on, the later ones would wait for an ACK."""
    seen = []
    original_setup = _ServingRequestHandler.setup

    def recording_setup(self):
        original_setup(self)
        seen.append(
            self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        )

    monkeypatch.setattr(_ServingRequestHandler, "setup", recording_setup)
    httpd = serve_in_thread(server, port=0)
    host, port = httpd.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        # A bulk reply well past the handler's 8 KiB write buffer.
        batch = [list(row) for row in request_rows] * 100
        conn.request(
            "POST",
            "/predict",
            body=json.dumps({"model": MODEL_NAME, "batch": batch}),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = response.read()
        assert response.status == 200 and len(payload) > 8192
        assert json.loads(payload)["n_samples"] == len(batch)
    finally:
        conn.close()
        httpd.shutdown()
        httpd.server_close()
    assert len(seen) == 1 and seen[0] != 0
