"""HTTPClient retry edge cases: budgets, status policy, backoff caps.

The contract under test (see ``repro/serve/client.py``):

* a retry budget that runs dry re-raises the *original* transport error —
  not a wrapper, not a fresh one;
* only predict verbs retry on a 503 (their kernels are pure, resending is
  idempotent); ``healthz``/``stats``/``models`` never retry on status;
* backoff sleeps grow exponentially but are capped at ``max_backoff_s`` —
  a big retry budget must not become minute-long sleeps.
"""

from __future__ import annotations

import http.client
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import repro.serve.client as client_module
from repro.serve.client import HTTPClient, HTTPError


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.fixture()
def slamming_server():
    """A server that accepts and immediately closes every connection."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    listener.settimeout(0.05)  # a blocked accept() would outlive close()
    accepts = []
    stop = threading.Event()

    def loop():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            accepts.append(1)
            conn.close()

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    yield listener.getsockname()[1], accepts
    stop.set()
    thread.join(timeout=5)
    assert not thread.is_alive()
    listener.close()


class _Always503(BaseHTTPRequestHandler):
    requests = []

    def _answer(self):
        type(self).requests.append(self.path)
        body = b'{"error": "draining"}'
        self.send_response(503)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = _answer
    do_POST = _answer

    def log_message(self, *args):  # keep pytest output clean
        pass


@pytest.fixture()
def always_503():
    _Always503.requests = []
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Always503)
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield httpd.server_address[1], _Always503.requests
    httpd.shutdown()
    httpd.server_close()


class TestBudgetExhaustion:
    def test_original_error_raised_after_budget(self, slamming_server):
        """The last failure's own exception type survives the retry loop."""
        port, accepts = slamming_server
        client = HTTPClient(
            f"http://127.0.0.1:{port}", retries=2, backoff_s=0.001
        )
        # A close-after-accept surfaces as RemoteDisconnected or (when the
        # kernel turns it into an RST) its parent ConnectionResetError —
        # either way the transport error itself propagates.
        with pytest.raises(ConnectionResetError):
            client.healthz()
        # Initial attempt + the full budget, each on a fresh connection.
        assert len(accepts) == 3

    def test_refused_connection_raises_original_oserror(self):
        port = _free_port()  # nothing is listening here
        client = HTTPClient(
            f"http://127.0.0.1:{port}", retries=1, backoff_s=0.001
        )
        with pytest.raises(ConnectionRefusedError):
            client.stats()

    def test_zero_retries_fails_on_first_error(self, slamming_server):
        port, accepts = slamming_server
        client = HTTPClient(f"http://127.0.0.1:{port}", retries=0)
        with pytest.raises(ConnectionResetError):
            client.models()
        assert len(accepts) == 1


class TestStatusRetryPolicy:
    def test_non_predict_verbs_never_retry_on_503(self, always_503):
        """A 503 from healthz/stats/models IS the answer: one request each."""
        port, requests = always_503
        client = HTTPClient(
            f"http://127.0.0.1:{port}", retries=3, backoff_s=0.001
        )
        for verb, expected_total in (
            (client.healthz, 1),
            (client.stats, 2),
            (client.models, 3),
        ):
            with pytest.raises(HTTPError) as err:
                verb()
            assert err.value.status == 503
            assert len(requests) == expected_total, (
                f"{verb.__name__} must not retry on status"
            )

    def test_predict_retries_on_503_then_surfaces_it(self, always_503):
        """Predict IS idempotent: it retries a 503, then reports the last."""
        port, requests = always_503
        client = HTTPClient(
            f"http://127.0.0.1:{port}", retries=2, backoff_s=0.001
        )
        with pytest.raises(HTTPError) as err:
            client.predict("redwine/ours", [0.5] * 11)
        assert err.value.status == 503
        assert len(requests) == 3  # initial + 2 retries

        requests.clear()
        with pytest.raises(HTTPError) as err:
            client.predict_many("redwine/ours", [[0.5] * 11])
        assert err.value.status == 503
        assert len(requests) == 3


class TestBackoffCap:
    def test_sleeps_never_exceed_max_backoff(self, monkeypatch):
        """Even an absurd base backoff is clamped to max_backoff_s."""
        sleeps = []
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        port = _free_port()
        client = HTTPClient(
            f"http://127.0.0.1:{port}",
            retries=4,
            backoff_s=100.0,
            max_backoff_s=0.002,
        )
        with pytest.raises(ConnectionRefusedError):
            client.healthz()
        assert len(sleeps) == 4  # one sleep before each retry, none before #0
        assert all(s == 0.002 for s in sleeps)

    def test_uncapped_growth_is_exponential(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(client_module.time, "sleep", sleeps.append)
        port = _free_port()
        client = HTTPClient(
            f"http://127.0.0.1:{port}",
            retries=3,
            backoff_s=0.001,
            max_backoff_s=10.0,
        )
        with pytest.raises(ConnectionRefusedError):
            client.healthz()
        assert sleeps == [
            pytest.approx(0.001),
            pytest.approx(0.002),
            pytest.approx(0.004),
        ]

    def test_negative_max_backoff_rejected(self):
        with pytest.raises(ValueError):
            HTTPClient("http://127.0.0.1:1", max_backoff_s=-0.1)
