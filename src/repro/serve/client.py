"""The HTTP client of the serving subsystem.

:class:`HTTPClient` drives the ``repro-serve`` endpoint over one persistent
(keep-alive) ``http.client`` connection (stdlib), which is what an external
consumer of ``repro-serve`` sees.  Its verbs — ``predict`` (single sample),
``predict_many`` (bulk), ``stats``, ``models`` and ``healthz`` — return
the JSON response documents; in-process callers get the same documents
from :class:`~repro.serve.server.ModelServer` directly.

Example::

    remote = HTTPClient("http://127.0.0.1:8000")
    remote.predict("redwine/ours", list(x))["prediction"]
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from typing import Dict, Optional, Sequence, Tuple, Union


class HTTPError(RuntimeError):
    """A non-2xx response from the serving endpoint.

    Example::

        try:
            client.predict("redwine/ours", [0.1])   # wrong feature count
        except HTTPError as error:
            error.status                            # 400
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class HTTPClient:
    """Minimal stdlib client for the ``repro-serve`` HTTP endpoint.

    Keeps one persistent HTTP/1.1 connection to the server and reuses it
    across requests (the endpoint speaks keep-alive), so a request costs a
    round trip instead of a TCP handshake plus a round trip.  The connection
    is re-established transparently when the server closes it (idle timeout,
    restart), with up to ``retries`` resends under exponential backoff.
    Predict requests additionally retry on a ``503`` answer — the status a
    draining or not-yet-ready server returns — because the served kernels
    are pure functions of their rows: resending is idempotent, so a fleet
    child's crash and restart are invisible to callers.  Other verbs never
    retry on status (a ``healthz`` 503 *is* the answer).  Thread-safe:
    concurrent callers serialize on the connection; use one client per
    thread for parallel load.

    Example::

        client = HTTPClient("http://127.0.0.1:8000", timeout=5.0)
        client.wait_ready()                         # poll until serving
        client.predict("redwine/ours", [0.2] * 11)  # decoded prediction dict
        client.close()                              # drop the kept socket
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 3,
        backoff_s: float = 0.05,
        max_backoff_s: float = 1.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if max_backoff_s < 0:
            raise ValueError("max_backoff_s must be >= 0")
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme {parsed.scheme!r} (http only)")
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port or 80
        self._path_prefix = parsed.path.rstrip("/")
        self._conn: Optional[http.client.HTTPConnection] = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        """Drop the persistent connection (re-opened lazily on next use)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> "HTTPClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(
        self,
        path: str,
        payload: Union[Dict, None] = None,
        retry_status: Tuple[int, ...] = (),
    ) -> Dict:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        method = "GET" if payload is None else "POST"
        url = f"{self._path_prefix}{path}"
        # Only a dropped or refused socket warrants the transparent resend; a
        # timeout (or any other error) must propagate — the server may have
        # received and be processing the first copy of the request.
        retryable = (
            http.client.RemoteDisconnected,
            http.client.BadStatusLine,
            http.client.CannotSendRequest,
            ConnectionError,
        )
        with self._lock:
            # Bounded resends on a fresh connection, backing off 50/100/200ms
            # (capped at max_backoff_s so a large retry budget cannot turn
            # into minute-long exponential sleeps): covers the server
            # dropping the kept socket between requests and (for callers
            # passing retry_status) a 503 from a drain window.
            for attempt in range(self.retries + 1):
                final = attempt == self.retries
                if attempt:
                    time.sleep(
                        min(self.backoff_s * (1 << (attempt - 1)), self.max_backoff_s)
                    )
                conn = self._connection()
                try:
                    conn.request(method, url, body=data, headers=headers)
                    response = conn.getresponse()
                    body = response.read()
                except retryable:
                    conn.close()
                    self._conn = None
                    if final:
                        raise
                    continue
                except (http.client.HTTPException, OSError):
                    conn.close()
                    self._conn = None
                    raise
                if response.status in retry_status and not final:
                    continue
                if response.status >= 400:
                    try:
                        message = json.loads(body.decode("utf-8")).get("error", "")
                    except Exception:
                        message = response.reason
                    raise HTTPError(response.status, message)
                return json.loads(body.decode("utf-8"))
        raise RuntimeError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------ #
    def predict(self, model: str, features: Sequence) -> Dict:
        """POST ``/predict`` with one sample's features.

        Idempotent (the kernels are pure), so a 503 from a draining or
        restarting server is retried with backoff.
        """
        return self._request(
            "/predict",
            {"model": model, "features": list(features)},
            retry_status=(503,),
        )

    def predict_many(self, model: str, batch: Sequence) -> Dict:
        """POST ``/predict`` with a bulk ``batch`` of samples.

        Idempotent like :meth:`predict`: retried with backoff on a 503.
        """
        rows = [list(row) for row in batch]
        return self._request(
            "/predict", {"model": model, "batch": rows}, retry_status=(503,)
        )

    def stats(self) -> Dict:
        """GET ``/stats``."""
        return self._request("/stats")

    def models(self) -> Dict:
        """GET ``/models``."""
        return self._request("/models")

    def healthz(self) -> Dict:
        """GET ``/healthz`` (never retried on status: the 503 is the answer)."""
        return self._request("/healthz")

    def wait_ready(self, timeout_s: float = 30.0, interval_s: float = 0.05) -> Dict:
        """Poll ``/healthz`` until the server reports ``ready``.

        The boot handshake bench scripts and tests use instead of sleeping:
        in fleet mode ``ready`` only turns true once every worker process
        has answered a heartbeat.  Returns the final health document;
        raises ``TimeoutError`` if readiness never arrives.

        Example::

            client = HTTPClient(url)
            client.wait_ready(timeout_s=10.0)["ready"]    # True
        """
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                health = self.healthz()
                if health.get("ready"):
                    return health
            except (HTTPError, OSError):
                pass  # booting (refused) or shutting down (503): keep polling
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"server at {self.base_url} not ready within {timeout_s:.0f}s"
                )
            time.sleep(interval_s)
