"""The HTTP JSON endpoint of ``repro-serve`` (stdlib only).

A :class:`ThreadingHTTPServer` front-end over one
:class:`~repro.serve.server.ModelServer`.  Handler threads do nothing but
decode JSON and block on the shared micro-batching queue, so concurrent
HTTP requests coalesce into vectorized micro-batches exactly like
in-process callers.  The endpoint speaks HTTP/1.1 with persistent
(keep-alive) connections — a client reusing its socket skips the TCP
handshake per request, which is what :class:`~repro.serve.client.HTTPClient`
does by default.

Routes
------
* ``POST /predict`` — body ``{"model": "<dataset>/<kind>", "features":
  [...]}`` for one sample, or ``{"model": ..., "batch": [[...], ...]}``
  for bulk; answers labels + class ids + served latency.
* ``GET /stats`` — per-model request rates, batch occupancy, p50/p99.
* ``GET /models`` — metadata of every loaded model.
* ``GET /healthz`` — liveness (``503`` once shutdown has begun) plus a
  ``ready`` field: whether the server — in a pre-fork fleet, every child —
  can answer predict requests right now.  Bench scripts and clients poll it
  instead of sleeping (see :meth:`repro.serve.client.HTTPClient.wait_ready`).

Example::

    registry = ModelRegistry(config=fast_config())
    model_server = ModelServer(registry)
    httpd = serve_in_thread(model_server, port=0)     # ephemeral port
    url = f"http://{httpd.server_address[0]}:{httpd.server_address[1]}"
    # ... requests ...
    httpd.shutdown(); model_server.shutdown()
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.serve.server import ModelServer, ServerClosed

#: Largest accepted request body (1 MiB keeps bulk requests plentiful while
#: bounding what one connection can make the server buffer).
MAX_BODY_BYTES = 1 << 20


class ServingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the shared :class:`ModelServer`.

    Example::

        httpd = ServingHTTPServer(("127.0.0.1", 0), model_server)
        httpd.server_address          # actual (host, port) after binding
    """

    #: Handler threads must die with the process (tests, Ctrl-C).
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], model_server: ModelServer) -> None:
        super().__init__(address, _ServingRequestHandler)
        self.model_server = model_server


class _ServingRequestHandler(BaseHTTPRequestHandler):
    """Route dispatch for the serving endpoint (one instance per connection).

    Speaks HTTP/1.1 with persistent connections: every response carries a
    ``Content-Length``, so the stdlib keeps the socket open and a client can
    pipeline thousands of predict requests over one TCP connection instead
    of paying a handshake each (see :class:`repro.serve.client.HTTPClient`,
    which reuses its connection).  Idle connections are dropped after
    :attr:`timeout` seconds so stuck clients cannot pin handler threads.

    Each response leaves in one write with Nagle's algorithm off.  Written
    as two segments (headers, then body) on a Nagle socket, the body waits
    for the client's delayed ACK of the headers — about 40 ms on Linux,
    per request.
    """

    server: ServingHTTPServer
    #: HTTP/1.1 enables keep-alive (connection reuse) in the stdlib handler.
    protocol_version = "HTTP/1.1"
    #: Seconds an idle persistent connection may sit between requests.
    timeout = 60.0
    #: Buffer the response: headers and body go out together when
    #: ``handle_one_request`` flushes after the route returns.
    wbufsize = -1
    #: TCP_NODELAY: a reply larger than the write buffer still leaves in
    #: several writes, and none of them may wait for an ACK.
    disable_nagle_algorithm = True

    #: Quiet by default: request logging is the caller's business.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    # ------------------------------------------------------------------ #
    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        # Tell the client explicitly whether this socket stays usable; an
        # HTTP/1.1 peer assumes keep-alive unless it reads "close".
        self.send_header(
            "Connection", "close" if self.close_connection else "keep-alive"
        )
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_json_body(self) -> Optional[dict]:
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            # The body's end is unknown, so the next keep-alive request
            # cannot be found either: drop the connection.
            self.close_connection = True
            self._send_error_json(400, "malformed Content-Length")
            return None
        if length <= 0:
            # No usable Content-Length (absent, zero, or chunked encoding we
            # never read): anything the client did send would desync the next
            # keep-alive request, so drop the connection.
            self.close_connection = True
            self._send_error_json(400, "missing request body")
            return None
        if length > MAX_BODY_BYTES:
            # The oversized body stays unread; drop the connection instead of
            # letting the next keep-alive request parse it as garbage.
            self.close_connection = True
            self._send_error_json(413, f"request body over {MAX_BODY_BYTES} bytes")
            return None
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._send_error_json(400, "request body is not valid JSON")
            return None
        if not isinstance(payload, dict):
            self._send_error_json(400, "request body must be a JSON object")
            return None
        return payload

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        model_server = self.server.model_server
        if self.path == "/healthz":
            if model_server.closed:
                self._send_json(
                    {"status": "shutting down", "ready": False}, status=503
                )
            else:
                self._send_json({"status": "ok", "ready": model_server.ready})
        elif self.path == "/stats":
            try:
                self._send_json(model_server.stats())
            except ServerClosed as error:
                self._send_error_json(503, str(error))
        elif self.path == "/models":
            self._send_json({"models": model_server.models()})
        else:
            self._send_error_json(404, f"unknown route {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/predict":
            # The request body stays unread; drop the connection so the next
            # keep-alive request cannot parse it as its request line.
            self.close_connection = True
            self._send_error_json(404, f"unknown route {self.path!r}")
            return
        payload = self._read_json_body()
        if payload is None:
            return
        name = payload.get("model")
        if not isinstance(name, str):
            self._send_error_json(400, "missing string field 'model'")
            return
        has_single = "features" in payload
        has_bulk = "batch" in payload
        if has_single == has_bulk:
            self._send_error_json(
                400, "provide exactly one of 'features' (single) or 'batch' (bulk)"
            )
            return
        model_server = self.server.model_server
        try:
            if has_single:
                result = model_server.predict(name, payload["features"])
            else:
                result = model_server.predict_many(name, payload["batch"])
        except ServerClosed as error:
            self._send_error_json(503, str(error))
        except ValueError as error:
            self._send_error_json(400, str(error))
        except Exception as error:  # unexpected: surface, don't hang the socket
            self._send_error_json(500, f"{type(error).__name__}: {error}")
        else:
            self._send_json(result)


# --------------------------------------------------------------------------- #
def build_http_server(
    model_server: ModelServer, host: str = "127.0.0.1", port: int = 8000
) -> ServingHTTPServer:
    """Bind the serving endpoint (``port=0`` picks an ephemeral port).

    Example::

        httpd = build_http_server(model_server, port=0)
        httpd.serve_forever()      # blocks; Ctrl-C to stop
    """
    return ServingHTTPServer((host, port), model_server)


def serve_in_thread(
    model_server: ModelServer, host: str = "127.0.0.1", port: int = 0
) -> ServingHTTPServer:
    """Run the endpoint on a daemon thread; returns the bound server.

    The test-friendly entry point: the caller reads the ephemeral port off
    ``httpd.server_address`` and stops with ``httpd.shutdown()``.  The
    serve loop polls for that every 50 ms (the stdlib default, 0.5 s, is
    what each shutdown would otherwise wait).

    Example::

        httpd = serve_in_thread(model_server, port=0)
        port = httpd.server_address[1]
        HTTPClient(f"http://127.0.0.1:{port}").healthz()   # {"status": "ok"}
        httpd.shutdown()
    """
    httpd = build_http_server(model_server, host=host, port=port)
    thread = threading.Thread(
        target=httpd.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="repro-serve-http",
        daemon=True,
    )
    thread.start()
    return httpd
