"""Length-prefixed binary framing between a parent and its forked workers.

The job service's flow workers (:mod:`repro.jobs.worker`) speak a tiny
binary protocol over a ``socketpair``: every message is one *frame* — a
5-byte header (one message-kind byte plus a big-endian ``uint32`` payload
length) followed by the payload bytes.  Payloads are pickled Python tuples
(the channel is private between a parent and the worker processes it
forked, so pickle's trust model is the process boundary's own).

Frame kinds
-----------
* ``MSG_REQUEST`` — ``(req_id, ...)``: one unit of work.
* ``MSG_CONTROL`` — ``(req_id, op, arg)``: ``"ping"`` (heartbeat).
* ``MSG_RESPONSE`` / ``MSG_ERROR`` — ``(req_id, payload)`` /
  ``(req_id, error_kind, message)``: the answer to a request or control
  frame, matched by ``req_id``.
* ``MSG_SHUTDOWN`` — ``(drain,)``: one-way; the worker closes its end and
  exits.  The resulting EOF is the parent's completion signal.

Crash detection is framing-level: a worker that dies mid-frame or closes
its socket surfaces as ``None`` from :meth:`FrameConnection.recv` (clean
EOF) or :class:`TransportError` (torn frame), and the parent treats the
worker as crashed.

Example::

    parent, child = socket.socketpair()
    conn = FrameConnection(parent)
    conn.send(MSG_CONTROL, (1, "ping", None))
    kind, payload = FrameConnection(child).recv()   # worker side
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from typing import Any, Optional, Tuple

#: Frame header: one kind byte + big-endian uint32 payload length.
_HEADER = struct.Struct("!BI")

#: Hard ceiling on one frame's payload (a torn header otherwise makes the
#: receiver try to allocate gigabytes before noticing the stream is gone).
MAX_FRAME_BYTES = 256 << 20

MSG_REQUEST = 1
MSG_CONTROL = 2
MSG_RESPONSE = 3
MSG_ERROR = 4
MSG_SHUTDOWN = 5

#: Error kinds carried by ``MSG_ERROR``: ``value`` for bad input, anything
#: else for a failure inside the worker.
ERROR_VALUE = "value"
ERROR_INTERNAL = "internal"


class TransportError(RuntimeError):
    """A torn or malformed frame (the peer died mid-message).

    Example::

        try:
            conn.recv()
        except TransportError:
            ...  # treat exactly like EOF: the worker is gone
    """


class WorkerCrashed(RuntimeError):
    """Raised to callers whose worker died before answering.

    Example::

        try:
            worker.call(job_doc, timeout=300.0)
        except WorkerCrashed:
            ...  # kill the handle and retry the job on another worker
    """


def encode(obj: Any) -> bytes:
    """Pickle one frame payload (highest protocol: zero-copy numpy buffers).

    Example::

        >>> import pickle
        >>> pickle.loads(encode((1, "ping", None)))
        (1, 'ping', None)
    """
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def decode(payload: bytes) -> Any:
    """Unpickle one frame payload (inverse of :func:`encode`)."""
    return pickle.loads(payload)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` on clean EOF at a frame boundary.

    EOF *inside* a frame raises :class:`TransportError` — the peer died
    mid-message and the stream cannot be resynchronized.
    """
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except (ConnectionResetError, BrokenPipeError):
            chunk = b""
        if not chunk:
            if remaining == n:
                return None
            raise TransportError(
                f"stream ended {remaining} bytes short of a {n}-byte read"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class FrameConnection:
    """One framed, thread-safe end of a parent<->worker socket.

    Sends are serialized by a lock, so several threads may send on one
    connection; receives are meant to be driven by a single reader loop per
    connection.

    Example::

        parent_sock, child_sock = socket.socketpair()
        conn = FrameConnection(parent_sock)
        conn.send(MSG_SHUTDOWN, (True,))
        conn.close()
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._closed = False

    @property
    def fileno(self) -> int:
        return self._sock.fileno()

    def set_timeout(self, timeout: Optional[float]) -> None:
        """Set a socket-level timeout for subsequent sends/receives.

        ``None`` restores blocking mode.  A receive that trips the timeout
        raises ``socket.timeout`` (an ``OSError``) — and because it may have
        consumed part of a frame, the stream can no longer be resynchronized:
        callers must treat a timed-out connection as dead (close it, kill the
        peer), exactly as they would a :class:`TransportError`.

        Example::

            conn.set_timeout(5.0)      # per-job deadline
            conn.set_timeout(None)     # back to blocking
        """
        self._sock.settimeout(timeout)

    # ------------------------------------------------------------------ #
    def send(self, kind: int, obj: Any) -> None:
        """Frame and send one message; raises ``OSError`` if the peer died."""
        payload = encode(obj)
        if len(payload) > MAX_FRAME_BYTES:
            raise ValueError(
                f"frame payload of {len(payload)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte transport ceiling"
            )
        frame = _HEADER.pack(kind, len(payload)) + payload
        with self._send_lock:
            if self._closed:
                raise OSError("connection is closed")
            self._sock.sendall(frame)

    def recv(self) -> Optional[Tuple[int, Any]]:
        """Receive one ``(kind, payload)`` message; ``None`` on clean EOF."""
        header = _recv_exact(self._sock, _HEADER.size)
        if header is None:
            return None
        kind, length = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise TransportError(
                f"frame announces {length} bytes (ceiling {MAX_FRAME_BYTES}); "
                "stream is corrupt"
            )
        payload = _recv_exact(self._sock, length) if length else b""
        if length and payload is None:
            raise TransportError("stream ended between a header and its payload")
        return kind, decode(payload) if length else None

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close the underlying socket; idempotent."""
        with self._send_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def connection_pair() -> Tuple[FrameConnection, socket.socket]:
    """A framed parent end plus the raw child socket for one new worker.

    The child's end stays a raw socket until after the fork (the worker
    wraps it itself), so the parent can close its copy without touching
    shared framing state.

    Example::

        parent_conn, child_sock = connection_pair()
        # fork; child: FrameConnection(child_sock); parent: child_sock.close()
    """
    parent_sock, child_sock = socket.socketpair()
    return FrameConnection(parent_sock), child_sock
