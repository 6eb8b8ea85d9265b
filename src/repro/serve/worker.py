"""The pre-fork fleet behind ``repro-serve --workers N``.

A thin :class:`Supervisor` forks N children.  Each child is a complete
single-process server — a :class:`~repro.serve.server.ModelServer` behind a
:class:`~repro.serve.http.ServingHTTPServer` — so a fleet answers with
exactly the kernels, micro-batching and stats of one process.

The supervisor owns the listening socket.  It accepts each TCP connection
and hands the descriptor to the next live child in turn (``SCM_RIGHTS``
over that child's control socket), so no request crosses a process
boundary after accept.  It hands out in turn rather than letting children
race on one shared accept socket: two clients that connect at the same
instant can both land on whichever child wins both ``accept()`` calls, and
that child then serves at the single-process rate while its sibling idles.

Each child's control socket (an ``AF_UNIX`` ``SOCK_SEQPACKET`` pair) also
carries:

* ``ready`` — the child's lanes are open; the supervisor announces the
  fleet only once every child has sent it;
* ``fleet`` / ``stats`` — a child was asked for ``/stats`` or ``/healthz``;
  the supervisor collects every child's raw stats (only for ``/stats``)
  and answers with the fleet document.  This never happens on the predict
  path;
* ``drain`` — SIGINT or SIGTERM reached the supervisor: finish in-flight
  requests, then exit.

A child that dies shows up as EOF on its control socket: the supervisor
reaps it, forks a replacement and counts the restart.  The dead child's
open connections fail at the socket and clients resend
(:class:`~repro.serve.client.HTTPClient` retries a dropped connection, and
a 503 for predicts).  A child reads EOF when the supervisor dies, even by
SIGKILL, and exits after a drain.  A child that is alive but stuck is not
detected.

Example::

    pid, url = spawn_fleet(registry, ["redwine/ours"], workers=2)
    HTTPClient(url).wait_ready()
    stop_fleet(pid)       # SIGTERM: drain every child, then reap
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import socket
import sys
import threading
import time
import traceback
from concurrent.futures import Future
from itertools import count
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.serve.batching import DEFAULT_MAX_BATCH_SIZE, DEFAULT_MAX_LATENCY_MS
from repro.serve.http import ServingHTTPServer
from repro.serve.registry import ModelRegistry
from repro.serve.server import ModelServer, ServerClosed
from repro.serve.stats import summarize

#: Largest control packet; a longer message (a stats document) spans several.
_PACKET = 1 << 16
#: How long a draining child waits for its open connections to finish; the
#: supervisor waits twice as long for a draining child before SIGKILL.
DRAIN_TIMEOUT_S = 10.0
#: How long a child's ``/stats`` or ``/healthz`` waits for the supervisor.
ASK_TIMEOUT_S = 30.0
#: How long a child that closed its control socket may take to exit (print
#: its traceback, dump its spans) before the supervisor SIGKILLs it.
REAP_GRACE_S = 2.0


def _send(sock: socket.socket, message: tuple, fds: Sequence[int] = ()) -> None:
    """Send one pickled control message, with ``fds`` on its first packet.

    Each packet starts with ``+`` (more follow) or ``.`` (last), so a
    message of any length fits the packet size of the socket.
    """
    data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    for start in range(0, len(data), _PACKET):
        flag = b"+" if start + _PACKET < len(data) else b"."
        packet = flag + data[start : start + _PACKET]
        if fds and not start:
            socket.send_fds(sock, [packet], fds)
        else:
            sock.send(packet)


def _recv(sock: socket.socket) -> Optional[Tuple[tuple, List[int]]]:
    """The next control message and the descriptors it carried; ``None`` at EOF.

    Only a process and the children it forked share a control socket, so
    unpickling reads bytes this program wrote.
    """
    parts: List[bytes] = []
    fds: List[int] = []
    while True:
        try:
            packet, received, _flags, _addr = socket.recv_fds(sock, _PACKET + 1, 1)
        except ConnectionResetError:  # the peer died with messages unread
            packet, received = b"", []
        fds.extend(received)
        if not packet:
            for fd in fds:
                os.close(fd)
            return None
        parts.append(packet[1:])
        if packet[:1] == b".":
            return pickle.loads(b"".join(parts)), fds


def _send_quietly(sock: socket.socket, message: tuple) -> None:
    """Send to a peer that may have died; its EOF is handled where it is read."""
    try:
        _send(sock, message)
    except OSError:
        pass


def _reap(pid: int, deadline: float) -> int:
    """Wait for child ``pid`` until ``deadline``, then SIGKILL it; its exit code."""
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() >= deadline:
            os.kill(pid, signal.SIGKILL)
            return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        time.sleep(0.01)


def _wake(signum, frame) -> None:
    """SIGINT/SIGTERM handler: the wakeup fd already carries the signal."""


def _fork(body: Callable[[], None]) -> int:
    """Fork a child that runs ``body`` and exits: 0 after it returns, 1 after
    an error.  Returns the child's pid."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        body()
        status = 0
    except BaseException:
        # Never unwind into the parent's frames in the child.
        traceback.print_exc()
    finally:
        os._exit(status)


# --------------------------------------------------------------------------- #
# Supervisor
# --------------------------------------------------------------------------- #
class _Child:
    """One seat of the fleet: its current process and what the supervisor knows."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.pid: Optional[int] = None  # None while the seat awaits a respawn
        self.sock: Optional[socket.socket] = None
        self.spawned = 0.0
        self.ready = False
        self.restarts = 0
        self.models: List[str] = []


class Supervisor:
    """Forks ``workers`` full servers and hands each accepted connection on.

    :meth:`run` owns the calling thread, which must be the main thread, and
    starts no thread: every child, the first ``workers`` and each
    replacement, is forked from its single-threaded loop.

    Example::

        listener = socket.create_server(("127.0.0.1", 8000))
        Supervisor(registry, ["redwine/ours"], 2, listener).run(
            on_ready=lambda: print("serving"))
    """

    def __init__(
        self,
        registry: ModelRegistry,
        models: Sequence[str],
        workers: int,
        listener: socket.socket,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        max_latency_ms: float = DEFAULT_MAX_LATENCY_MS,
    ) -> None:
        if workers < 1:
            raise ValueError("a fleet needs workers >= 1")
        self.registry = registry
        self.models = list(models)
        self.listener = listener
        self.max_batch_size = int(max_batch_size)
        self.max_latency_ms = float(max_latency_ms)
        self.children = [_Child(i) for i in range(workers)]
        self._next = 0
        #: Open ``/stats`` collections: id -> (asking child, its request id,
        #: children still to answer, the raw stats received).
        self._gathers: Dict[int, Tuple[_Child, int, set, list]] = {}
        self._gather_ids = count(1)
        self._started = time.monotonic()

    # ------------------------------------------------------------------ #
    def run(self, on_ready: Callable[[], None] = lambda: None) -> None:
        """Serve until SIGINT or SIGTERM, then drain every child and return.

        ``on_ready`` runs once, when every child has reported ready.  The
        listener is closed on return.
        """
        for name in self.models:
            self.registry.get(name)  # load once here; every child inherits it
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
        self.listener.setblocking(False)
        self._selector.register(self.listener, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        handlers = {sig: signal.signal(sig, _wake) for sig in (signal.SIGINT, signal.SIGTERM)}
        wakeup = signal.set_wakeup_fd(self._wake_w.fileno())
        try:
            for child in self.children:
                self._spawn(child)
            self._loop(on_ready)
        finally:
            signal.set_wakeup_fd(wakeup)
            for sig, handler in handlers.items():
                signal.signal(sig, handler)
            self._drain()

    def _loop(self, on_ready: Callable[[], None]) -> None:
        announced = False
        while True:
            for key, _events in self._selector.select():
                if key.fileobj is self.listener:
                    self._accept()
                elif key.fileobj is self._wake_r:
                    signals = self._wake_r.recv(64)
                    if signal.SIGINT in signals or signal.SIGTERM in signals:
                        return
                else:
                    self._on_message(key.data)
            for child in self.children:
                if child.pid is None:
                    child.restarts += 1
                    self._spawn(child)
            if not announced and all(child.ready for child in self.children):
                announced = True
                on_ready()

    def _accept(self) -> None:
        """Hand one accepted connection to the next live child, round-robin."""
        try:
            conn, _address = self.listener.accept()
        except (BlockingIOError, ConnectionAbortedError):
            return
        with conn:  # the supervisor's copy closes once a child holds one
            for _ in range(len(self.children)):
                child = self.children[self._next]
                self._next = (self._next + 1) % len(self.children)
                if child.pid is None:
                    continue
                try:
                    _send(child.sock, ("conn",), [conn.fileno()])
                    return
                except (BrokenPipeError, ConnectionResetError):
                    self._lost(child)  # the child is gone: try the next one
                except OSError:
                    return  # e.g. ETOOMANYREFS: drop this connection, keep the child
        # No live child took it: the client sees the connection drop and resends.

    def _on_message(self, child: _Child) -> None:
        if child.pid is None:
            return  # lost earlier in this round of events
        received = _recv(child.sock)
        if received is None:
            self._lost(child)
            return
        message, _fds = received
        kind = message[0]
        if kind == "ready":
            child.ready, child.models = True, message[1]
        elif kind == "fleet":
            self._gather(child, req_id=message[1], with_stats=message[2])
        elif kind == "stats":
            gather_id, state = message[1], message[2]
            child.models = sorted(state)
            if gather_id in self._gathers:
                _asker, _req_id, waiting, states = self._gathers[gather_id]
                waiting.discard(child.index)
                states.append(state)
                self._answer_if_done(gather_id)

    def _gather(self, asker: _Child, req_id: int, with_stats: bool) -> None:
        """Answer a child's ``/stats`` or ``/healthz`` for the whole fleet."""
        live = [c for c in self.children if c.pid is not None] if with_stats else []
        gather_id = next(self._gather_ids)
        self._gathers[gather_id] = (asker, req_id, {c.index for c in live}, [])
        for child in live:
            _send_quietly(child.sock, ("stats", gather_id))
        self._answer_if_done(gather_id)

    def _answer_if_done(self, gather_id: int) -> None:
        asker, req_id, waiting, states = self._gathers[gather_id]
        if waiting:
            return
        del self._gathers[gather_id]
        _send_quietly(asker.sock, ("fleet", req_id, self._fleet_document(states)))

    def _fleet_document(self, states: List[Dict[str, dict]]) -> Dict:
        """The fleet-wide ``/stats`` document: per-child health plus the
        per-model sections of every child merged into one."""
        now = time.monotonic()
        by_model: Dict[str, List[dict]] = {}
        for state in states:
            for name, lane in state.items():
                by_model.setdefault(name, []).append(lane)
        return {
            "uptime_s": now - self._started,
            "max_batch_size": self.max_batch_size,
            "max_latency_ms": self.max_latency_ms,
            "workers_configured": len(self.children),
            "workers": [
                {
                    "index": child.index,
                    "pid": child.pid,
                    "alive": child.pid is not None,
                    "ready": child.ready,
                    "restarts": child.restarts,
                    "models": list(child.models),
                    "uptime_s": now - child.spawned if child.pid is not None else 0.0,
                }
                for child in self.children
            ],
            "models": {name: summarize(lanes) for name, lanes in sorted(by_model.items())},
        }

    # ------------------------------------------------------------------ #
    def _spawn(self, child: _Child) -> None:
        """Fork one full server into ``child``'s seat."""
        mine, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)

        def serve() -> None:
            mine.close()
            self._forget_inherited()
            # Looked up at call time, so a wrapper installed on the module
            # attribute runs in the child.
            worker_main(
                theirs, self.registry, self.models,
                self.max_batch_size, self.max_latency_ms,
            )

        pid = _fork(serve)
        theirs.close()
        child.pid, child.sock, child.spawned = pid, mine, time.monotonic()
        child.ready, child.models = False, []
        self._selector.register(mine, selectors.EVENT_READ, child)

    def _forget_inherited(self) -> None:
        """In a new child: close the supervisor's descriptors, reset its signals.

        A sibling's control socket left open here would hide the
        supervisor's death from that sibling, which waits for EOF.
        SIGINT is ignored because the supervisor drains its children.
        """
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        self._selector.close()
        self.listener.close()
        self._wake_r.close()
        self._wake_w.close()
        for other in self.children:
            if other.sock is not None:
                other.sock.close()

    def _lost(self, child: _Child) -> None:
        """Reap a dead or unreachable child; the loop forks its replacement."""
        if child.pid is None:
            return
        self._selector.unregister(child.sock)
        child.sock.close()
        _reap(child.pid, deadline=time.monotonic() + REAP_GRACE_S)
        child.pid, child.sock, child.ready = None, None, False
        for gather_id, (asker, _req_id, waiting, _states) in list(self._gathers.items()):
            if asker is child:
                del self._gathers[gather_id]
            elif child.index in waiting:
                waiting.discard(child.index)
                self._answer_if_done(gather_id)

    def _drain(self) -> None:
        """Stop accepting, let every child finish its in-flight requests, reap."""
        self._selector.close()
        self.listener.close()
        live = [child for child in self.children if child.pid is not None]
        for child in live:
            _send_quietly(child.sock, ("drain",))
        deadline = time.monotonic() + 2 * DRAIN_TIMEOUT_S
        for child in live:
            _reap(child.pid, deadline)
            child.sock.close()
            child.pid, child.sock, child.ready = None, None, False
        self._wake_r.close()
        self._wake_w.close()


# --------------------------------------------------------------------------- #
# Child
# --------------------------------------------------------------------------- #
class _Control:
    """A child's end of its control socket.

    Sends are serialized (handler threads and the main loop share the
    socket, and a long message spans several packets).  Handler threads
    ask the supervisor for the fleet document; the main loop delivers the
    answers.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._lock = threading.Lock()
        self._ids = count(1)
        self._pending: Dict[int, Future] = {}
        self._closed = False

    def send(self, message: tuple) -> None:
        with self._lock:
            _send(self.sock, message)

    def ask(self, with_stats: bool) -> Dict:
        """The supervisor's fleet document; raises :class:`ServerClosed`
        once the fleet is draining or the supervisor does not answer."""
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise ServerClosed("the fleet is shutting down")
            req_id = next(self._ids)
            self._pending[req_id] = future
            try:
                _send(self.sock, ("fleet", req_id, with_stats))
            except OSError as error:
                del self._pending[req_id]
                raise ServerClosed("the fleet supervisor is gone") from error
        try:
            return future.result(timeout=ASK_TIMEOUT_S)
        except TimeoutError as error:
            with self._lock:
                self._pending.pop(req_id, None)
            raise ServerClosed("the fleet supervisor did not answer") from error

    def answer(self, req_id: int, document: Dict) -> None:
        with self._lock:
            future = self._pending.pop(req_id, None)
        if future is not None:
            future.set_result(document)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pending, self._pending = self._pending, {}
        for future in pending.values():
            future.set_exception(ServerClosed("the fleet is shutting down"))


class _ChildServer(ModelServer):
    """A child's ModelServer; its ``/stats`` and ``/healthz`` speak for the fleet."""

    def __init__(self, registry: ModelRegistry, control: _Control, **knobs) -> None:
        super().__init__(registry, **knobs)
        self.control = control

    def lane_states(self) -> Dict[str, dict]:
        """Every open lane's raw stats, for the supervisor to merge."""
        with self._lock:
            lanes = dict(self._lanes)
        return {name: lane.stats.state() for name, lane in lanes.items()}

    def stats(self) -> Dict:
        return self.control.ask(with_stats=True)

    @property
    def ready(self) -> bool:
        """True while every child of the fleet is alive and has reported ready."""
        if self.closed:
            return False
        try:
            workers = self.control.ask(with_stats=False)["workers"]
        except ServerClosed:
            return False
        return all(w["alive"] and w["ready"] for w in workers)


class _HandedOffHTTPServer(ServingHTTPServer):
    """A child's HTTP server: it never listens; the supervisor hands it sockets.

    It tracks its open connections so a drain can end the idle keep-alive
    ones and wait for those with a request in flight.
    """

    def __init__(self, model_server: ModelServer) -> None:
        super().__init__(("", 0), model_server)
        self.socket.close()  # never bound: connections arrive by hand-off
        self._open: set = set()
        self._changed = threading.Condition()

    def server_bind(self) -> None:
        pass

    def server_activate(self) -> None:
        pass

    def serve_socket(self, conn: socket.socket) -> None:
        """Serve one handed-off connection on its own thread."""
        try:
            peer = conn.getpeername()
        except OSError:  # the client left before the hand-off
            peer = ("", 0)
        with self._changed:
            self._open.add(conn)
        self.process_request(conn, peer)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self._changed:
            self._open.discard(request)
            self._changed.notify_all()

    def drain(self, timeout_s: float) -> None:
        """End every connection after its in-flight request, or at the deadline.

        Shutting the read side makes an idle handler read EOF and exit; a
        handler with a request in flight still writes its reply first.
        """
        with self._changed:
            for conn in self._open:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
            self._changed.wait_for(lambda: not self._open, timeout_s)


def worker_main(
    sock: socket.socket,
    registry: ModelRegistry,
    models: Sequence[str],
    max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
    max_latency_ms: float = DEFAULT_MAX_LATENCY_MS,
) -> None:
    """One fleet child: a full single-process server fed handed-off sockets.

    Opens a lane per ``models`` name, reports ready, then serves until the
    supervisor says ``drain`` or goes away (EOF).  Returns after the drain;
    the fork site then exits the process.

    Example::

        worker_main(child_sock, registry, ["redwine/ours"])
    """
    control = _Control(sock)
    server = _ChildServer(
        registry, control, max_batch_size=max_batch_size, max_latency_ms=max_latency_ms
    )
    httpd = _HandedOffHTTPServer(server)
    try:
        for name in models:
            server.open_lane(name)
        control.send(("ready", sorted(server.lane_states())))
        while True:
            received = _recv(sock)
            if received is None:
                break  # the supervisor is gone: drain, never serve orphaned
            message, fds = received
            kind = message[0]
            if kind == "conn":
                for fd in fds:
                    httpd.serve_socket(socket.socket(fileno=fd))
            elif kind == "stats":
                control.send(("stats", message[1], server.lane_states()))
            elif kind == "fleet":
                control.answer(message[1], message[2])
            elif kind == "drain":
                break
    except ConnectionError:
        pass  # a send found the supervisor gone: drain as on EOF
    finally:
        control.close()
        httpd.drain(DRAIN_TIMEOUT_S)
        httpd.server_close()
        server.shutdown(drain=True)
        sock.close()


# --------------------------------------------------------------------------- #
# In-process start and stop (tests, benchmarks)
# --------------------------------------------------------------------------- #
def spawn_fleet(
    registry: ModelRegistry,
    models: Sequence[str],
    workers: int,
    host: str = "127.0.0.1",
    port: int = 0,
    **knobs,
) -> Tuple[int, str]:
    """Fork a :class:`Supervisor` serving ``models`` from ``workers`` children.

    For callers that hold hand-registered or freshly trained models in this
    process (tests, the serving benchmark); ``repro-serve --workers N`` runs
    the supervisor on its own main thread instead.  ``knobs`` are
    ``max_batch_size`` / ``max_latency_ms``.  Returns the supervisor's pid
    and the fleet's URL; poll ``HTTPClient(url).wait_ready()`` before use.

    Example::

        pid, url = spawn_fleet(registry, ["redwine/ours"], workers=2)
    """
    listener = socket.create_server((host, port))
    url = "http://%s:%d" % listener.getsockname()[:2]
    pid = _fork(lambda: Supervisor(registry, models, workers, listener, **knobs).run())
    listener.close()
    return pid, url


def stop_fleet(pid: int) -> int:
    """SIGTERM a :func:`spawn_fleet` supervisor and reap it; its exit code.

    The supervisor drains every child first, for at most twice
    :data:`DRAIN_TIMEOUT_S`; SIGKILL follows only if it outlives three times.
    """
    os.kill(pid, signal.SIGTERM)
    return _reap(pid, time.monotonic() + 3 * DRAIN_TIMEOUT_S)
