"""The worker plane: model lanes hosted in child processes.

One worker process owns a slice of the model fleet — its own
:class:`~repro.serve.registry.ModelRegistry` view plus, per hosted model,
the same :class:`~repro.serve.batching.MicroBatcher` lane the
single-process server uses (the worker literally embeds a ``workers=0``
:class:`~repro.serve.server.ModelServer`).  The frontend feeds it framed
requests over the :mod:`repro.serve.transport` protocol; micro-batching,
stats and drain semantics therefore stay *identical* to the in-process
path, which is what makes ``workers=0`` a bit-exact oracle for the fleet.

Two halves live here:

* :func:`worker_main` — the child process: a receive loop that validates
  and enqueues predict frames onto the model lanes (answers stream back as
  micro-batches complete, out of order, matched by request id), answers
  heartbeats/stats/metadata immediately, and opens cold lanes — which may
  train — on a dedicated thread so heartbeats stay responsive;
* :class:`WorkerHandle` — the parent's view of one worker: spawns the
  child (``fork`` server-style on POSIX), tracks in-flight requests,
  detects crashes via connection EOF and hands the pending requests back
  to the frontend for resubmission on the replacement worker.

Example::

    spec = WorkerSpec(max_batch_size=64, max_latency_ms=0.5)
    handle = WorkerHandle(registry, spec, index=0, on_death=lambda h, p: None)
    handle.call(MSG_CONTROL, ("ping", None)).result(timeout=5.0)
    handle.stop()
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.serve.batching import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_LATENCY_MS,
    BatcherClosed,
)
from repro.serve.transport import (
    ERROR_CLOSED,
    ERROR_INTERNAL,
    ERROR_VALUE,
    MSG_CONTROL,
    MSG_ERROR,
    MSG_REQUEST,
    MSG_RESPONSE,
    MSG_SHUTDOWN,
    FrameConnection,
    TransportError,
    WorkerCrashed,
    connection_pair,
)

#: Response shapes a predict frame may ask for.
REQUEST_MODES = ("single", "bulk", "ids", "ids_burst")


def _mp_context():
    """``fork`` where available (sockets and registries inherit for free)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker needs beyond its registry slice.

    Example::

        WorkerSpec(max_batch_size=256, max_latency_ms=0.0,
                   preopen=("redwine/ours",))
    """

    max_batch_size: int = DEFAULT_MAX_BATCH_SIZE
    max_latency_ms: float = DEFAULT_MAX_LATENCY_MS
    #: Model lanes opened (training/loading if cold) as the worker boots.
    preopen: Tuple[str, ...] = field(default_factory=tuple)


# --------------------------------------------------------------------------- #
# Child side
# --------------------------------------------------------------------------- #
class _ResponseAggregator:
    """Joins the per-row futures of one ``ids_burst`` frame into one answer.

    The burst enters the lane as independent single-sample requests (so it
    coalesces with concurrent traffic exactly like separate submits), but
    travels the wire as one frame each way.
    """

    def __init__(self, n_parts: int, done: Callable[[list, Optional[BaseException]], None]):
        self._parts: list = [None] * n_parts
        self._remaining = n_parts
        self._error: Optional[BaseException] = None
        self._lock = threading.Lock()
        self._done = done

    def collect(self, index: int, future: Future) -> None:
        error = future.exception()
        with self._lock:
            if error is not None and self._error is None:
                self._error = error
            if error is None:
                self._parts[index] = future.result()
            self._remaining -= 1
            finished = self._remaining == 0
        if finished:
            self._done(self._parts, self._error)


class _WorkerRuntime:
    """The receive loop and lane plumbing of one worker process."""

    def __init__(self, conn: FrameConnection, registry, spec: WorkerSpec) -> None:
        # Imported here, not at module top: server.py imports this module
        # for the parent-side handle, and the child only needs ModelServer
        # after the fork.
        from repro.serve.server import ModelServer

        self.conn = conn
        self.spec = spec
        self.inner = ModelServer(
            registry,
            max_batch_size=spec.max_batch_size,
            max_latency_ms=spec.max_latency_ms,
            workers=0,
        )
        #: Lanes known open — the request fast path skips the opener thread.
        self._open_lanes: Dict[str, object] = {}
        #: Single thread for anything that may train (cold lane opens), so
        #: the receive loop keeps answering heartbeats during long loads.
        self._opener = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="worker-open"
        )
        self._started = time.monotonic()

    # -- plumbing -------------------------------------------------------- #
    def _respond(self, req_id: int, payload) -> None:
        try:
            self.conn.send(MSG_RESPONSE, (req_id, payload))
        except OSError:
            pass  # parent is gone; the loop will notice on its next recv

    def _respond_error(self, req_id: int, error: BaseException) -> None:
        from repro.serve.server import ServerClosed

        if isinstance(error, ValueError):
            kind = ERROR_VALUE
        elif isinstance(error, (BatcherClosed, ServerClosed)):
            kind = ERROR_CLOSED
        else:
            kind = ERROR_INTERNAL
        try:
            self.conn.send(MSG_ERROR, (req_id, kind, f"{error}"))
        except OSError:
            pass

    def _lane(self, name: str):
        """Open (possibly training) and memoize one model lane."""
        lane = self.inner.lane(name)
        self._open_lanes[name] = lane
        return lane

    # -- request handling ------------------------------------------------ #
    def _handle_request(self, req_id: int, name: str, mode: str, rows) -> None:
        lane = self._open_lanes.get(name)
        if lane is not None:
            self._dispatch(req_id, lane, mode, rows)
        else:
            # Cold model: route through the opener thread so training never
            # stalls the receive loop (heartbeats keep flowing).
            self._opener.submit(self._dispatch_cold, req_id, name, mode, rows)

    def _dispatch_cold(self, req_id: int, name: str, mode: str, rows) -> None:
        try:
            lane = self._lane(name)
        except BaseException as error:  # unknown name, training failure, ...
            self._respond_error(req_id, error)
            return
        self._dispatch(req_id, lane, mode, rows)

    def _dispatch(self, req_id: int, lane, mode: str, rows) -> None:
        start = time.monotonic()
        try:
            rows = lane.model.validate_batch(rows)
            if mode == "single" and rows.shape[0] != 1:
                raise ValueError(
                    f"predict() serves exactly one sample, got {rows.shape[0]}; "
                    "use predict_many() for bulk requests"
                )
            if mode == "ids_burst":
                self._dispatch_burst(req_id, lane, rows, start)
                return
            future = lane.batcher.submit(rows)
        except BaseException as error:
            lane.stats.observe_error()
            self._respond_error(req_id, error)
            return
        future.add_done_callback(
            lambda f: self._finish(req_id, lane, mode, rows, start, f)
        )

    def _dispatch_burst(self, req_id: int, lane, rows, start: float) -> None:
        if rows.shape[0] == 0:
            self._respond(req_id, np.zeros(0, dtype=np.int64))
            return

        def done(parts, error):
            if error is not None:
                lane.stats.observe_error()
                self._respond_error(req_id, error)
                return
            lane.stats.observe_request(
                latency_s=time.monotonic() - start, n_samples=rows.shape[0]
            )
            self._respond(req_id, np.concatenate(parts, axis=0))

        aggregate = _ResponseAggregator(rows.shape[0], done)
        futures = lane.batcher.submit_many(
            [rows[i : i + 1] for i in range(rows.shape[0])]
        )
        for i, future in enumerate(futures):
            future.add_done_callback(lambda f, i=i: aggregate.collect(i, f))

    def _finish(self, req_id, lane, mode, rows, start, future: Future) -> None:
        """Micro-batch completion callback: shape the answer, send the frame."""
        error = future.exception()
        if error is not None:
            lane.stats.observe_error()
            self._respond_error(req_id, error)
            return
        ids = future.result()
        latency_s = time.monotonic() - start
        lane.stats.observe_request(latency_s=latency_s, n_samples=rows.shape[0])
        if mode == "ids":
            self._respond(req_id, ids)
        elif mode == "single":
            self._respond(
                req_id,
                {
                    "model": lane.model.name,
                    "class_id": int(ids[0]),
                    "prediction": lane.model.decode(ids)[0].item(),
                    "latency_ms": 1000.0 * latency_s,
                },
            )
        else:  # bulk
            self._respond(
                req_id,
                {
                    "model": lane.model.name,
                    "class_ids": [int(i) for i in ids],
                    "predictions": lane.model.decode(ids).tolist(),
                    "n_samples": int(rows.shape[0]),
                    "latency_ms": 1000.0 * latency_s,
                },
            )

    # -- control --------------------------------------------------------- #
    def _handle_control(self, req_id: int, op: str, arg) -> None:
        if op == "ping":
            self._respond(
                req_id,
                {"pid": os.getpid(), "uptime_s": time.monotonic() - self._started},
            )
        elif op == "stats":
            self._respond(req_id, self.inner.stats())
        elif op == "models":
            self._respond(req_id, self.inner.models())
        elif op == "open_lane":
            self._opener.submit(self._open_lane, req_id, arg)
        else:
            self._respond_error(req_id, ValueError(f"unknown control op {op!r}"))

    def _open_lane(self, req_id: int, name: str) -> None:
        try:
            lane = self._lane(name)
        except BaseException as error:
            self._respond_error(req_id, error)
            return
        self._respond(req_id, lane.model.metadata())

    # -- lifecycle ------------------------------------------------------- #
    def run(self) -> None:
        for name in self.spec.preopen:
            self._opener.submit(self._dispatch_cold_open, name)
        drain = False
        try:
            while True:
                try:
                    message = self.conn.recv()
                except TransportError:
                    message = None
                if message is None:
                    break  # parent died: fail fast, don't orphan-serve
                kind, body = message
                if kind == MSG_REQUEST:
                    self._handle_request(*body)
                elif kind == MSG_CONTROL:
                    self._handle_control(*body)
                elif kind == MSG_SHUTDOWN:
                    drain = bool(body[0])
                    break
        finally:
            self._opener.shutdown(wait=drain, cancel_futures=not drain)
            self.inner.shutdown(drain=drain)
            self.conn.close()

    def _dispatch_cold_open(self, name: str) -> None:
        try:
            self._lane(name)
        except Exception:
            # A bad preopen name surfaces on the first request instead.
            pass


def worker_main(child_sock: socket.socket, registry, spec: WorkerSpec,
                close_fds: Iterable[int] = ()) -> None:
    """Child-process entry point (run via ``multiprocessing.Process``).

    ``close_fds`` are parent-side descriptors this child inherited over the
    fork: they are closed first so a sibling worker's death is visible to
    the frontend as EOF (an inherited duplicate would keep the socket open).

    Example::

        worker_main(child_sock, registry, WorkerSpec(preopen=("redwine/ours",)))
    """
    own = child_sock.fileno()
    for fd in close_fds:
        if fd == own:
            continue  # a recycled number could alias our own socket
        try:
            os.close(fd)
        except OSError:
            pass
    _WorkerRuntime(FrameConnection(child_sock), registry, spec).run()


# --------------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------------- #
class _Pending:
    """One in-flight call: its future plus what a restart must resend."""

    __slots__ = ("future", "kind", "payload", "retries")

    def __init__(self, future: Future, kind: int, payload) -> None:
        self.future = future
        self.kind = kind
        self.payload = payload  # None = not resubmittable (control calls)
        self.retries = 0  # crashes survived; bounds poison-request replays


class WorkerHandle:
    """The frontend's view of one live worker process.

    Owns the framed connection, the reader thread that matches responses to
    futures by request id, and crash detection: when the connection reaches
    EOF (worker exited or was killed) every pending call is handed to the
    ``on_death`` callback, which the frontend uses to restart the worker
    and resubmit the idempotent predict requests — callers' futures resolve
    as if nothing happened.

    Example::

        handle = WorkerHandle(registry, WorkerSpec(), index=0,
                              on_death=server._worker_died)
        future = handle.call(MSG_REQUEST, ("redwine/ours", "ids", rows),
                             resubmit=True)
        future.result()
    """

    def __init__(
        self,
        registry,
        spec: WorkerSpec,
        index: int,
        on_death: Callable[["WorkerHandle", Dict[int, _Pending]], None],
        sibling_conns: Iterable[FrameConnection] = (),
    ) -> None:
        self.index = index
        self.spec = spec
        self.on_death = on_death
        self.ready = False
        self.last_pong: Optional[float] = None
        self.draining = False
        self._dead = False
        self._lock = threading.Lock()
        self._pending: Dict[int, _Pending] = {}
        self._req_ids = count(1)

        ctx = _mp_context()
        self.conn, child_sock = connection_pair()
        if ctx.get_start_method() == "fork":
            # Parent-side fds the child inherits over the fork and must close
            # so a sibling's death is visible as EOF.  Filenos are resolved
            # at the last moment — conns closed since the caller collected
            # them report -1 and drop out.
            fds = {conn.fileno for conn in sibling_conns} | {self.conn.fileno}
            fds = tuple(fd for fd in fds if fd >= 0)
        else:  # spawn pickles fresh sockets; inherited-fd hygiene is moot
            fds = ()
        self.process = ctx.Process(
            target=worker_main,
            args=(child_sock, registry, spec, fds),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_sock.close()
        self.pid = self.process.pid
        self.spawned = time.monotonic()
        self._reader = threading.Thread(
            target=self._read_loop, name=f"worker-reader-{index}", daemon=True
        )
        self._reader.start()

    # ------------------------------------------------------------------ #
    @property
    def alive(self) -> bool:
        return not self._dead and self.process.is_alive()

    def call(self, kind: int, payload: tuple, *, resubmit: bool = False) -> Future:
        """Send one framed call; returns the future its response resolves.

        ``resubmit=True`` marks the call safe to replay on a replacement
        worker (predict requests: pure functions of their rows).  A call on
        a dead handle raises :class:`WorkerCrashed` immediately so the
        router can retry on the replacement.
        """
        future: Future = Future()
        with self._lock:
            if self._dead:
                raise WorkerCrashed(f"worker {self.index} (pid {self.pid}) is down")
            req_id = next(self._req_ids)
            self._pending[req_id] = _Pending(
                future, kind, payload if resubmit else None
            )
        try:
            self.conn.send(kind, (req_id,) + payload)
        except OSError:
            # The reader may not have observed the EOF yet; force the death
            # path so this call is resubmitted (or failed) exactly once.
            self._mark_dead()
        return future

    def resubmit(self, pending: _Pending) -> None:
        """Re-send one pending call from a dead sibling onto this worker.

        The caller's future rides along untouched: it resolves when the
        replayed request completes here (or is handed on again if this
        worker dies too).
        """
        with self._lock:
            if self._dead:
                raise WorkerCrashed(f"worker {self.index} (pid {self.pid}) is down")
            new_id = next(self._req_ids)
            self._pending[new_id] = pending
        try:
            self.conn.send(pending.kind, (new_id,) + pending.payload)
        except OSError:
            self._mark_dead()

    def ping(self) -> Future:
        """Heartbeat; the response marks the handle ready and stamps the pong."""
        future = self.call(MSG_CONTROL, ("ping", None))
        future.add_done_callback(self._note_pong)
        return future

    def _note_pong(self, future: Future) -> None:
        if future.exception() is None:
            self.ready = True
            self.last_pong = time.monotonic()

    # ------------------------------------------------------------------ #
    def _read_loop(self) -> None:
        try:
            while True:
                message = self.conn.recv()
                if message is None:
                    break
                kind, body = message
                if kind == MSG_RESPONSE:
                    req_id, payload = body
                    pending = self._take(req_id)
                    if pending is not None and not pending.future.done():
                        self.ready = True
                        pending.future.set_result(payload)
                elif kind == MSG_ERROR:
                    req_id, error_kind, text = body
                    pending = self._take(req_id)
                    if pending is not None and not pending.future.done():
                        pending.future.set_exception(
                            _error_to_exception(error_kind, text)
                        )
        except (TransportError, OSError):
            pass
        self._mark_dead()

    def _take(self, req_id: int) -> Optional[_Pending]:
        with self._lock:
            return self._pending.pop(req_id, None)

    def _mark_dead(self) -> None:
        with self._lock:
            if self._dead:
                return
            self._dead = True
            pending, self._pending = self._pending, {}
        self.conn.close()
        self.on_death(self, pending)

    # ------------------------------------------------------------------ #
    def shutdown(self, drain: bool = True) -> None:
        """Ask the worker to drain (or fail fast) and exit; non-blocking."""
        self.draining = True
        try:
            self.conn.send(MSG_SHUTDOWN, (drain,))
        except OSError:
            pass

    def join(self, timeout: Optional[float] = None) -> bool:
        self.process.join(timeout=timeout)
        return not self.process.is_alive()

    def stop(self, timeout: float = 5.0) -> None:
        """Drain, then escalate to SIGTERM/SIGKILL if the worker lingers."""
        self.shutdown(drain=True)
        if not self.join(timeout=timeout):
            self.process.terminate()
            if not self.join(timeout=1.0):
                self.process.kill()
                self.join(timeout=1.0)
        self.conn.close()


def _error_to_exception(kind: str, text: str) -> BaseException:
    """Map a wire error kind back to the exception the caller expects."""
    from repro.serve.server import ServerClosed

    if kind == ERROR_VALUE:
        return ValueError(text)
    if kind == ERROR_CLOSED:
        return ServerClosed(text)
    return RuntimeError(text)
