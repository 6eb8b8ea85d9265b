"""Pooled flow workers: child processes that train jobs over the frame wire.

The job scheduler (:mod:`repro.jobs.scheduler`) does not run flows in its
own process — it dispatches them to a small pool of forked workers speaking
the PR 7 frame protocol (:mod:`repro.serve.transport`).  This module holds
both halves:

* :func:`flow_worker_main` — the child: a synchronous receive loop that
  answers ``ping`` control frames immediately and runs one flow job per
  ``MSG_REQUEST`` frame (consulting the in-process and on-disk flow caches
  read-only; the *scheduler* persists results, so the disk cache never has
  concurrent writers);
* :class:`FlowWorker` — the scheduler's handle: spawn, synchronous
  call-with-timeout, heartbeat, kill, graceful stop.

Crash semantics are the transport's own: a worker SIGKILLed mid-job
surfaces as EOF/torn-frame/timeout on the scheduler side and raises
:class:`~repro.serve.transport.WorkerCrashed` — retryable.  An error the
worker *reports* (bad spec, deterministic training failure) arrives as an
``MSG_ERROR`` frame and raises :class:`JobRejected` — permanent, because
retrying a deterministic failure can only fail the same way.

Fd hygiene matters: each child closes the parent-side descriptors it
inherited for its *siblings*, so that when the scheduler dies (even by
SIGKILL) every worker sees EOF on its own connection and exits instead of
orphan-training forever.

Example::

    worker = FlowWorker(index=0, cache_dir="/tmp/cache")
    worker.ping(timeout=5.0)
    result, source = worker.call(spec.to_json(), timeout=300.0)
    worker.stop()
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import time
from itertools import count
from typing import Callable, Iterable, Optional, Tuple

from repro.core.design_flow import FlowResult, cached_flow_result, run_flow
from repro.core.flow_executor import FlowResultCache
from repro.jobs.manifest import JobSpec
from repro.serve.transport import (
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


def _mp_context():
    """``fork`` where available (sockets and caches inherit for free)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


#: ``source`` values a worker reports with each finished job.
SOURCE_TRAINED = "trained"
SOURCE_CACHE = "cache"


class JobRejected(RuntimeError):
    """The worker ran the job and reported a deterministic failure.

    Not retryable: the same spec will fail the same way on any worker.

    Example::

        try:
            worker.call(bad_spec_doc, timeout=30.0)
        except JobRejected:
            ...  # journal the job as permanently failed
    """


# --------------------------------------------------------------------------- #
# Child side
# --------------------------------------------------------------------------- #
def _run_job(spec: JobSpec, disk: Optional[FlowResultCache]) -> Tuple[FlowResult, str]:
    """Run one job in the worker, cheapest layer first (caches read-only)."""
    result = cached_flow_result(spec.dataset, spec.kind, spec.config)
    if result is not None:
        return result, SOURCE_CACHE
    if disk is not None:
        result = disk.load(spec.dataset, spec.kind, spec.config)
        if result is not None:
            return result, SOURCE_CACHE
    return run_flow(spec.dataset, spec.kind, spec.config), SOURCE_TRAINED


def flow_worker_main(
    child_sock: socket.socket,
    cache_dir: Optional[str],
    close_fds: Iterable[int] = (),
) -> None:
    """Child-process entry point: one synchronous job loop over the wire.

    ``close_fds`` are parent-side descriptors inherited over the fork (the
    scheduler's ends of sibling workers' sockets); closing them keeps a
    sibling's — and the scheduler's — death visible as EOF.

    Example::

        flow_worker_main(child_sock, cache_dir=None)
    """
    own = child_sock.fileno()
    for fd in close_fds:
        if fd == own:
            continue  # a recycled number could alias our own socket
        try:
            os.close(fd)
        except OSError:
            pass
    disk = FlowResultCache(cache_dir) if cache_dir is not None else None
    conn = FrameConnection(child_sock)
    try:
        while True:
            try:
                message = conn.recv()
            except TransportError:
                break
            if message is None:
                break  # scheduler gone (EOF): exit, never orphan-train
            kind, body = message
            if kind == MSG_SHUTDOWN:
                break
            if kind == MSG_CONTROL:
                req_id, op, _arg = body
                if op == "ping":
                    _safe_send(conn, MSG_RESPONSE, (req_id, {"pid": os.getpid()}))
                else:
                    _safe_send(
                        conn,
                        MSG_ERROR,
                        (req_id, ERROR_VALUE, f"unknown control op {op!r}"),
                    )
            elif kind == MSG_REQUEST:
                req_id, job_doc = body
                try:
                    spec = JobSpec.from_json(job_doc)
                    result, source = _run_job(spec, disk)
                except (KeyError, TypeError, ValueError) as error:
                    _safe_send(conn, MSG_ERROR, (req_id, ERROR_VALUE, f"{error}"))
                except Exception as error:
                    _safe_send(conn, MSG_ERROR, (req_id, ERROR_INTERNAL, f"{error}"))
                else:
                    _safe_send(conn, MSG_RESPONSE, (req_id, (result, source)))
    finally:
        conn.close()


def _safe_send(conn: FrameConnection, kind: int, body) -> None:
    """Send, swallowing a dead-parent ``OSError`` (the loop exits on recv)."""
    try:
        conn.send(kind, body)
    except OSError:
        pass


# --------------------------------------------------------------------------- #
# Scheduler side
# --------------------------------------------------------------------------- #
#: Signature of the chaos seam: wraps a freshly spawned worker's connection
#: (see ``tests/jobs/chaos.py``'s ``FaultyConnection``).
ConnectionWrapper = Callable[[FrameConnection, object], FrameConnection]


class FlowWorker:
    """The scheduler's handle on one flow-worker process.

    Calls are *synchronous* — the scheduler runs one dedicated thread per
    worker, so there is no reader thread or future plumbing here; a call
    sends one frame and blocks (under ``timeout``) for the matching
    response.  A timeout poisons the stream (part of a frame may have been
    consumed), so the handle must then be killed, never reused — the
    scheduler does exactly that.

    Example::

        worker = FlowWorker(index=0, cache_dir=None)
        worker.ping(timeout=5.0)["pid"] == worker.pid
        worker.stop()
    """

    def __init__(
        self,
        index: int,
        cache_dir: Optional[str],
        sibling_conns: Iterable[FrameConnection] = (),
        connection_wrapper: Optional[ConnectionWrapper] = None,
    ) -> None:
        self.index = index
        self._req_ids = count(1)
        ctx = _mp_context()
        self.conn, child_sock = connection_pair()
        if ctx.get_start_method() == "fork":
            fds = {conn.fileno for conn in sibling_conns} | {self.conn.fileno}
            fds = tuple(fd for fd in fds if fd >= 0)
        else:  # spawn pickles fresh sockets; inherited-fd hygiene is moot
            fds = ()
        self.process = ctx.Process(
            target=flow_worker_main,
            args=(child_sock, cache_dir, fds),
            name=f"repro-jobs-worker-{index}",
            daemon=True,
        )
        self.process.start()
        child_sock.close()
        self.pid = self.process.pid
        if connection_wrapper is not None:
            self.conn = connection_wrapper(self.conn, self.process)

    # ------------------------------------------------------------------ #
    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def _roundtrip(self, kind: int, body: tuple, timeout: Optional[float]):
        """One framed request/response under a deadline; crash-ish -> raise."""
        req_id = next(self._req_ids)
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            self.conn.set_timeout(timeout)
            self.conn.send(kind, (req_id,) + body)
            while True:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise socket.timeout("job deadline elapsed")
                    self.conn.set_timeout(remaining)
                message = self.conn.recv()
                if message is None:
                    raise WorkerCrashed(
                        f"flow worker {self.index} (pid {self.pid}) closed "
                        "its connection"
                    )
                msg_kind, payload = message
                if msg_kind == MSG_RESPONSE:
                    resp_id, value = payload
                    if resp_id == req_id:
                        return value
                elif msg_kind == MSG_ERROR:
                    resp_id, error_kind, text = payload
                    if resp_id == req_id:
                        raise JobRejected(f"[{error_kind}] {text}")
                # Stale ids (shouldn't happen on a synchronous stream) are
                # skipped rather than trusted.
        except (TransportError, OSError) as error:
            raise WorkerCrashed(
                f"flow worker {self.index} (pid {self.pid}) died mid-call: "
                f"{error}"
            )

    def call(self, job_doc: dict, timeout: Optional[float]) -> Tuple[FlowResult, str]:
        """Run one job on this worker; returns ``(result, source)``.

        Raises :class:`WorkerCrashed` for crash/timeout/torn-frame (kill
        this handle and retry the job elsewhere) and :class:`JobRejected`
        for worker-reported failures (permanent).
        """
        return self._roundtrip(MSG_REQUEST, (job_doc,), timeout)

    def ping(self, timeout: Optional[float]) -> dict:
        """Heartbeat; a delayed or lost pong raises :class:`WorkerCrashed`."""
        return self._roundtrip(MSG_CONTROL, ("ping", None), timeout)

    # ------------------------------------------------------------------ #
    def kill(self) -> None:
        """SIGKILL the worker and close the (possibly poisoned) connection."""
        try:
            self.process.kill()
        except Exception:
            pass
        self.process.join(timeout=5.0)
        self.conn.close()

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful exit: shutdown frame, join, escalate only if it lingers."""
        try:
            self.conn.send(MSG_SHUTDOWN, (False,))
        except OSError:
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=1.0)
        self.conn.close()
