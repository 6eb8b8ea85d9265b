"""The request-facing serving core: one ModelServer, in-process or fleet.

A :class:`ModelServer` serves every loaded model behind one API, in one of
two modes selected by ``workers``:

* ``workers=0`` (the oracle) — the original single-process layout: per
  model one :class:`~repro.serve.batching.MicroBatcher` lane feeding the
  vectorized ``run_batch`` kernel, plus one
  :class:`~repro.serve.stats.StatsRecorder`, all inside this process.
* ``workers=N`` — the frontend/worker split: ``N`` child processes (see
  :mod:`repro.serve.worker`) each host a slice of the model lanes, fed
  over the length-prefixed :mod:`repro.serve.transport` protocol.  This
  class becomes a thin router — model -> worker assignment (capped by
  ``lanes_per_worker``), heartbeat health checks, crash detection with
  automatic restart and transparent resubmission of in-flight predict
  requests, fleet-wide ``/stats`` aggregation, and graceful drain.

Both modes are bit-identical: a worker embeds a ``workers=0`` server, so
the fleet runs exactly the oracle's kernels.

Example::

    server = ModelServer(ModelRegistry(config=fast_config()), workers=4)
    server.open_lane("redwine/ours")
    out = server.predict("redwine/ours", [0.5] * 11)   # 11 redwine features
    server.stats()["workers"][0]["alive"]
    server.shutdown()          # graceful: drains in-flight requests
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.serve.batching import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_LATENCY_MS,
    BatcherClosed,
    MicroBatcher,
)
from repro.serve.model import ServedModel, as_feature_array
from repro.serve.registry import ModelRegistry
from repro.serve.stats import StatsRecorder
from repro.serve.transport import MSG_CONTROL, MSG_REQUEST, WorkerCrashed
from repro.serve.worker import WorkerHandle, WorkerSpec, _Pending

#: How often the frontend heartbeats its workers (seconds).
DEFAULT_HEARTBEAT_INTERVAL_S = 2.0
#: Silence (no pong) after which a live-but-hung worker is killed+restarted.
DEFAULT_HEARTBEAT_TIMEOUT_S = 30.0
#: How many times one in-flight request survives worker crashes before its
#: future fails (bounds a poison request that kills every host it visits).
MAX_REQUEST_RETRIES = 3


class ServerClosed(RuntimeError):
    """Raised for requests submitted after :meth:`ModelServer.shutdown`.

    Example::

        server.shutdown()
        try:
            server.predict(name, features)
        except ServerClosed:
            ...  # the HTTP layer maps this to a 503 response
    """


class _ModelLane:
    """Everything one served model owns inside the server (batcher + stats)."""

    def __init__(self, model: ServedModel, max_batch_size: int, max_latency_ms: float):
        self.model = model
        self.stats = StatsRecorder(max_batch_size=max_batch_size)
        self.batcher = MicroBatcher(
            # Rows are validated at submit time; the worker runs the
            # unvalidated kernel straight onto run_batch.
            fn=model.kernel,
            max_batch_size=max_batch_size,
            max_latency_ms=max_latency_ms,
            on_batch=self.stats.observe_batch,
            name=model.name,
        )


class _WorkerSlot:
    """One seat in the worker fleet: the live handle plus its assignment.

    The handle changes identity across restarts; the slot is the stable
    object routing and bookkeeping hang off.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.handle: Optional[WorkerHandle] = None
        self.models: set = set()
        self.restarts = 0
        # Re-entrant: spawning a replacement pings it, and a ping that hits
        # a just-dead pipe re-enters the death handler on this same slot.
        self.lock = threading.RLock()
        #: Signalled when a replacement handle is installed after a crash.
        self.replaced = threading.Condition(self.lock)


class ModelServer:
    """Batch inference server over the vectorized design simulators.

    Parameters
    ----------
    registry:
        Resolves model names to loaded designs (see
        :class:`~repro.serve.registry.ModelRegistry`).
    max_batch_size / max_latency_ms:
        Micro-batching knobs applied to every model lane (see
        :class:`~repro.serve.batching.MicroBatcher`).
    workers:
        ``0`` serves every lane in this process (the bit-exact oracle);
        ``N >= 1`` forks ``N`` worker processes and routes each model to
        exactly one of them.
    lanes_per_worker:
        Soft cap on models per worker: new models go to the least-loaded
        worker under the cap, falling back to the least-loaded overall once
        every worker is full (``None`` = least-loaded always).
    heartbeat_interval_s / heartbeat_timeout_s:
        Fleet health checks: ping cadence, and the silence after which a
        live-but-unresponsive worker is killed and restarted.
    restart_workers:
        When ``True`` (default) a dead worker is replaced and its in-flight
        predict requests are resubmitted on the replacement (at most
        :data:`MAX_REQUEST_RETRIES` times each); ``False`` fails them.

    Example::

        registry = ModelRegistry(config=fast_config())
        with ModelServer(registry, workers=4, lanes_per_worker=1) as server:
            single = server.predict("redwine/ours", x)          # one sample
            bulk = server.predict_many("redwine/ours", X_test)  # micro-batched
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        max_latency_ms: float = DEFAULT_MAX_LATENCY_MS,
        workers: int = 0,
        lanes_per_worker: Optional[int] = None,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        restart_workers: bool = True,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if lanes_per_worker is not None and lanes_per_worker < 1:
            raise ValueError("lanes_per_worker must be >= 1 (or None)")
        self.registry = registry
        self.max_batch_size = int(max_batch_size)
        self.max_latency_ms = float(max_latency_ms)
        self.workers = int(workers)
        self.lanes_per_worker = lanes_per_worker
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.restart_workers = bool(restart_workers)
        self._lock = threading.Lock()
        self._lanes: Dict[str, _ModelLane] = {}
        self._closed = False
        self._started = time.monotonic()

        self._slots: List[_WorkerSlot] = []
        self._routes: Dict[str, _WorkerSlot] = {}
        self._route_lock = threading.Lock()
        self._monitor_stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        if self.workers:
            self._slots = [_WorkerSlot(i) for i in range(self.workers)]
            for slot in self._slots:
                with slot.lock:
                    self._spawn_locked(slot)
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="worker-monitor", daemon=True
            )
            self._monitor.start()

    # ------------------------------------------------------------------ #
    # Model management (workers=0 path)
    # ------------------------------------------------------------------ #
    def lane(self, name: str) -> _ModelLane:
        """The (batcher, stats) lane of one model, created on first use.

        In-process mode only; with ``workers >= 1`` the lanes live in the
        worker processes — use :meth:`open_lane`.
        """
        if self.workers:
            raise RuntimeError(
                "lane() is the in-process path; with workers >= 1 model lanes "
                "live in the worker processes (use open_lane())"
            )
        # Fast path: dict reads are atomic under the GIL, so the per-request
        # route needs no lock once the lane exists.
        existing = self._lanes.get(name)
        if existing is not None:
            if self._closed:
                raise ServerClosed("model server is shut down")
            return existing
        with self._lock:
            if self._closed:
                raise ServerClosed("model server is shut down")
        model = self.registry.get(name)  # may train; keep outside the lock
        with self._lock:
            if self._closed:
                raise ServerClosed("model server is shut down")
            lane = self._lanes.get(name)
            if lane is None:
                # Built under the lock: a lane starts a worker thread, so a
                # lost setdefault race would leak a live batcher forever.
                lane = _ModelLane(model, self.max_batch_size, self.max_latency_ms)
                self._lanes[name] = lane
            return lane

    def open_lane(self, name: str) -> None:
        """Ensure ``name`` is served (training/loading it if cold), any mode.

        In-process this opens the lane here; in fleet mode the model is
        routed to a worker and its lane opens there.  Unknown names raise
        ``ValueError`` either way.
        """
        if not self.workers:
            self.lane(name)
            return
        self._ensure_routed(name)

    def models(self) -> List[Dict[str, object]]:
        """Metadata of every currently loaded model (``/models`` route)."""
        if not self.workers:
            with self._lock:
                lanes = list(self._lanes.values())
            return [lane.model.metadata() for lane in lanes]
        merged: List[Dict[str, object]] = []
        for slot in self._slots:
            try:
                future = self._slot_call(
                    slot, MSG_CONTROL, ("models", None), resubmit=True
                )
                merged.extend(future.result(timeout=30.0))
            except Exception:
                continue  # dead worker mid-restart: its models reappear after
        return merged

    # ------------------------------------------------------------------ #
    # Fleet plumbing
    # ------------------------------------------------------------------ #
    def _spawn_locked(self, slot: _WorkerSlot, preopen: Sequence[str] = ()) -> WorkerHandle:
        """Start one worker in ``slot`` (slot.lock held by the caller)."""
        siblings = [
            s.handle.conn
            for s in self._slots
            if s.handle is not None and s is not slot and s.handle.alive
        ]
        spec = WorkerSpec(
            max_batch_size=self.max_batch_size,
            max_latency_ms=self.max_latency_ms,
            preopen=tuple(preopen),
        )
        handle = WorkerHandle(
            self.registry,
            spec,
            index=slot.index,
            on_death=self._worker_died,
            sibling_conns=siblings,
        )
        slot.handle = handle
        handle.ping()
        return handle

    def _worker_died(self, handle: WorkerHandle, pending: Dict[int, _Pending]) -> None:
        """Crash path: restart the worker, resubmit its in-flight requests."""
        slot = self._slots[handle.index]
        replacement: Optional[WorkerHandle] = None
        with slot.lock:
            if slot.handle is handle:
                if not (self._closed or handle.draining or not self.restart_workers):
                    slot.restarts += 1
                    replacement = self._spawn_locked(slot, preopen=sorted(slot.models))
                    slot.replaced.notify_all()
            else:
                replacement = slot.handle  # already replaced by another path
        for pending_call in pending.values():
            future = pending_call.future
            if future.done():
                continue
            pending_call.retries += 1
            if (
                replacement is not None
                and pending_call.payload is not None
                and pending_call.retries <= MAX_REQUEST_RETRIES
            ):
                try:
                    replacement.resubmit(pending_call)
                    continue
                except WorkerCrashed:
                    pass  # replacement died instantly; fall through to fail
            if self._closed:
                future.set_exception(ServerClosed("model server is shut down"))
            else:
                future.set_exception(
                    WorkerCrashed(
                        f"worker {handle.index} (pid {handle.pid}) died before "
                        "answering"
                    )
                )

    def _slot_call(
        self, slot: _WorkerSlot, kind: int, payload: tuple, *, resubmit: bool
    ) -> Future:
        """Send one call to a slot's current worker, riding out restarts."""
        deadline = time.monotonic() + max(self.heartbeat_timeout_s, 5.0)
        while True:
            if self._closed:
                raise ServerClosed("model server is shut down")
            with slot.lock:
                handle = slot.handle
                if handle is None or not handle.alive:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise WorkerCrashed(
                            f"worker {slot.index} has no live replacement"
                        )
                    slot.replaced.wait(timeout=min(remaining, 0.25))
                    continue
            try:
                return handle.call(kind, payload, resubmit=resubmit)
            except WorkerCrashed:
                if time.monotonic() >= deadline:
                    raise
                # The death handler is installing a replacement; retry on it.

    def _ensure_routed(self, name: str) -> _WorkerSlot:
        """Model -> worker assignment, created (and lane-opened) on first use."""
        with self._route_lock:
            slot = self._routes.get(name)
        if slot is not None:
            if self._closed:
                raise ServerClosed("model server is shut down")
            return slot
        with self._route_lock:
            slot = self._routes.get(name)
            if slot is None:
                slot = self._pick_slot()
                slot.models.add(name)
                self._routes[name] = slot
                fresh = True
            else:
                fresh = False
        if fresh:
            try:
                # Synchronous open: unknown names fail here, not per-request,
                # mirroring lane()'s semantics.  Idempotent, so a worker crash
                # mid-open resubmits transparently.
                future = self._slot_call(
                    slot, MSG_CONTROL, ("open_lane", name), resubmit=True
                )
                future.result()
            except ValueError:
                with self._route_lock:
                    self._routes.pop(name, None)
                    slot.models.discard(name)
                raise
        return slot

    def _pick_slot(self) -> _WorkerSlot:
        """Least-loaded worker, preferring those under ``lanes_per_worker``."""
        ordered = sorted(self._slots, key=lambda s: (len(s.models), s.index))
        if self.lanes_per_worker is not None:
            under_cap = [s for s in ordered if len(s.models) < self.lanes_per_worker]
            if under_cap:
                return under_cap[0]
        return ordered[0]

    def _monitor_loop(self) -> None:
        """Heartbeat every worker; kill-and-restart the hung, reap the dead."""
        while not self._monitor_stop.wait(self.heartbeat_interval_s):
            for slot in self._slots:
                with slot.lock:
                    handle = slot.handle
                if handle is None or handle.draining or self._closed:
                    continue
                if not handle.process.is_alive():
                    # The reader sees EOF first in almost every case; this is
                    # the backstop for exotic deaths that leak the socket.
                    handle._mark_dead()
                    continue
                try:
                    handle.ping()
                except WorkerCrashed:
                    continue
                silent_since = handle.last_pong or handle.spawned
                if time.monotonic() - silent_since > self.heartbeat_timeout_s:
                    handle.process.kill()  # EOF -> _worker_died -> restart

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def submit(self, name: str, X: Union[Sequence, np.ndarray]) -> "Future":
        """Enqueue a request; returns a future resolving to class ids.

        In-process the request is validated *before* it enters the queue;
        in fleet mode validation happens on the worker, so shape errors
        surface on the future instead.  Either way the request coalesces
        with whatever else is in flight for the same model.
        """
        if self.workers:
            slot = self._ensure_routed(name)
            rows = as_feature_array(X)
            return self._slot_call(
                slot, MSG_REQUEST, (name, "ids", rows), resubmit=True
            )
        lane = self.lane(name)
        rows = lane.model.validate_batch(X)
        try:
            return lane.batcher.submit(rows)
        except BatcherClosed as error:
            raise ServerClosed(str(error)) from error

    def submit_many(self, name: str, X: Union[Sequence, np.ndarray]) -> List["Future"]:
        """Enqueue every row of ``X`` as its own single-sample request.

        The burst-offering path: one future per row, with bookkeeping (and,
        in fleet mode, the wire frame) amortized over the burst.  Each row
        is coalesced by the owning lane's micro-batcher exactly like a
        separate :meth:`submit` call.
        """
        if self.workers:
            slot = self._ensure_routed(name)
            rows = as_feature_array(X)
            if rows.ndim == 1:
                rows = rows.reshape(1, -1) if rows.size else rows.reshape(0, 0)
            aggregate = self._slot_call(
                slot, MSG_REQUEST, (name, "ids_burst", rows), resubmit=True
            )
            futures: List[Future] = [Future() for _ in range(rows.shape[0])]

            def fan_out(done: Future) -> None:
                error = done.exception()
                for i, future in enumerate(futures):
                    if future.done():
                        continue
                    if error is not None:
                        future.set_exception(error)
                    else:
                        future.set_result(done.result()[i : i + 1])

            aggregate.add_done_callback(fan_out)
            return futures
        lane = self.lane(name)
        rows = lane.model.validate_batch(X)
        try:
            return lane.batcher.submit_many(
                [rows[i : i + 1] for i in range(rows.shape[0])]
            )
        except BatcherClosed as error:
            raise ServerClosed(str(error)) from error

    def predict(self, name: str, features: Union[Sequence, np.ndarray]) -> Dict:
        """Synchronous single-sample predict (the ``/predict`` route body).

        Returns a JSON-ready dict with the decoded label, the raw class id
        and the served latency.  Bit-identical to the design's ``run_batch``
        in both modes: the lane runs exactly that kernel.
        """
        start = time.monotonic()
        if self.workers:
            slot = self._ensure_routed(name)
            rows = as_feature_array(features)
            future = self._slot_call(
                slot, MSG_REQUEST, (name, "single", rows), resubmit=True
            )
            result = dict(future.result())
            result["latency_ms"] = 1000.0 * (time.monotonic() - start)
            return result
        lane = self.lane(name)
        rows = lane.model.validate_batch(features)
        if rows.shape[0] != 1:
            raise ValueError(
                f"predict() serves exactly one sample, got {rows.shape[0]}; "
                "use predict_many() for bulk requests"
            )
        ids = self._resolve(lane, rows, start)
        return {
            "model": name,
            "class_id": int(ids[0]),
            "prediction": lane.model.decode(ids)[0].item(),
            "latency_ms": 1000.0 * (time.monotonic() - start),
        }

    def predict_many(self, name: str, X: Union[Sequence, np.ndarray]) -> Dict:
        """Synchronous bulk predict (the ``/predict`` route, ``batch`` key).

        The whole request enters the owning lane's micro-batching queue as
        one unit: oversized requests are split across consecutive
        micro-batches and reassembled, small ones coalesce with concurrent
        traffic.  An empty batch is answered immediately with empty arrays.
        """
        start = time.monotonic()
        if self.workers:
            slot = self._ensure_routed(name)
            rows = as_feature_array(X)
            future = self._slot_call(
                slot, MSG_REQUEST, (name, "bulk", rows), resubmit=True
            )
            result = dict(future.result())
            result["latency_ms"] = 1000.0 * (time.monotonic() - start)
            return result
        lane = self.lane(name)
        rows = lane.model.validate_batch(X)
        ids = self._resolve(lane, rows, start)
        return {
            "model": name,
            "class_ids": [int(i) for i in ids],
            "predictions": lane.model.decode(ids).tolist(),
            "n_samples": int(rows.shape[0]),
            "latency_ms": 1000.0 * (time.monotonic() - start),
        }

    def _resolve(self, lane: _ModelLane, rows: np.ndarray, start: float) -> np.ndarray:
        """Run one validated request through the lane and record its stats."""
        try:
            future = lane.batcher.submit(rows)
        except BatcherClosed as error:
            lane.stats.observe_error()
            raise ServerClosed(str(error)) from error
        try:
            ids = future.result()
        except Exception:
            lane.stats.observe_error()
            raise
        lane.stats.observe_request(
            latency_s=time.monotonic() - start, n_samples=rows.shape[0]
        )
        return ids

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict:
        """Server-wide statistics document (the ``/stats`` route).

        In fleet mode the per-model sections are collected from the owning
        workers and merged into one view (each model lives on exactly one
        worker), next to a ``workers`` section with per-process health.
        """
        if not self.workers:
            with self._lock:
                lanes = dict(self._lanes)
            return {
                "uptime_s": time.monotonic() - self._started,
                "max_batch_size": self.max_batch_size,
                "max_latency_ms": self.max_latency_ms,
                "models": {name: lane.stats.snapshot() for name, lane in lanes.items()},
            }
        models: Dict[str, Dict] = {}
        workers_info: List[Dict] = []
        for slot in self._slots:
            with slot.lock:
                handle = slot.handle
            info = {
                "index": slot.index,
                "pid": handle.pid if handle is not None else None,
                "alive": bool(handle is not None and handle.alive),
                "ready": bool(handle is not None and handle.ready),
                "restarts": slot.restarts,
                "models": sorted(slot.models),
            }
            if info["alive"]:
                try:
                    snapshot = self._slot_call(
                        slot, MSG_CONTROL, ("stats", None), resubmit=True
                    ).result(timeout=30.0)
                    info["uptime_s"] = snapshot["uptime_s"]
                    models.update(snapshot["models"])
                except Exception:
                    info["alive"] = False  # died between the check and the call
            workers_info.append(info)
        return {
            "uptime_s": time.monotonic() - self._started,
            "max_batch_size": self.max_batch_size,
            "max_latency_ms": self.max_latency_ms,
            "workers_configured": self.workers,
            "lanes_per_worker": self.lanes_per_worker,
            "workers": workers_info,
            "models": models,
        }

    @property
    def ready(self) -> bool:
        """Whether the server can answer predict requests right now.

        In-process: true until shutdown.  Fleet: true once every worker
        process is alive and has answered at least one heartbeat — what the
        ``/healthz`` route reports and the bench scripts poll instead of
        sleeping.
        """
        if self._closed:
            return False
        if not self.workers:
            return True
        for slot in self._slots:
            with slot.lock:
                handle = slot.handle
            if handle is None or not handle.alive or not handle.ready:
                return False
        return True

    def shutdown(self, drain: bool = True) -> None:
        """Stop serving; idempotent.

        ``drain=True`` completes every in-flight and queued request before
        returning (graceful); ``drain=False`` fails queued requests fast.
        In fleet mode every worker drains its lanes and exits; stragglers
        are escalated to SIGTERM/SIGKILL.  New submissions raise
        :class:`ServerClosed` either way.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            lanes = list(self._lanes.values())
        self._monitor_stop.set()
        for lane in lanes:
            lane.batcher.close(drain=drain)
        handles = []
        for slot in self._slots:
            with slot.lock:
                if slot.handle is not None:
                    handles.append(slot.handle)
        for handle in handles:
            handle.shutdown(drain=drain)
        deadline = time.monotonic() + (60.0 if drain else 5.0)
        for handle in handles:
            if not handle.join(timeout=max(deadline - time.monotonic(), 0.1)):
                handle.process.terminate()
                if not handle.join(timeout=1.0):
                    handle.process.kill()
                    handle.join(timeout=1.0)
            handle.conn.close()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
