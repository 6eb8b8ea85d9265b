"""The request-facing serving core: one ModelServer per process.

A :class:`ModelServer` serves every loaded model behind one API: per model
one :class:`~repro.serve.batching.MicroBatcher` lane feeding the vectorized
``run_batch`` kernel, plus one :class:`~repro.serve.stats.StatsRecorder`.
``repro-serve --workers N`` runs N of these, one per forked child of a thin
supervisor (see :mod:`repro.serve.worker`), so a fleet answers with exactly
the kernels of one process.

Example::

    server = ModelServer(ModelRegistry(config=fast_config()))
    server.open_lane("redwine/ours")
    out = server.predict("redwine/ours", [0.5] * 11)   # 11 redwine features
    server.stats()["models"]["redwine/ours"]["requests_total"]
    server.shutdown()          # graceful: drains in-flight requests
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.serve.batching import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_LATENCY_MS,
    BatcherClosed,
    MicroBatcher,
)
from repro.serve.model import ServedModel
from repro.serve.registry import ModelRegistry
from repro.serve.stats import StatsRecorder


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

    Example::

        registry = ModelRegistry(config=fast_config())
        with ModelServer(registry) as server:
            single = server.predict("redwine/ours", x)          # one sample
            bulk = server.predict_many("redwine/ours", X_test)  # micro-batched
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        max_latency_ms: float = DEFAULT_MAX_LATENCY_MS,
    ) -> None:
        self.registry = registry
        self.max_batch_size = int(max_batch_size)
        self.max_latency_ms = float(max_latency_ms)
        self._lock = threading.Lock()
        self._lanes: Dict[str, _ModelLane] = {}
        self._closed = False
        self._started = time.monotonic()

    # ------------------------------------------------------------------ #
    # Model management
    # ------------------------------------------------------------------ #
    def lane(self, name: str) -> _ModelLane:
        """The (batcher, stats) lane of one model, created on first use."""
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
        """Ensure ``name`` is served, training or loading it if cold.

        Unknown names raise ``ValueError``.
        """
        self.lane(name)

    def models(self) -> List[Dict[str, object]]:
        """Metadata of every currently loaded model (``/models`` route)."""
        with self._lock:
            lanes = list(self._lanes.values())
        return [lane.model.metadata() for lane in lanes]

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def submit(self, name: str, X: Union[Sequence, np.ndarray]) -> "Future":
        """Enqueue a request; returns a future resolving to class ids.

        The request is validated *before* it enters the queue and coalesces
        with whatever else is in flight for the same model.
        """
        lane = self.lane(name)
        rows = lane.model.validate_batch(X)
        try:
            return lane.batcher.submit(rows)
        except BatcherClosed as error:
            raise ServerClosed(str(error)) from error

    def submit_many(self, name: str, X: Union[Sequence, np.ndarray]) -> List["Future"]:
        """Enqueue every row of ``X`` as its own single-sample request.

        The burst-offering path: one future per row, with bookkeeping
        amortized over the burst.  Each row is coalesced by the owning
        lane's micro-batcher exactly like a separate :meth:`submit` call.
        """
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
        and the served latency.  Bit-identical to the design's ``run_batch``:
        the lane runs exactly that kernel.
        """
        start = time.monotonic()
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
        """Server-wide statistics document (the ``/stats`` route)."""
        with self._lock:
            lanes = dict(self._lanes)
        return {
            "uptime_s": time.monotonic() - self._started,
            "max_batch_size": self.max_batch_size,
            "max_latency_ms": self.max_latency_ms,
            "models": {name: lane.stats.snapshot() for name, lane in lanes.items()},
        }

    @property
    def ready(self) -> bool:
        """Whether the server can answer predict requests: true until shutdown.

        What the ``/healthz`` route reports; a pre-fork fleet child answers
        for the whole fleet instead.
        """
        return not self._closed

    def shutdown(self, drain: bool = True) -> None:
        """Stop serving; idempotent.

        ``drain=True`` completes every in-flight and queued request before
        returning (graceful); ``drain=False`` fails queued requests fast.
        New submissions raise :class:`ServerClosed` either way.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            lanes = list(self._lanes.values())
        for lane in lanes:
            lane.batcher.close(drain=drain)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
