"""The async micro-batching queue feeding the vectorized simulators.

Thousands of concurrent small predict requests are individually tiny — a
single ``(1, m)`` matmul plus Python call overhead — but the PR 1 hot paths
(:meth:`~repro.hw.simulate.SequentialDatapathSimulator.run_batch` and
friends) are single-matmul vectorized: one ``(B, m)`` call costs barely more
than a ``(1, m)`` call.  :class:`MicroBatcher` closes that gap.  Requests
enter a queue as ``(rows, Future)`` pairs; one worker thread drains the
queue into micro-batches of at most ``max_batch_size`` rows, waits at most
``max_latency_ms`` for stragglers to coalesce, runs **one** vectorized call
per micro-batch and resolves the futures.

Two shapes of request share the queue:

* a **single** request contributes one row — under load many of them fuse
  into one micro-batch (this is where the >=5x serving throughput over the
  one-request-at-a-time path comes from);
* a **bulk** request contributes many rows — when it exceeds
  ``max_batch_size`` it is *split* across consecutive micro-batches and its
  future resolves once every chunk has been computed.

Example::

    batcher = MicroBatcher(fn=lambda X: X.sum(axis=1), max_batch_size=64)
    future = batcher.submit(np.ones((1, 6)))
    future.result()        # -> array([6.0])  (computed by the worker)
    batcher.close()
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, Deque, List, Optional, Sequence

import numpy as np

#: Default straggler window in milliseconds: flush as soon as the queue is
#: drained.  Requests that arrive while the kernel runs still coalesce into
#: the next micro-batch, so a wider window only delays a lone request.
DEFAULT_MAX_LATENCY_MS = 0.0
#: Default coalescing ceiling: enough rows that a full micro-batch amortizes
#: the per-call overhead down to noise, small enough to keep latency tails low.
DEFAULT_MAX_BATCH_SIZE = 256


class BatcherClosed(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` after shutdown has begun.

    Example::

        batcher.close()
        try:
            batcher.submit(rows)
        except BatcherClosed:
            ...  # reject the request upstream (HTTP 503)
    """


class _PendingRequest:
    """One queued request: its rows, its future and its partial results.

    ``__slots__`` and plain attributes keep per-request construction cost
    minimal — this object is created once per served request, on the
    latency-critical submit path.
    """

    __slots__ = ("rows", "future", "parts", "rows_done", "n_rows")

    def __init__(self, rows: np.ndarray, future: Future) -> None:
        self.rows = rows
        self.future = future
        self.parts: List[np.ndarray] = []
        self.rows_done = 0
        self.n_rows = int(rows.shape[0])


class MicroBatcher:
    """Coalesce concurrent predict requests into vectorized micro-batches.

    Parameters
    ----------
    fn:
        The vectorized kernel: called with a ``(B, m)`` float array, must
        return a length-``B`` result array (row ``i`` answers input row
        ``i``).  Runs only on the worker thread, so it needs no locking of
        its own.
    max_batch_size:
        Upper bound on rows per micro-batch (the coalescing ceiling, and
        the splitting threshold for oversized bulk requests).
    max_latency_ms:
        Once the worker observes a pending (partial) micro-batch, how long
        it keeps the batch open for stragglers before flushing.  The default
        ``0`` flushes as soon as the queue is drained (lowest latency;
        coalescing still happens whenever requests arrive faster than the
        kernel runs).
    on_batch:
        Optional callback ``(n_rows) -> None`` invoked after every flushed
        micro-batch — the stats hook.

    Example::

        batcher = MicroBatcher(fn=model.predict_ids, max_batch_size=256)
        futures = [batcher.submit(row.reshape(1, -1)) for row in X]
        ids = np.concatenate([f.result() for f in futures])
        batcher.close()          # drains in-flight work, then stops
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        max_latency_ms: float = DEFAULT_MAX_LATENCY_MS,
        on_batch: Optional[Callable[[int], None]] = None,
        name: str = "model",
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_latency_ms < 0:
            raise ValueError("max_latency_ms must be >= 0")
        self.fn = fn
        self.max_batch_size = int(max_batch_size)
        self.max_latency_ms = float(max_latency_ms)
        self.on_batch = on_batch
        self.name = name

        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        self._queue: Deque[_PendingRequest] = deque()
        #: Rows queued and not yet flushed; maintained incrementally so the
        #: worker never scans the (possibly thousands-long) queue to decide
        #: whether a micro-batch is full.
        self._pending_rows = 0
        self._closing = False
        self._worker = threading.Thread(
            target=self._run, name=f"microbatch[{name}]", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------ #
    # Request side
    # ------------------------------------------------------------------ #
    def submit(self, rows: np.ndarray) -> Future:
        """Enqueue a request; returns the future of its result array.

        ``rows`` must be a 2-D ``(k, m)`` array (``k = 1`` for single
        requests).  An empty request (``k = 0``) resolves immediately with
        an empty result and never occupies a micro-batch slot.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValueError(f"expected a 2-D (k, m) request, got shape {rows.shape}")
        future: Future = Future()
        if rows.shape[0] == 0:
            # Well-typed empty answer without a round trip through the worker.
            future.set_result(np.zeros(0, dtype=np.int64))
            return future
        request = _PendingRequest(rows, future)
        with self._lock:
            if self._closing:
                raise BatcherClosed(f"batcher {self.name!r} is shut down")
            was_idle = not self._queue
            self._queue.append(request)
            self._pending_rows += request.n_rows
            # The worker only needs waking when it could be blocked: on an
            # empty queue, or in the straggler window once a batch fills.
            if was_idle or self._pending_rows >= self.max_batch_size:
                self._has_work.notify()
        return future

    def submit_many(self, batches: Sequence[np.ndarray]) -> List[Future]:
        """Enqueue a burst of requests under one lock acquisition.

        Each element of ``batches`` becomes its own request with its own
        future (identical semantics to calling :meth:`submit` in a loop);
        only the queue bookkeeping is amortized.  This is the bulk-offering
        path HTTP handler threads and the serving benchmark use to push
        thousands of outstanding single-sample requests.
        """
        requests: List[_PendingRequest] = []
        futures: List[Future] = []
        for rows in batches:
            rows = np.asarray(rows)
            if rows.ndim != 2:
                raise ValueError(
                    f"expected 2-D (k, m) requests, got shape {rows.shape}"
                )
            future: Future = Future()
            futures.append(future)
            if rows.shape[0] == 0:
                future.set_result(np.zeros(0, dtype=np.int64))
            else:
                requests.append(_PendingRequest(rows, future))
        if requests:
            with self._lock:
                if self._closing:
                    raise BatcherClosed(f"batcher {self.name!r} is shut down")
                self._queue.extend(requests)
                self._pending_rows += sum(r.n_rows for r in requests)
                self._has_work.notify()
        return futures

    def pending_rows(self) -> int:
        """Rows currently queued (not yet flushed into a micro-batch)."""
        with self._lock:
            return self._pending_rows

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #
    def _collect_batch(self) -> List[_PendingRequest]:
        """Block for work, then carve out up to ``max_batch_size`` rows.

        Returns the requests participating in this micro-batch; each keeps
        track of how many of its rows earlier batches already served, so an
        oversized request stays at the head of the queue until every chunk
        has been computed.
        """
        deadline: Optional[float] = None
        with self._lock:
            while True:
                if self._queue:
                    if deadline is None:
                        # The straggler window opens when the worker first
                        # observes the pending batch (stamping at submit time
                        # would cost a clock read on every request).
                        deadline = time.monotonic() + self.max_latency_ms / 1000.0
                    if (
                        self._pending_rows >= self.max_batch_size
                        or self._closing
                        or time.monotonic() >= deadline
                    ):
                        break
                    self._has_work.wait(timeout=max(deadline - time.monotonic(), 0.0))
                elif self._closing:
                    return []
                else:
                    deadline = None
                    self._has_work.wait()

            batch: List[_PendingRequest] = []
            budget = self.max_batch_size
            for request in self._queue:  # deque iteration starts at the head
                if budget <= 0:
                    break
                batch.append(request)
                budget -= request.n_rows - request.rows_done
            return batch

    def _flush(self, batch: List[_PendingRequest]) -> None:
        """Run one vectorized call over the batch and resolve its futures."""
        chunks: List[np.ndarray] = []
        spans: List[tuple] = []  # (request, start_row_in_request, n_rows_taken)
        budget = self.max_batch_size
        for request in batch:
            take = min(request.n_rows - request.rows_done, budget)
            chunks.append(request.rows[request.rows_done : request.rows_done + take])
            spans.append((request, take))
            budget -= take
        stacked = chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=0)

        try:
            results = np.asarray(self.fn(stacked))
            if results.shape[0] != stacked.shape[0]:
                raise RuntimeError(
                    f"batch kernel returned {results.shape[0]} results "
                    f"for {stacked.shape[0]} rows"
                )
        except BaseException as error:  # propagate to every waiting caller
            with self._lock:
                for request, _ in spans:
                    # Spans are a prefix of the queue (the worker always
                    # serves from the head), so eviction is popleft-shaped.
                    if self._queue and self._queue[0] is request:
                        self._queue.popleft()
                        self._pending_rows = max(
                            0, self._pending_rows - (request.n_rows - request.rows_done)
                        )
            for request, _ in spans:
                if not request.future.done():
                    request.future.set_exception(error)
            return

        if self.on_batch is not None:
            self.on_batch(int(stacked.shape[0]))

        completed: List[_PendingRequest] = []
        offset = 0
        with self._lock:
            for request, take in spans:
                request.parts.append(results[offset : offset + take])
                request.rows_done += take
                self._pending_rows = max(0, self._pending_rows - take)
                offset += take
                if request.rows_done == request.n_rows:
                    # Completion is FIFO: a request can only finish once
                    # everything ahead of it finished, so it is at the head
                    # (unless close(drain=False) already evicted it).
                    if self._queue and self._queue[0] is request:
                        self._queue.popleft()
                    completed.append(request)
        # Resolve futures outside the lock: callers may react immediately.
        # A future can already be failed by close(drain=False) racing with
        # this flush; the done() guard keeps the worker alive in that case.
        for request in completed:
            parts = request.parts
            if not request.future.done():
                request.future.set_result(
                    parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
                )

    def _run(self) -> None:
        while True:
            batch = self._collect_batch()
            if not batch:
                return  # closing and fully drained
            self._flush(batch)

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the batcher; idempotent.

        ``drain=True`` (graceful) refuses new submissions but lets the
        worker finish every queued request before exiting, so in-flight
        futures all resolve.  ``drain=False`` fails queued requests with
        :class:`BatcherClosed` immediately.
        """
        with self._lock:
            self._closing = True
            if not drain:
                abandoned = list(self._queue)
                self._queue.clear()
                self._pending_rows = 0
            self._has_work.notify_all()
        if not drain:
            error = BatcherClosed(f"batcher {self.name!r} shut down without draining")
            for request in abandoned:
                if not request.future.done():
                    request.future.set_exception(error)
        self._worker.join(timeout=timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
