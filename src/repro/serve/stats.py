"""Per-model serving statistics: request rates, batch occupancy, latency.

Every :class:`~repro.serve.server.ModelServer` keeps one
:class:`StatsRecorder` per served model.  The recorder is written from two
places — the request path (per-request latency) and the micro-batcher worker
(per-micro-batch size) — and read by the ``/stats`` HTTP route, so every
operation is guarded by one lock and a snapshot is a plain JSON-ready dict.
A pre-fork fleet merges the raw :meth:`StatsRecorder.state` of every child
with :func:`summarize`, the same function a single snapshot goes through.

Example::

    stats = StatsRecorder(max_batch_size=8)
    stats.observe_request(latency_s=0.004, n_samples=1)
    stats.observe_batch(n_samples=6)
    snap = stats.snapshot()
    snap["requests_total"], snap["batch_occupancy"]
    (1, 0.75)
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, Sequence

#: How many recent request latencies the percentile reservoir keeps.
LATENCY_RESERVOIR_SIZE = 4096


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence.

    Example::

        >>> percentile([1.0, 2.0, 3.0, 4.0], 0.5)
        2.0
    """
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(fraction * len(sorted_values))))
    return float(sorted_values[rank])


class StatsRecorder:
    """Thread-safe accumulator of one model's serving statistics.

    Parameters
    ----------
    max_batch_size:
        The batcher's configured ceiling; batch occupancy is reported as
        ``mean micro-batch size / max_batch_size``.
    reservoir_size:
        How many recent per-request latencies feed the p50/p99 estimates.

    Example::

        stats = StatsRecorder(max_batch_size=256)
        stats.observe_request(latency_s=0.002)
        stats.snapshot()["latency_p50_ms"]    # 2.0
    """

    def __init__(
        self,
        max_batch_size: int,
        reservoir_size: int = LATENCY_RESERVOIR_SIZE,
    ) -> None:
        self.max_batch_size = int(max_batch_size)
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._requests_total = 0
        self._samples_total = 0
        self._errors_total = 0
        self._batches_total = 0
        self._batched_samples_total = 0
        self._latencies: Deque[float] = deque(maxlen=reservoir_size)

    # ------------------------------------------------------------------ #
    def observe_request(self, latency_s: float, n_samples: int = 1) -> None:
        """Record one completed predict request (single or bulk)."""
        with self._lock:
            self._requests_total += 1
            self._samples_total += int(n_samples)
            self._latencies.append(float(latency_s))

    def observe_error(self) -> None:
        """Record a request that failed (bad input, shutdown race, ...)."""
        with self._lock:
            self._errors_total += 1

    def observe_batch(self, n_samples: int) -> None:
        """Record one micro-batch flushed onto the vectorized hot path."""
        with self._lock:
            self._batches_total += 1
            self._batched_samples_total += int(n_samples)

    # ------------------------------------------------------------------ #
    def state(self) -> Dict[str, object]:
        """The raw counters and latency reservoir (what :func:`summarize` merges)."""
        with self._lock:
            return {
                "max_batch_size": self.max_batch_size,
                "uptime_s": max(time.monotonic() - self._started, 1e-9),
                "requests_total": self._requests_total,
                "samples_total": self._samples_total,
                "errors_total": self._errors_total,
                "batches_total": self._batches_total,
                "batched_samples_total": self._batched_samples_total,
                "latencies_s": list(self._latencies),
            }

    def snapshot(self) -> Dict[str, float]:
        """A JSON-serializable view of everything recorded so far."""
        return summarize([self.state()])


def summarize(states: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """One ``/stats`` model section from the :meth:`StatsRecorder.state` of
    one recorder or of several processes serving the same model.

    Counters and rates add up; p50/p99 are taken over the union of the
    latency reservoirs, so a fleet reports what one process would.

    Example::

        summarize([a.state(), b.state()])["requests_total"]   # a's + b's
    """
    requests = sum(s["requests_total"] for s in states)
    samples = sum(s["samples_total"] for s in states)
    batches = sum(s["batches_total"] for s in states)
    batched = sum(s["batched_samples_total"] for s in states)
    max_batch_size = max((s["max_batch_size"] for s in states), default=0)
    latencies = sorted(value for s in states for value in s["latencies_s"])
    mean_batch = batched / batches if batches else 0.0
    return {
        "requests_total": requests,
        "samples_total": samples,
        "errors_total": sum(s["errors_total"] for s in states),
        "uptime_s": max((s["uptime_s"] for s in states), default=0.0),
        "requests_per_s": sum(s["requests_total"] / s["uptime_s"] for s in states),
        "samples_per_s": sum(s["samples_total"] / s["uptime_s"] for s in states),
        "batches_total": batches,
        "mean_batch_size": mean_batch,
        "batch_occupancy": mean_batch / max_batch_size if max_batch_size else 0.0,
        "latency_p50_ms": 1000.0 * percentile(latencies, 0.50),
        "latency_p99_ms": 1000.0 * percentile(latencies, 0.99),
        "latency_samples": len(latencies),
    }
