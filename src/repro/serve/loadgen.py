"""Load generation and SLO measurement for the serving stack.

The serving claims in the paper's setting are throughput/latency claims, so
this module makes them measurable: seeded, reproducible load against a live
:class:`~repro.serve.server.ModelServer`, or against any ``repro-serve``
endpoint through :class:`HTTPTarget`, with the two canonical driving
disciplines:

* **Open loop** (:func:`run_open_loop`) — requests arrive on a schedule
  drawn *in advance* from a Poisson process (``sustained``) or an
  alternating high/low-rate process (``bursty``), independent of how fast
  the server answers.  Latency is measured from the *intended* arrival
  time, so queueing delay under overload is charged to the server — the
  discipline that avoids coordinated omission and exposes p99/p999 tails.
* **Closed loop** (:func:`run_closed_loop`) — ``n_clients`` synchronous
  clients each keep exactly one burst in flight, which measures sustainable
  aggregate throughput (the number the multi-worker speedup is defined on).

:func:`find_saturation` ramps the open-loop offered rate geometrically
until the achieved rate falls below a fraction of it — the saturation knee.

Example::

    mix = [ModelTraffic("redwine/ours", rows_a), ModelTraffic("cardio/ours", rows_b)]
    result = run_open_loop(server, mix, rate=500.0, duration_s=2.0)
    result.latency_p99_ms, result.achieved_rate
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.serve.client import HTTPClient
from repro.serve.stats import percentile

#: Bursty open-loop defaults: the burst windows run at ``burst_factor`` times
#: the mean rate for ``burst_fraction`` of the wall clock, with the calm
#: windows slowed so the *mean* offered rate still equals ``rate``.
DEFAULT_BURST_FACTOR = 4.0
DEFAULT_BURST_FRACTION = 0.2
#: Window length the bursty schedule alternates on (seconds).
BURST_PERIOD_S = 0.25
#: Sender threads (each one keep-alive connection) behind
#: :meth:`HTTPTarget.submit`.  They share this process's GIL, so an
#: open-loop knee measured through them is the client's as well as the
#: server's: on a 2-vCPU host 16 senders read a fleet's knee 8% higher.
HTTP_SENDERS = 8


@dataclass(frozen=True)
class ModelTraffic:
    """One model's share of a traffic mix.

    Example::

        ModelTraffic("redwine/ours", rows=X_test, weight=2.0)  # 2x the traffic
    """

    name: str
    #: Pool of valid single-sample feature rows requests are drawn from.
    rows: np.ndarray
    weight: float = 1.0


class HTTPTarget:
    """The ``submit`` / ``submit_many`` surface the load runs call, over HTTP.

    Each calling thread keeps its own keep-alive :class:`HTTPClient`.
    :meth:`submit_many` sends one bulk request from the calling thread (a
    closed-loop client waits for it anyway); :meth:`submit` sends from a
    pool of :data:`HTTP_SENDERS` threads, so an open-loop schedule never
    waits for a reply before firing the next request.

    Example::

        with HTTPTarget("http://127.0.0.1:8000") as target:
            run_closed_loop(target, mix, n_clients=4)
    """

    def __init__(self, url: str) -> None:
        self.url = url
        self._local = threading.local()
        self._clients: List[HTTPClient] = []
        self._lock = threading.Lock()
        self._pool = ThreadPoolExecutor(HTTP_SENDERS, thread_name_prefix="http-target")

    def _client(self) -> HTTPClient:
        client = getattr(self._local, "client", None)
        if client is None:
            client = self._local.client = HTTPClient(self.url)
            with self._lock:
                self._clients.append(client)
        return client

    def predict_ids(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Class ids of ``rows`` from one bulk ``/predict``."""
        answer = self._client().predict_many(name, np.asarray(rows).tolist())
        return np.asarray(answer["class_ids"], dtype=np.int64)

    def submit(self, name: str, rows: np.ndarray) -> Future:
        return self._pool.submit(self.predict_ids, name, rows)

    def submit_many(self, name: str, rows: np.ndarray) -> List[Future]:
        ids = self.predict_ids(name, rows)
        futures = []
        for i in range(ids.shape[0]):
            future: Future = Future()
            future.set_result(ids[i : i + 1])
            futures.append(future)
        return futures

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        with self._lock:
            clients, self._clients = self._clients, []
        for client in clients:
            client.close()

    def __enter__(self) -> "HTTPTarget":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class LoadResult:
    """The outcome of one load run, JSON-ready via :meth:`to_json`.

    ``latency_*`` fields are per-request service latencies in milliseconds;
    for open-loop runs they are measured from the scheduled arrival time
    (queueing under overload counts against the server).
    """

    discipline: str
    pattern: str
    offered_rate: float
    achieved_rate: float
    n_requests: int
    n_errors: int
    duration_s: float
    latency_p50_ms: float
    latency_p99_ms: float
    latency_p999_ms: float
    latency_max_ms: float
    requests_by_model: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        """Plain-dict view for ``BENCH_serving.json``."""
        return {
            "discipline": self.discipline,
            "pattern": self.pattern,
            "offered_rate_per_s": self.offered_rate,
            "achieved_rate_per_s": self.achieved_rate,
            "n_requests": self.n_requests,
            "n_errors": self.n_errors,
            "duration_s": self.duration_s,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_p999_ms": self.latency_p999_ms,
            "latency_max_ms": self.latency_max_ms,
            "requests_by_model": dict(self.requests_by_model),
        }


def _summarize(
    discipline: str,
    pattern: str,
    offered_rate: float,
    latencies_s: Sequence[float],
    n_errors: int,
    duration_s: float,
    by_model: Dict[str, int],
) -> LoadResult:
    ordered = sorted(latencies_s)
    duration_s = max(duration_s, 1e-9)
    return LoadResult(
        discipline=discipline,
        pattern=pattern,
        offered_rate=offered_rate,
        achieved_rate=len(ordered) / duration_s,
        n_requests=len(ordered),
        n_errors=n_errors,
        duration_s=duration_s,
        latency_p50_ms=1000.0 * percentile(ordered, 0.50),
        latency_p99_ms=1000.0 * percentile(ordered, 0.99),
        latency_p999_ms=1000.0 * percentile(ordered, 0.999),
        latency_max_ms=1000.0 * (ordered[-1] if ordered else 0.0),
        requests_by_model=by_model,
    )


# --------------------------------------------------------------------------- #
# Arrival schedules
# --------------------------------------------------------------------------- #
def _poisson_arrivals(
    rng: np.random.Generator, rate: float, start: float, end: float
) -> List[float]:
    """Poisson-process arrival times in ``[start, end)`` at ``rate`` req/s."""
    if rate <= 0.0 or end <= start:
        return []
    # Draw with ~4 sigma headroom, then extend in the rare shortfall case.
    times: List[float] = []
    t = start
    expected = int(rate * (end - start)) + 1
    while t < end:
        gaps = rng.exponential(1.0 / rate, size=max(expected, 16))
        for gap in gaps:
            t += gap
            if t >= end:
                break
            times.append(t)
    return times


def build_schedule(
    rate: float,
    duration_s: float,
    pattern: str = "sustained",
    burst_factor: float = DEFAULT_BURST_FACTOR,
    burst_fraction: float = DEFAULT_BURST_FRACTION,
    seed: int = 0,
) -> List[float]:
    """Arrival times (seconds from start) for one open-loop run.

    ``sustained`` is a plain Poisson process at ``rate``.  ``bursty``
    alternates :data:`BURST_PERIOD_S` windows between ``burst_factor *
    rate`` (for ``burst_fraction`` of the time) and a calm rate chosen so
    the mean offered rate is still ``rate`` — same total load, spikier.

    Example::

        >>> len(build_schedule(1000.0, 1.0, seed=1)) in range(900, 1100)
        True
    """
    rng = np.random.default_rng(seed)
    if pattern == "sustained":
        return _poisson_arrivals(rng, rate, 0.0, duration_s)
    if pattern != "bursty":
        raise ValueError(f"unknown arrival pattern {pattern!r}")
    if not 0.0 < burst_fraction < 1.0:
        raise ValueError("burst_fraction must be in (0, 1)")
    calm_rate = rate * max(1.0 - burst_fraction * burst_factor, 0.0) / (
        1.0 - burst_fraction
    )
    times: List[float] = []
    t = 0.0
    while t < duration_s:
        burst_end = min(t + burst_fraction * BURST_PERIOD_S, duration_s)
        calm_end = min(t + BURST_PERIOD_S, duration_s)
        times.extend(_poisson_arrivals(rng, burst_factor * rate, t, burst_end))
        times.extend(_poisson_arrivals(rng, calm_rate, burst_end, calm_end))
        t = calm_end
    return times


def _draw_mix(
    rng: np.random.Generator, mix: Sequence[ModelTraffic], n: int
) -> Tuple[List[str], List[np.ndarray]]:
    """Per-request (model name, feature row) draws, weighted by the mix."""
    if not mix:
        raise ValueError("traffic mix is empty")
    weights = np.asarray([max(m.weight, 0.0) for m in mix], dtype=float)
    if weights.sum() <= 0.0:
        raise ValueError("traffic mix weights sum to zero")
    choices = rng.choice(len(mix), size=n, p=weights / weights.sum())
    names: List[str] = []
    rows: List[np.ndarray] = []
    for which in choices:
        entry = mix[which]
        names.append(entry.name)
        rows.append(entry.rows[rng.integers(entry.rows.shape[0])])
    return names, rows


# --------------------------------------------------------------------------- #
# Driving disciplines
# --------------------------------------------------------------------------- #
def run_open_loop(
    server,
    mix: Sequence[ModelTraffic],
    rate: float,
    duration_s: float,
    pattern: str = "sustained",
    burst_factor: float = DEFAULT_BURST_FACTOR,
    burst_fraction: float = DEFAULT_BURST_FRACTION,
    seed: int = 0,
    timeout_s: float = 60.0,
) -> LoadResult:
    """Drive ``server`` open-loop and report achieved rate + latency tails.

    Requests fire on the precomputed schedule regardless of responses; each
    latency runs from the request's *scheduled* arrival to its completion,
    so a server that falls behind shows the backlog in its p99/p999.

    Example::

        result = run_open_loop(server, mix, rate=800.0, duration_s=2.0,
                               pattern="bursty", seed=3)
        assert result.n_requests + result.n_errors > 0
    """
    schedule = build_schedule(
        rate, duration_s, pattern, burst_factor, burst_fraction, seed
    )
    names, rows = _draw_mix(np.random.default_rng(seed + 1), mix, len(schedule))
    latencies: List[float] = []
    errors = [0]
    lock = threading.Lock()
    done = threading.Semaphore(0)

    def finished(scheduled_at: float, name: str, future: Future) -> None:
        now = time.monotonic()
        with lock:
            if future.exception() is not None:
                errors[0] += 1
            else:
                latencies.append(now - scheduled_at)
        done.release()

    start = time.monotonic()
    issued = 0
    by_model: Dict[str, int] = {}
    for offset, name, row in zip(schedule, names, rows):
        scheduled_at = start + offset
        delay = scheduled_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        try:
            future = server.submit(name, row.reshape(1, -1))
        except Exception:
            with lock:
                errors[0] += 1
            done.release()
        else:
            future.add_done_callback(
                lambda f, t=scheduled_at, n=name: finished(t, n, f)
            )
        by_model[name] = by_model.get(name, 0) + 1
        issued += 1
    deadline = time.monotonic() + timeout_s
    for _ in range(issued):
        if not done.acquire(timeout=max(deadline - time.monotonic(), 0.001)):
            break
    elapsed = time.monotonic() - start
    return _summarize(
        "open_loop", pattern, rate, latencies, errors[0], elapsed, by_model
    )


def run_closed_loop(
    server,
    mix: Sequence[ModelTraffic],
    n_clients: int = 4,
    requests_per_client: int = 1024,
    burst: int = 64,
    seed: int = 0,
) -> LoadResult:
    """Drive ``server`` closed-loop and report aggregate throughput.

    Each client keeps one ``burst``-row batch of single-sample requests in
    flight at a time (every row coalesces in the owning lane's
    micro-batcher like an independent request).  Aggregate requests/s over
    all clients is the throughput number the multi-worker speedup floor is
    asserted on.

    Example::

        result = run_closed_loop(server, mix, n_clients=4,
                                 requests_per_client=512)
        result.achieved_rate    # aggregate req/s
    """
    latencies: List[List[float]] = [[] for _ in range(n_clients)]
    errors = [0] * n_clients
    counts: List[Dict[str, int]] = [{} for _ in range(n_clients)]

    def client(index: int) -> None:
        rng = np.random.default_rng(seed + 1000 * (index + 1))
        remaining = requests_per_client
        while remaining > 0:
            size = min(burst, remaining)
            names, rows = _draw_mix(rng, mix, 1)
            name = names[0]
            entry = next(m for m in mix if m.name == name)
            block = entry.rows[rng.integers(entry.rows.shape[0], size=size)]
            begin = time.monotonic()
            try:
                futures = server.submit_many(name, block)
                for future in futures:
                    future.result()
            except Exception:
                errors[index] += size
            else:
                per_request = (time.monotonic() - begin) / size
                latencies[index].extend([per_request] * size)
                counts[index][name] = counts[index].get(name, 0) + size
            remaining -= size

    threads = [
        threading.Thread(target=client, args=(i,), name=f"loadgen-client-{i}")
        for i in range(n_clients)
    ]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - start
    merged: List[float] = [value for chunk in latencies for value in chunk]
    by_model: Dict[str, int] = {}
    for chunk in counts:
        for name, n in chunk.items():
            by_model[name] = by_model.get(name, 0) + n
    total_errors = sum(errors)
    result = _summarize(
        "closed_loop", "closed", 0.0, merged, total_errors, elapsed, by_model
    )
    result.offered_rate = result.achieved_rate  # closed loop offers = achieves
    return result


def find_saturation(
    server,
    mix: Sequence[ModelTraffic],
    start_rate: float = 200.0,
    duration_s: float = 0.5,
    growth: float = 2.0,
    achieved_floor: float = 0.85,
    max_steps: int = 8,
    seed: int = 0,
) -> Dict[str, object]:
    """Geometric open-loop rate ramp to the server's saturation knee.

    Doubles (``growth``) the offered rate until the achieved rate drops
    below ``achieved_floor`` of the rate the step's schedule offered (or
    errors appear), and reports the last sustainable rate plus every step's
    measurement.

    Example::

        knee = find_saturation(server, mix, start_rate=100.0)
        knee["saturation_rate_per_s"], len(knee["steps"])
    """
    steps: List[Dict[str, object]] = []
    sustainable = 0.0
    rate = start_rate
    for step in range(max_steps):
        result = run_open_loop(
            server, mix, rate=rate, duration_s=duration_s, seed=seed + step
        )
        record = result.to_json()
        # Judged against the rate the Poisson schedule actually offered: a
        # short step's arrival count alone strays from its mean by more
        # than 15% (about 60 arrivals at 150 req/s for 0.4 s).
        offered = sum(result.requests_by_model.values()) / duration_s
        saturated = (
            result.achieved_rate < achieved_floor * offered or result.n_errors > 0
        )
        record["saturated"] = saturated
        steps.append(record)
        if saturated:
            break
        sustainable = result.achieved_rate
        rate *= growth
    return {
        "start_rate_per_s": start_rate,
        "growth": growth,
        "achieved_floor": achieved_floor,
        "saturation_rate_per_s": sustainable,
        "steps": steps,
    }
