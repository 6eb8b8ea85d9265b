"""Batch inference serving on top of the compiled simulators.

The request-facing layer of the repository (the ROADMAP's "batch serving
API on top of ``run_batch``" open item): load trained designs through the
persistent flow cache, accept single and bulk predict requests — over HTTP
or in process — and coalesce concurrent traffic through an async
micro-batching queue onto the PR 1 single-matmul / bit-parallel hot paths.
``repro-serve --workers N`` runs N forked copies of the single-process
server behind a thin supervisor that hands each accepted connection to the
next child in turn, so concurrent requests stop contending on one GIL.

Layering (see ``docs/architecture.md`` and ``docs/serving.md``):

* :mod:`repro.serve.registry` — ``"<dataset>/<kind>"`` -> trained design,
  via :func:`repro.core.flow_executor.run_flow_cached` (train-or-load);
* :mod:`repro.serve.model` — the uniform vectorized prediction surface
  (:class:`ServedModel`, bit-identical to the design's ``run_batch``);
* :mod:`repro.serve.batching` — the micro-batching queue
  (:class:`MicroBatcher`, ``max_batch_size`` / ``max_latency_ms``);
* :mod:`repro.serve.server` — :class:`ModelServer`: per-model lanes and
  stats in one process;
* :mod:`repro.serve.worker` — the pre-fork fleet: a supervisor that
  forks N full servers, hands them connections, restarts the dead,
  merges ``/stats`` and drains on SIGTERM;
* :mod:`repro.serve.transport` — the length-prefixed binary frame
  protocol the job service's workers speak;
* :mod:`repro.serve.http` / :mod:`repro.serve.client` — the stdlib HTTP
  endpoint (``repro-serve``) and its client;
* :mod:`repro.serve.stats` — requests/s, batch occupancy, p50/p99 latency
  (the ``/stats`` route);
* :mod:`repro.serve.loadgen` — seeded open/closed-loop load generation,
  p50/p99/p999 SLO measurement and saturation search;
* :mod:`repro.serve.bench` — the ``BENCH_serving.json`` throughput
  benchmark: the >=5x micro-batching floor plus the pre-fork fleet against
  one process, both over HTTP.

Example::

    from repro.core.design_flow import fast_config
    from repro.serve import ModelRegistry, ModelServer

    registry = ModelRegistry(config=fast_config())
    with ModelServer(registry) as server:
        server.predict("redwine/ours", [0.5] * 11)   # 11 redwine features
"""

from repro.serve.batching import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_LATENCY_MS,
    BatcherClosed,
    MicroBatcher,
)
from repro.serve.bench import run_multi_worker_benchmark, run_serving_benchmark
from repro.serve.client import HTTPClient, HTTPError
from repro.serve.http import ServingHTTPServer, build_http_server, serve_in_thread
from repro.serve.loadgen import (
    LoadResult,
    ModelTraffic,
    find_saturation,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.model import ServedModel
from repro.serve.registry import ModelRegistry, parse_model_name
from repro.serve.server import ModelServer, ServerClosed
from repro.serve.stats import StatsRecorder
from repro.serve.transport import TransportError, WorkerCrashed

__all__ = [
    "BatcherClosed",
    "MicroBatcher",
    "run_multi_worker_benchmark",
    "run_serving_benchmark",
    "HTTPClient",
    "HTTPError",
    "ServingHTTPServer",
    "build_http_server",
    "serve_in_thread",
    "LoadResult",
    "ModelTraffic",
    "find_saturation",
    "run_closed_loop",
    "run_open_loop",
    "ServedModel",
    "ModelRegistry",
    "parse_model_name",
    "DEFAULT_MAX_BATCH_SIZE",
    "DEFAULT_MAX_LATENCY_MS",
    "ModelServer",
    "ServerClosed",
    "StatsRecorder",
    "TransportError",
    "WorkerCrashed",
]
