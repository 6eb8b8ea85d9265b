"""Serving-throughput benchmark: micro-batching vs one-request-at-a-time.

Measures the request-facing layer end to end — validation, the micro-batch
queue, the vectorized ``run_batch`` kernel, stats — and records the
trajectory to ``BENCH_serving.json``:

* **serial** — single predict requests issued strictly one at a time (each
  waits for its answer before the next is submitted): the no-coalescing
  baseline, dominated by per-request queue handoff and a batch-of-1 kernel;
* **batched** — the same number of single-sample requests offered
  concurrently from several client threads at each ``max_batch_size``: the
  requests coalesce into few vectorized micro-batches, which is the whole
  point of the subsystem.  Recorded per batch size with the measured
  occupancy, so throughput-vs-batch-size is tracked PR over PR;
* a **bit-exactness** check that the served class ids equal the design's
  direct ``run_batch`` answers on the same rows;
* **multi_worker** — the pre-fork fleet (``repro-serve --workers 4``) vs
  one server process, both over HTTP, on a multi-model mix: closed-loop
  aggregate throughput (the speedup claim), open-loop sustained and bursty
  SLO runs with p50/p99/p999 tails, the saturation knee, and bit-exactness
  of both against the designs' ``simulate_batch``.

Entry points: ``python scripts/bench_serving.py`` (writes the JSON;
``--compare --baseline`` diffs instead) and
``pytest benchmarks/test_perf_serving.py`` (asserts the floors).

Example::

    results = run_serving_benchmark(n_requests=2048)
    results["best"]["speedup_vs_serial"]      # >= 5.0 on any healthy host
    fleet = run_multi_worker_benchmark(workers=4)
    fleet["bit_identical_to_single_process"]  # always True
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.benchcompare import (
    BenchmarkBaselineError,
    bad_input_exit,
    compare_benchmarks,
    load_baseline,
)
from repro.core.design_flow import fast_config
from repro.core.flow_executor import run_flow_cached
from repro.core.paths import bench_output_path
from repro.serve.client import HTTPClient
from repro.serve.http import serve_in_thread
from repro.serve.loadgen import (
    HTTPTarget,
    ModelTraffic,
    find_saturation,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.registry import ModelRegistry
from repro.serve.server import ModelServer
from repro.serve.worker import spawn_fleet, stop_fleet

#: Default location of the recorded results (repository root).
DEFAULT_OUTPUT = bench_output_path("BENCH_serving.json")

#: Micro-batch ceilings the throughput sweep measures.
DEFAULT_BATCH_SIZES = (8, 32, 256)

#: Client threads offering the concurrent load.
DEFAULT_CLIENT_THREADS = 4

#: The >=4-model mix the multi-worker section serves.
DEFAULT_FLEET_DATASETS = ("redwine", "whitewine", "cardio", "dermatology")

#: Worker processes in the default fleet measurement.
DEFAULT_WORKERS = 4


def _effective_cpus() -> float:
    """CPUs this process may actually run on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return float(len(os.sched_getaffinity(0)))
    return float(os.cpu_count() or 1)


def _request_rows(X: np.ndarray, n_requests: int) -> np.ndarray:
    """Cycle the test split into ``n_requests`` single-sample rows."""
    reps = int(np.ceil(n_requests / max(X.shape[0], 1)))
    return np.tile(X, (reps, 1))[:n_requests]


def _measure_serial(server: ModelServer, name: str, rows: np.ndarray) -> Dict:
    """One-request-at-a-time baseline over the full serving stack."""
    start = time.perf_counter()
    for row in rows:
        server.predict(name, row)
    elapsed = time.perf_counter() - start
    return {
        "n_requests": int(rows.shape[0]),
        "seconds": elapsed,
        "requests_per_s": rows.shape[0] / elapsed,
    }


def _measure_batched(
    server: ModelServer,
    name: str,
    rows: np.ndarray,
    n_threads: int,
    burst: int = 64,
) -> Dict:
    """Concurrent single-sample load: ``n_threads`` clients, all rows.

    Each client offers its share of the traffic in bursts of ``burst``
    single-sample requests (every row keeps its own future), mimicking a
    connection handler that drains its accept queue into the server.
    """
    futures: List = [None] * rows.shape[0]
    chunks = np.array_split(np.arange(rows.shape[0]), n_threads)

    def client(indices: np.ndarray) -> None:
        for lo in range(0, indices.size, burst):
            window = indices[lo : lo + burst]
            for i, future in zip(
                window, server.submit_many(name, rows[window[0] : window[-1] + 1])
            ):
                futures[i] = future

    threads = [
        threading.Thread(target=client, args=(chunk,), daemon=True)
        for chunk in chunks
        if chunk.size
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ids = np.asarray([future.result()[0] for future in futures], dtype=np.int64)
    elapsed = time.perf_counter() - start

    snapshot = server.stats()["models"][name]
    return {
        "n_requests": int(rows.shape[0]),
        "client_threads": n_threads,
        "seconds": elapsed,
        "requests_per_s": rows.shape[0] / elapsed,
        "mean_batch_size": snapshot["mean_batch_size"],
        "batch_occupancy": snapshot["batch_occupancy"],
        "ids": ids,
    }


def run_serving_benchmark(
    dataset: str = "redwine",
    kind: str = "ours",
    n_requests: int = 4096,
    n_serial: int = 512,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    client_threads: int = DEFAULT_CLIENT_THREADS,
    repeats: int = 3,
) -> Dict:
    """Benchmark the serving subsystem on one flow-trained model.

    The model is trained (or loaded) once through the standard flow path;
    every configuration then serves real test-split feature vectors.

    Parameters
    ----------
    dataset / kind:
        Which Table I design to serve (fast flow configuration).
    n_requests / n_serial:
        Concurrent requests per batched measurement and serial baseline
        requests (the serial path is slow by construction, so fewer).
    batch_sizes:
        ``max_batch_size`` values of the throughput sweep.
    client_threads:
        Concurrent client threads offering the batched load.
    repeats:
        Each batched point is measured ``repeats`` times and the best run
        kept (thread-scheduling noise otherwise dominates single runs);
        bit-exactness is asserted on *every* run, not just the best.

    Example::

        results = run_serving_benchmark(n_requests=2048)
        results["best"]["speedup_vs_serial"]     # >= 5 on any healthy host
        results["bit_identical_to_run_batch"]    # always True
    """
    config = fast_config()
    # cache=False keeps the benchmark hermetic (no writes to the user cache);
    # the in-process flow cache still makes the registry load instant.
    result = run_flow_cached(dataset, kind, config, cache=False)
    name = f"{dataset}/{kind}"
    registry = ModelRegistry(config=config, cache=False)
    rows = _request_rows(result.split.X_test, n_requests)

    # Ground truth straight off the vectorized datapath simulator.
    expected_ids = np.asarray(result.design.simulate_batch(rows), dtype=np.int64)

    with ModelServer(registry, max_batch_size=1, max_latency_ms=0.0) as serial_server:
        serial = _measure_serial(serial_server, name, rows[:n_serial])

    batched: List[Dict] = []
    bit_identical = True
    for max_batch_size in batch_sizes:
        best_point: Optional[Dict] = None
        for _ in range(max(repeats, 1)):
            with ModelServer(
                registry, max_batch_size=max_batch_size, max_latency_ms=0.5
            ) as server:
                measured = _measure_batched(server, name, rows, client_threads)
            ids = measured.pop("ids")
            bit_identical = bit_identical and bool(np.array_equal(ids, expected_ids))
            if best_point is None or measured["requests_per_s"] > best_point["requests_per_s"]:
                best_point = measured
        best_point["max_batch_size"] = int(max_batch_size)
        best_point["speedup_vs_serial"] = (
            best_point["requests_per_s"] / serial["requests_per_s"]
        )
        batched.append(best_point)

    best = max(batched, key=lambda m: m["requests_per_s"])
    return {
        "benchmark": "serving",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": float(os.cpu_count() or 1),
        "model": name,
        "backend": registry.get(name).backend,
        "serial": serial,
        "batched": batched,
        "best": {
            "max_batch_size": best["max_batch_size"],
            "requests_per_s": best["requests_per_s"],
            "speedup_vs_serial": best["speedup_vs_serial"],
        },
        "bit_identical_to_run_batch": bit_identical,
    }


def run_multi_worker_benchmark(
    datasets: Sequence[str] = DEFAULT_FLEET_DATASETS,
    kind: str = "ours",
    workers: int = DEFAULT_WORKERS,
    client_threads: int = DEFAULT_CLIENT_THREADS,
    requests_per_client: int = 1024,
    burst: int = 64,
    slo_duration_s: float = 1.5,
    seed: int = 0,
) -> Dict:
    """The pre-fork fleet vs one server process, over HTTP, on a model mix.

    Every dataset's design is trained (fast flow configuration) in this
    process first, so the forked fleet inherits the warm flow cache and
    boots without retraining.  The same closed-loop load then runs, through
    one :class:`~repro.serve.loadgen.HTTPTarget` per server, against a
    ``ModelServer`` behind :func:`~repro.serve.http.serve_in_thread` and
    against a fleet of ``workers`` children; the fleet adds open-loop
    sustained/bursty SLO runs and a saturation ramp.

    Bit-exactness is structural — every child is a single-process server —
    and verified anyway: both servers' answers are compared against the
    designs' direct ``simulate_batch`` ids.

    Example::

        fleet = run_multi_worker_benchmark(workers=4)
        fleet["speedup_vs_single_process"]      # >= 2.5 on a >=4-core host
        fleet["slo"]["bursty"]["latency_p999_ms"]
    """
    config = fast_config()
    registry = ModelRegistry(config=config, cache=False)
    mix: List[ModelTraffic] = []
    expected: Dict[str, np.ndarray] = {}
    for dataset in datasets:
        result = run_flow_cached(dataset, kind, config, cache=False)
        name = f"{dataset}/{kind}"
        rows = np.asarray(result.split.X_test, dtype=float)
        mix.append(ModelTraffic(name, rows))
        expected[name] = np.asarray(result.design.simulate_batch(rows), np.int64)
    names = [traffic.name for traffic in mix]

    def bit_exact(target: HTTPTarget) -> bool:
        return all(
            np.array_equal(target.predict_ids(t.name, t.rows), expected[t.name])
            for t in mix
        )

    def closed_loop(target: HTTPTarget):
        return run_closed_loop(
            target,
            mix,
            n_clients=client_threads,
            requests_per_client=requests_per_client,
            burst=burst,
            seed=seed,
        )

    with ModelServer(registry, max_latency_ms=0.5) as oracle:
        for name in names:
            oracle.open_lane(name)
        httpd = serve_in_thread(oracle)
        try:
            host, port = httpd.server_address[:2]
            with HTTPTarget(f"http://{host}:{port}") as target:
                oracle_exact = bit_exact(target)
                single = closed_loop(target)
        finally:
            httpd.shutdown()
            httpd.server_close()

    pid, url = spawn_fleet(registry, names, workers, max_latency_ms=0.5)
    try:
        HTTPClient(url).wait_ready()
        with HTTPTarget(url) as target:
            fleet_exact = bit_exact(target)
            closed = closed_loop(target)
            # A bulk request of `burst` rows costs a single-row request at
            # least, so the closed loop's request rate is a rate the open
            # loop sustains: start the knee search at half of it, and run
            # the SLO runs at half the knee, where tails show service jitter
            # rather than a queue growing without bound.
            saturation = find_saturation(
                target,
                mix,
                start_rate=max(0.5 * closed.achieved_rate / burst, 50.0),
                duration_s=0.4,
                max_steps=7,
                seed=seed,
            )
            slo_rate = max(0.5 * saturation["saturation_rate_per_s"], 100.0)
            sustained = run_open_loop(
                target, mix, rate=slo_rate, duration_s=slo_duration_s, seed=seed
            )
            bursty = run_open_loop(
                target,
                mix,
                rate=slo_rate,
                duration_s=slo_duration_s,
                pattern="bursty",
                seed=seed,
            )
        fleet_stats = HTTPClient(url).stats()
    finally:
        stop_fleet(pid)

    return {
        "datasets": list(datasets),
        "kind": kind,
        "workers": int(workers),
        "client_threads": int(client_threads),
        "effective_cpus": _effective_cpus(),
        "single_process": {
            "aggregate_requests_per_s": single.achieved_rate,
            "n_requests": single.n_requests,
            "n_errors": single.n_errors,
        },
        "fleet": {
            "aggregate_requests_per_s": closed.achieved_rate,
            "n_requests": closed.n_requests,
            "n_errors": closed.n_errors,
            "workers_alive": sum(
                1 for w in fleet_stats["workers"] if w["alive"]
            ),
            "worker_restarts": sum(w["restarts"] for w in fleet_stats["workers"]),
        },
        "speedup_vs_single_process": (
            closed.achieved_rate / max(single.achieved_rate, 1e-9)
        ),
        "bit_identical_to_single_process": bool(oracle_exact and fleet_exact),
        "slo": {
            "sustained": sustained.to_json(),
            "bursty": bursty.to_json(),
        },
        "saturation": saturation,
    }


def write_benchmark(results: Dict, path: Union[str, Path, None] = None) -> Path:
    """Serialize a results document to ``BENCH_serving.json``.

    Example::

        write_benchmark(run_serving_benchmark())   # repo-root JSON artifact
    """
    path = Path(path) if path is not None else DEFAULT_OUTPUT
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    """CLI used by ``scripts/bench_serving.py``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Measure serving throughput and record BENCH_serving.json."
    )
    parser.add_argument("--dataset", default="redwine", help="dataset to serve")
    parser.add_argument(
        "--kind", default="ours", help="model kind to serve (Table I row family)"
    )
    parser.add_argument(
        "--requests", type=int, default=4096, help="concurrent requests per sweep point"
    )
    parser.add_argument(
        "--batch-sizes",
        type=int,
        nargs="+",
        default=list(DEFAULT_BATCH_SIZES),
        help="max_batch_size values to sweep",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=DEFAULT_WORKERS,
        help="children of the pre-fork fleet measurement "
        "(0 skips the fleet section entirely)",
    )
    parser.add_argument(
        "--fleet-datasets",
        nargs="+",
        default=list(DEFAULT_FLEET_DATASETS),
        help="datasets in the fleet's multi-model mix",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"output JSON path (default: {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="diff a fresh run against a baseline JSON instead of writing; "
        "prints per-section regressions, exits 0 when the baseline is usable "
        "(trend signal only) and 2 when it is missing or malformed",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_OUTPUT,
        help="baseline JSON for --compare "
        "(default: the committed BENCH_serving.json)",
    )
    args = parser.parse_args(argv)
    baseline = None
    if args.compare:
        # Validate before the (expensive) fresh run: a missing or malformed
        # baseline is a usage error, reported in one line, exit code 2.
        try:
            baseline = load_baseline(args.baseline)
        except BenchmarkBaselineError as error:
            return bad_input_exit("bench_serving --compare", error)
    results = run_serving_benchmark(
        dataset=args.dataset,
        kind=args.kind,
        n_requests=args.requests,
        batch_sizes=args.batch_sizes,
    )
    if args.workers > 0:
        results["multi_worker"] = run_multi_worker_benchmark(
            datasets=args.fleet_datasets,
            kind=args.kind,
            workers=args.workers,
        )
    if args.compare:
        compare_benchmarks(results, baseline)
        return 0
    path = write_benchmark(results, args.output)
    print(
        f"serial  {results['serial']['requests_per_s']:10.0f} req/s "
        f"(one request at a time)"
    )
    for point in results["batched"]:
        print(
            f"batched {point['requests_per_s']:10.0f} req/s "
            f"(max_batch_size={point['max_batch_size']}, "
            f"occupancy={point['batch_occupancy']:.2f}, "
            f"{point['speedup_vs_serial']:.1f}x vs serial)"
        )
    print(
        "bit-identical to run_batch: "
        f"{results['bit_identical_to_run_batch']}"
    )
    if "multi_worker" in results:
        fleet = results["multi_worker"]
        print(
            f"fleet   {fleet['fleet']['aggregate_requests_per_s']:10.0f} req/s "
            f"({fleet['workers']} workers, "
            f"{len(fleet['datasets'])}-model mix, "
            f"{fleet['speedup_vs_single_process']:.2f}x vs single process "
            f"on {fleet['effective_cpus']:.0f} CPUs)"
        )
        for pattern in ("sustained", "bursty"):
            slo = fleet["slo"][pattern]
            print(
                f"slo/{pattern:9s} offered {slo['offered_rate_per_s']:7.0f}/s "
                f"p50 {slo['latency_p50_ms']:.2f}ms "
                f"p99 {slo['latency_p99_ms']:.2f}ms "
                f"p999 {slo['latency_p999_ms']:.2f}ms"
            )
        print(
            "fleet bit-identical to single process: "
            f"{fleet['bit_identical_to_single_process']}"
        )
    print(f"results written to {path}")
    return 0
