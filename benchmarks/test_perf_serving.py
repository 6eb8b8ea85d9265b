"""Perf-smoke probes for the batch serving subsystem.

Runs the same measurement as ``scripts/bench_serving.py`` (fewer requests so
the tier-1 suite stays fast), refreshes ``BENCH_serving.json`` and asserts
the floors every PR must keep:

* micro-batched concurrent serving reaches >=5x the one-request-at-a-time
  throughput (the whole point of the micro-batching queue);
* served class ids are bit-identical to the design's direct ``run_batch``;
* micro-batches actually coalesce (mean batch size well above 1);
* the pre-fork fleet (``repro-serve --workers 4``) and one server process
  both answer bit-identically to ``simulate_batch`` over HTTP on a 4-model
  mix, and — on hosts with enough cores for process parallelism to exist —
  the fleet reaches >=2.5x the single-process aggregate throughput.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.serve.bench import (
    run_multi_worker_benchmark,
    run_serving_benchmark,
    write_benchmark,
)

#: The acceptance floor: micro-batched throughput vs the serial path.
SPEEDUP_FLOOR = 5.0

#: The acceptance floor: fleet aggregate req/s vs single process at 4 workers.
FLEET_SPEEDUP_FLOOR = 2.5

#: Cores needed before the fleet floor is physically meaningful (4 children
#: plus the load generator cannot beat one process on fewer).
FLEET_FLOOR_MIN_CPUS = 4


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture(scope="module")
def serving_results():
    """One shared benchmark run (trains the fast-config model once)."""
    return run_serving_benchmark(n_requests=2048, n_serial=256)


@pytest.fixture(scope="module")
def fleet_results():
    """One shared multi-worker run (4-model mix, 4 children vs one process)."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fleet benchmark needs the fork start method")
    return run_multi_worker_benchmark(
        requests_per_client=512, slo_duration_s=1.0
    )


@pytest.mark.perf_smoke
def test_microbatched_throughput_floor(serving_results):
    """Concurrent micro-batched serving is >=5x one-request-at-a-time."""
    best = serving_results["best"]
    assert best["speedup_vs_serial"] >= SPEEDUP_FLOOR, (
        f"micro-batched serving reached only "
        f"{best['speedup_vs_serial']:.1f}x the serial path "
        f"(floor: {SPEEDUP_FLOOR}x; "
        f"serial {serving_results['serial']['requests_per_s']:.0f} req/s, "
        f"batched {best['requests_per_s']:.0f} req/s)"
    )


@pytest.mark.perf_smoke
def test_served_predictions_bit_identical(serving_results):
    """Every served class id equals the direct ``run_batch`` answer."""
    assert serving_results["bit_identical_to_run_batch"]


@pytest.mark.perf_smoke
def test_microbatches_coalesce(serving_results):
    """Under concurrent load the queue actually builds multi-sample batches."""
    largest = max(serving_results["batched"], key=lambda m: m["max_batch_size"])
    assert largest["mean_batch_size"] > 1.5, (
        f"mean micro-batch size {largest['mean_batch_size']:.2f}: requests "
        "are not coalescing"
    )


@pytest.mark.perf_smoke
def test_fleet_bit_identical_to_oracle(fleet_results):
    """The fleet and one process both answer exactly like ``simulate_batch``.

    Asserted unconditionally: bit-exactness is structural (every child is
    the single-process server) and must hold on any host, fast or slow.
    """
    assert fleet_results["bit_identical_to_single_process"]
    assert fleet_results["fleet"]["n_errors"] == 0
    assert fleet_results["fleet"]["workers_alive"] == fleet_results["workers"]
    assert fleet_results["fleet"]["worker_restarts"] == 0


@pytest.mark.perf_smoke
def test_fleet_slo_sections_present(fleet_results):
    """Sustained and bursty open-loop runs report full latency tails."""
    for pattern in ("sustained", "bursty"):
        slo = fleet_results["slo"][pattern]
        assert slo["n_requests"] > 0
        assert (
            0.0
            <= slo["latency_p50_ms"]
            <= slo["latency_p99_ms"]
            <= slo["latency_p999_ms"]
        )
    assert fleet_results["saturation"]["saturation_rate_per_s"] > 0.0


@pytest.mark.perf_smoke
@pytest.mark.skipif(
    _usable_cpus() < FLEET_FLOOR_MIN_CPUS,
    reason=f"fleet speedup floor needs >= {FLEET_FLOOR_MIN_CPUS} usable cores "
    f"(host has {_usable_cpus()}): 4 worker processes cannot outrun one "
    "process without processor parallelism",
)
def test_fleet_throughput_floor(fleet_results):
    """4 workers on a 4-model mix reach >=2.5x single-process aggregate req/s."""
    speedup = fleet_results["speedup_vs_single_process"]
    assert speedup >= FLEET_SPEEDUP_FLOOR, (
        f"fleet reached only {speedup:.2f}x the single-process server "
        f"(floor: {FLEET_SPEEDUP_FLOOR}x on "
        f"{fleet_results['effective_cpus']:.0f} CPUs; single "
        f"{fleet_results['single_process']['aggregate_requests_per_s']:.0f} "
        f"req/s, fleet "
        f"{fleet_results['fleet']['aggregate_requests_per_s']:.0f} req/s)"
    )


@pytest.mark.perf_smoke
def test_record_serving_benchmark(serving_results, fleet_results):
    """Refresh the tracked ``BENCH_serving.json`` artifact (fleet included)."""
    results = dict(serving_results)
    results["multi_worker"] = fleet_results
    path = write_benchmark(results)
    assert path.is_file()
