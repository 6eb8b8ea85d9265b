"""Flow-execution benchmarks: Table I regeneration throughput and caching.

Measures what the :mod:`repro.core.flow_executor` subsystem buys on the most
expensive evaluation surface — regenerating the paper's Table I — and records
the results to ``BENCH_flow.json`` so flow throughput is tracked PR over PR:

* **cold** — every (dataset, kind) pair trained from scratch (the seed
  behaviour), in table rows per second;
* **warm** — the same regeneration served entirely from the persistent
  on-disk cache (in-process caches cleared first), plus the warm-vs-cold
  speedup and the number of training calls the warm run executed (must be 0);
* **sharded** — a cold regeneration fanned out across worker processes via
  ``jobs=`` (informative on multi-core hosts; the result is bit-identical to
  the serial path either way).

Entry points: ``python scripts/bench_flow.py`` (writes the JSON) and
``pytest benchmarks/test_perf_flow.py`` (asserts the warm-cache floor and
refreshes the JSON).  Both use :func:`run_flow_benchmark`.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.design_flow import (
    MODEL_KINDS,
    clear_flow_cache,
    fast_config,
    load_training_kernels,
    training_run_count,
)
from repro.core.flow_executor import FlowResultCache
from repro.eval.table1 import generate_table1, table1_aggregates


from repro.core.paths import bench_output_path as _bench_output_path

#: Default location of the recorded benchmark results (repository root,
#: regardless of the directory the benchmark is launched from).
DEFAULT_OUTPUT = _bench_output_path("BENCH_flow.json")

#: Datasets the benchmark regenerates (a representative Table I subset that
#: keeps the cold run to a few seconds with the fast configuration).
DEFAULT_DATASETS = ("redwine", "cardio")


def run_flow_benchmark(
    datasets: Sequence[str] = DEFAULT_DATASETS,
    jobs: Optional[int] = None,
    warm_repeats: int = 3,
) -> Dict:
    """Benchmark cold / warm / sharded Table I regeneration.

    Parameters
    ----------
    datasets:
        Table I datasets to regenerate.
    jobs:
        Worker count of the sharded cold run (default: every core, at least 2
        so the process-pool path is exercised even on one-core hosts).
    warm_repeats:
        The warm measurement is best-of-``warm_repeats`` with the in-process
        caches cleared before each repeat, so it always times the on-disk
        layer rather than the in-memory one.

    Example::

        results = run_flow_benchmark(datasets=("redwine",))
        results["warm"]["speedup_vs_cold"]      # >= 5 on any healthy host
        results["warm"]["training_calls"]       # always 0
    """
    datasets = list(datasets)
    config = fast_config()
    n_jobs = jobs if jobs is not None else max(2, os.cpu_count() or 1)
    # One-time set-up outside every timer: the toolchain probe and the load
    # (or compile) of the trainers' epoch kernels.  The forked shards inherit
    # the loaded kernels, so charging them to the cold pass alone would
    # inflate the sharded speedup in a fresh process.
    load_training_kernels(MODEL_KINDS)

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cache = FlowResultCache(tmp)

        clear_flow_cache()
        trainings_before = training_run_count()
        start = time.perf_counter()
        table_cold = generate_table1(datasets=datasets, config=config, cache=cache)
        t_cold = time.perf_counter() - start
        cold_trainings = training_run_count() - trainings_before
        n_rows = len(table_cold.entries)
        aggregates_cold = table1_aggregates(table_cold)

        t_warm = float("inf")
        warm_trainings = 0
        for _ in range(warm_repeats):
            clear_flow_cache()
            trainings_before = training_run_count()
            start = time.perf_counter()
            table_warm = generate_table1(datasets=datasets, config=config, cache=cache)
            t_warm = min(t_warm, time.perf_counter() - start)
            warm_trainings += training_run_count() - trainings_before
        aggregates_warm = table1_aggregates(table_warm)
        identical = aggregates_warm == aggregates_cold and [
            e.measured for e in table_warm.entries
        ] == [e.measured for e in table_cold.entries]

    # Sharded cold run: fresh processes, no persistent layer, jobs workers.
    clear_flow_cache()
    start = time.perf_counter()
    table_sharded = generate_table1(
        datasets=datasets, config=config, cache=False, jobs=n_jobs
    )
    t_sharded = time.perf_counter() - start
    sharded_identical = table1_aggregates(table_sharded) == aggregates_cold and [
        e.measured for e in table_sharded.entries
    ] == [e.measured for e in table_cold.entries]

    return {
        "benchmark": "flow_execution",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": float(os.cpu_count() or 1),
        "datasets": datasets,
        "n_rows": float(n_rows),
        "cold": {
            "seconds": t_cold,
            "rows_per_s": n_rows / t_cold,
            "training_calls": float(cold_trainings),
        },
        "warm": {
            "seconds": t_warm,
            "rows_per_s": n_rows / t_warm,
            "training_calls": float(warm_trainings),
            "speedup_vs_cold": t_cold / t_warm,
            "bit_identical_to_cold": identical,
        },
        "sharded": {
            "jobs": float(n_jobs),
            "seconds": t_sharded,
            "rows_per_s": n_rows / t_sharded,
            "speedup_vs_cold": t_cold / t_sharded,
            "bit_identical_to_cold": sharded_identical,
        },
    }


def write_benchmark(results: Dict, path: Union[str, Path, None] = None) -> Path:
    """Serialize a results document to ``BENCH_flow.json``."""
    path = Path(path) if path is not None else DEFAULT_OUTPUT
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    """CLI used by ``scripts/bench_flow.py``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Measure Table I flow throughput and record BENCH_flow.json."
    )
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=list(DEFAULT_DATASETS),
        help="Table I datasets to regenerate",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker count of the sharded run (default: all cores, min 2)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"output JSON path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)
    results = run_flow_benchmark(datasets=args.datasets, jobs=args.jobs)
    path = write_benchmark(results, args.output)
    print(
        f"cold    {results['cold']['rows_per_s']:8.2f} rows/s "
        f"({results['cold']['training_calls']:.0f} trainings)"
    )
    print(
        f"warm    {results['warm']['rows_per_s']:8.2f} rows/s "
        f"({results['warm']['speedup_vs_cold']:.1f}x vs cold, "
        f"{results['warm']['training_calls']:.0f} trainings)"
    )
    print(
        f"sharded {results['sharded']['rows_per_s']:8.2f} rows/s "
        f"(jobs={results['sharded']['jobs']:.0f}, "
        f"{results['sharded']['speedup_vs_cold']:.2f}x vs cold)"
    )
    print(f"results written to {path}")
    return 0
