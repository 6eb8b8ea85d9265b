"""The four benchmark workloads.

Each is shaped so that one layer does most of the work:

* ``table1_cold`` — cold Table I regeneration; ``ml`` training dominates and
  all six flow stages run;
* ``gates_verify`` — quantized model to verified clocked netlist; ``hw.rtl``
  and ``perf`` only, no training in the op;
* ``serve_http`` — single-sample ``/predict`` over HTTP to a two-worker
  fleet; HTTP, routing, frames and micro-batching, almost no compute;
* ``jobs_grid`` — an 80-job seed sweep through the job scheduler's forked
  workers, journal and store.

A workload drives only public entry points, and each run keeps its flow
cache and ``native-kernels/`` in a private ``REPRO_CACHE_DIR``.  Workloads
look their callees up through the module (``table1.generate_table1``), so
the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import harness, httpload
from perfbench.harness import Phase

#: The five Table I datasets, in the paper's order.
DATASETS = ("cardio", "dermatology", "pendigits", "redwine", "whitewine")
#: Table I columns compared against the published rows.
DEVIATION_COLUMNS = ("accuracy_percent", "area_cm2", "power_mw", "latency_ms", "energy_mj")


def _interrupt_when_parent_dies() -> None:
    """Runs in the server child before exec: SIGINT (a graceful drain) when the benchmark dies."""
    import ctypes

    PR_SET_PDEATHSIG = 1
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGINT)


def _set_cache_dir(path: Path) -> None:
    path.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(path)


def table1_deviation_pct(pairs: Sequence[Tuple[object, object]]) -> float:
    """Mean relative deviation (%) of measured rows from the paper's rows.

    ``pairs`` are ``(measured report, reference row)``; the mean runs over
    every pair and every column of :data:`DEVIATION_COLUMNS`.
    """
    deviations = [
        abs(getattr(m, c) - getattr(r, c)) / abs(getattr(r, c)) * 100.0
        for m, r in pairs
        for c in DEVIATION_COLUMNS
        if getattr(r, c)
    ]
    return statistics.fmean(deviations) if deviations else 0.0


# --------------------------------------------------------------------------- #
# Inputs (pure functions of the seed)
# --------------------------------------------------------------------------- #
def seeded_order(seed: int, items: Sequence) -> list:
    """``items`` in the order the seed picks.

    Table I and the job sweep always hold the same flows, so an op's work
    does not depend on the seed; the seed orders the datasets (and kinds)
    the program is handed.
    """
    order = list(items)
    random.Random(seed).shuffle(order)
    return order


def gates_stimuli(seed: int, n_features: Sequence[int], n_vectors: int):
    """One real-valued ``(n_vectors, m)`` stimulus per design."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return [rng.random((n_vectors, m)) for m in n_features]


def serve_rows(seed: int, n_test_rows: Sequence[int], per_model: int = 32) -> List[List[int]]:
    """Test-split row indices each served model is asked about."""
    rng = random.Random(seed)
    return [sorted(rng.sample(range(n), min(per_model, n))) for n in n_test_rows]


# --------------------------------------------------------------------------- #
# Output checks (pure functions, so corrupted answers can be fed to them)
# --------------------------------------------------------------------------- #
def table1_rows(table) -> Tuple[tuple, ...]:
    """The modelled columns of every row, for the identical-across-ops check."""
    return tuple(
        (
            e.dataset,
            e.model,
            e.measured.accuracy_percent,
            e.measured.area_cm2,
            e.measured.power_mw,
            e.measured.latency_ms,
            e.measured.energy_mj,
            e.measured.cycles_per_classification,
        )
        for e in table.entries
    )


def check_table1(
    rows: Tuple[tuple, ...],
    verified: Sequence[Tuple[Optional[bool], Optional[bool]]],
    first_rows: Optional[Tuple[tuple, ...]],
    n_rows: int = 18,
) -> bool:
    """All rows present, every ``ours`` row verified twice, rows as in op 1.

    ``verified`` holds ``(hardware_verified, sequential_verified)`` of each
    ``ours`` row.
    """
    if len(rows) != n_rows or not verified:
        return False
    if not all(hw is True and seq is True for hw, seq in verified):
        return False
    return first_rows is None or rows == first_rows


def check_gates(verified: object) -> bool:
    """``verify_gate_level`` must return exactly True."""
    return verified is True


def check_jobs(
    failed: int,
    trained: int,
    cache_hits: int,
    store_bytes: bytes,
    first_bytes: Optional[bytes],
    n_jobs: int,
) -> bool:
    """No failed job, every job trained or cached, compacted store as in op 1."""
    if failed != 0 or trained + cache_hits != n_jobs or not store_bytes:
        return False
    return first_bytes is None or store_bytes == first_bytes


# --------------------------------------------------------------------------- #
class Workload:
    """One named workload: set up once, then ops until the phase ends."""

    name = ""
    #: What one unit of ``work_per_s`` is.
    unit = ""
    #: Ops spend their time computing, so their times are scaled to the
    #: reference host speed (:class:`perfbench.harness.HostSpeed`).
    host_bound = True

    def __init__(self, seed: int, base: Path, root: Path) -> None:
        self.seed = int(seed)
        self.base = base
        self.root = root
        self.recorder = None
        self._dirs = 0

    def fresh_dir(self) -> Path:
        """A new, empty directory under the run's private base."""
        self._dirs += 1
        path = self.base / f"op-{self._dirs}"
        path.mkdir()
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def run_phase(self, seconds: float) -> Phase:
        raise NotImplementedError

    def begin_trace(self, tracer) -> None:
        """Install the span wrappers before the traced phase."""
        tracer.install()
        self.recorder = tracer.recorder

    def peak_rss_mb(self) -> float:
        return harness.vm_hwm_mb(os.getpid())

    def totals(self) -> Dict[str, float]:
        """Program-reported totals for the per-layer failure counters."""
        return {}

    def modelled(self) -> Dict[str, float]:
        """Deterministic model statistics: identical for one seed on any host."""
        return {"model.table1_dev_pct": 0.0, "model.cycles_per_class": 0.0, "model.vector_cycles": 0.0}

    def teardown(self) -> None:
        pass


class Table1Cold(Workload):
    """One op regenerates all 18 Table I rows from empty caches.

    ``repro-table1 --fast --verify-hardware --verify-sequential
    --opt-level 2`` run serially with ``engine='auto'``; the seed orders the
    datasets.
    """

    name = "table1_cold"
    unit = "rows"

    def setup(self) -> None:
        from repro.core import design_flow, flow_executor
        from repro.eval import table1
        import repro.hw.opt  # noqa: F401  (imported lazily by the op)
        import repro.hw.rtl.multipliers  # noqa: F401
        import repro.hw.rtl.svm_top  # noqa: F401
        import repro.perf.seqsim  # noqa: F401

        self.design_flow, self.flow_executor, self.table1 = design_flow, flow_executor, table1
        self.config = design_flow.fast_config()
        self.datasets = seeded_order(self.seed, DATASETS)
        # Hashing the package sources is once-per-process lazy set-up.
        flow_executor.code_fingerprint()
        self.first_rows = None
        self.first_table = None

    def _op(self, index: int) -> Tuple[float, bool]:
        cache_dir = self.fresh_dir()
        _set_cache_dir(cache_dir)
        self.design_flow.clear_flow_cache()
        table = self.table1.generate_table1(
            datasets=self.datasets,
            config=self.config,
            verify_hardware=True,
            verify_sequential=True,
            opt_level=2,
            engine="auto",
            cache=self.flow_executor.FlowResultCache(cache_dir),
        )
        self.table1.format_table1(table)
        self.table1.format_table1_optimization(table)
        self.table1.table1_aggregates(table)
        rows = table1_rows(table)
        verified = [
            (e.hardware_verified, e.sequential_verified)
            for e in table.entries
            if e.model == "ours"
        ]
        ok = check_table1(rows, verified, self.first_rows)
        if self.first_rows is None:
            self.first_rows, self.first_table = rows, table
        return float(len(rows)), ok

    def run_phase(self, seconds: float) -> Phase:
        return harness.serial_phase(self._op, seconds)

    def modelled(self) -> Dict[str, float]:
        table = self.first_table
        if table is None:
            return super().modelled()
        ours = [e for e in table.entries if e.model == "ours"]
        return {
            "model.table1_dev_pct": table1_deviation_pct(
                [(e.measured, e.reference) for e in table.entries if e.reference is not None]
            ),
            "model.cycles_per_class": statistics.fmean(
                e.measured.cycles_per_classification for e in ours
            ),
            "model.vector_cycles": float(
                sum(len(e.flow_result.split.X_test) * e.flow_result.design.n_classifiers for e in ours)
            ),
        }


class GatesVerify(Workload):
    """One op: quantized model -> fresh design -> netlist -> verified on 2048 vectors.

    Round-robin over the five fast-config ``ours`` designs, trained in set-up.
    """

    name = "gates_verify"
    unit = "designs"
    n_vectors = 2048

    def setup(self) -> None:
        from repro.core import design_flow, sequential_svm
        import repro.hw.rtl.svm_top  # noqa: F401  (imported lazily by the op)
        import repro.perf.seqsim  # noqa: F401

        _set_cache_dir(self.base / "cache")
        self.sequential_svm = sequential_svm
        config = design_flow.fast_config()
        self.models = [design_flow.run_flow(d, "ours", config).design.model for d in DATASETS]
        self.stimuli = gates_stimuli(
            self.seed, [m.n_features for m in self.models], self.n_vectors
        )

    def _op(self, index: int) -> Tuple[float, bool]:
        slot = index % len(self.models)
        design = self.sequential_svm.SequentialSVMDesign(
            self.models[slot], storage_style="mux", dataset=DATASETS[slot]
        )
        design.gate_netlist()
        verified = design.verify_gate_level(self.stimuli[slot], engine="auto")
        return 1.0, check_gates(verified)

    def run_phase(self, seconds: float) -> Phase:
        return harness.serial_phase(self._op, seconds)

    def modelled(self) -> Dict[str, float]:
        cycles = [m.n_classifiers for m in self.models]
        return {
            "model.table1_dev_pct": 0.0,
            "model.cycles_per_class": statistics.fmean(cycles),
            "model.vector_cycles": self.n_vectors * statistics.fmean(cycles),
        }


class ServeHTTP(Workload):
    """Two closed-loop keep-alive clients against ``repro.serve --workers 2``.

    The server runs as its own process on the five ``<dataset>/ours``
    designs; the seed draws test-split rows.  The traced phase restarts the
    server through ``perfbench/serve_entry.py``, which installs the wrappers
    before ``repro.cli.main_serve`` forks its workers.
    """

    name = "serve_http"
    unit = "requests"
    # A request waits ~40 ms on the network stack and computes ~4 ms.
    host_bound = False
    clients = 2
    boot_timeout_s = 120.0

    def setup(self) -> None:
        self.cache_dir = self.base / "cache"
        _set_cache_dir(self.cache_dir)
        self.models = [f"{d}/ours" for d in DATASETS]
        self.process: Optional[subprocess.Popen] = None
        self._start_server(None)
        self._load_requests()

    # -- server lifecycle ------------------------------------------------ #
    def _start_server(self, span_dir: Optional[str]) -> None:
        args = [
            "--fast", "--workers", "2", "--port", "0",
            "--cache-dir", str(self.cache_dir), "--models", *self.models,
        ]
        if span_dir is None:
            cmd = [sys.executable, "-m", "repro.serve", *args]
        else:
            entry = self.root / "perfbench" / "serve_entry.py"
            cmd = [sys.executable, str(entry), span_dir, *args]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.log = open(self.base / f"server-{time.monotonic_ns()}.log", "w")
        self.process = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, text=True, env=env,
            preexec_fn=_interrupt_when_parent_dies,
        )
        # A server that never prints its address is killed, which ends the read.
        watchdog = threading.Timer(self.boot_timeout_s, self.process.kill)
        watchdog.start()
        self.port = None
        try:
            for line in self.process.stdout:
                if line.startswith("serving on http://"):
                    self.port = int(line.split("//", 1)[1].split(":")[1].split()[0])
                    break
        finally:
            watchdog.cancel()
        if self.port is None:
            self._stop_server()
            raise RuntimeError(f"server did not start; its log is {self.log.name}")
        deadline = time.monotonic() + self.boot_timeout_s
        while not self._get("/healthz").get("ready"):
            if time.monotonic() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.02)
        # Warm-up: the first request per model waits for its lane to train.
        for name in self.models:
            n_features = self._n_features(name)
            self._post({"model": name, "features": [0.5] * n_features})

    def _get(self, path: str) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}{path}", timeout=60) as r:
            return json.loads(r.read())

    def _post(self, doc: dict) -> dict:
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.port}/predict",
            data=json.dumps(doc).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=120) as r:
            return json.loads(r.read())

    def _n_features(self, name: str) -> int:
        if not hasattr(self, "_features"):
            self._features = {m["name"]: int(m["n_features"]) for m in self._get("/models")["models"]}
        return self._features[name]

    def _stop_server(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
        process.stdout.close()
        self.log.close()

    # -- requests -------------------------------------------------------- #
    def _load_requests(self) -> None:
        """Seeded test-split rows with the served design's own predictions."""
        from repro.core.design_flow import fast_config
        from repro.core.flow_executor import FlowResultCache
        from repro.serve.model import ServedModel

        cache = FlowResultCache(self.cache_dir)
        results = []
        for name, dataset in zip(self.models, DATASETS):
            result = cache.load(dataset, "ours", fast_config())
            if result is None:
                raise RuntimeError(f"the server left no cached flow result for {name}")
            results.append(result)
        picks = serve_rows(self.seed, [len(r.split.X_test) for r in results])
        self.bodies: List[Tuple[bytes, int]] = []
        self.served = []
        for name, result, rows in zip(self.models, results, picks):
            served = ServedModel.from_flow_result(result, name=name)
            self.served.append(served)
            X = result.split.X_test
            expected = served.predict_ids(X[rows])
            for row, want in zip(rows, expected):
                body = json.dumps({"model": name, "features": X[row].tolist()}).encode()
                self.bodies.append((body, int(want)))

    def run_phase(self, seconds: float) -> Phase:
        phase = httpload.closed_loop(
            "127.0.0.1", self.port, self.bodies, seconds, self.seed,
            clients=self.clients, recorder=self.recorder,
        )
        self._errors = phase.failed
        return phase

    def begin_trace(self, tracer) -> None:
        super().begin_trace(tracer)
        self._stop_server()
        self._start_server(tracer.span_dir)

    def peak_rss_mb(self) -> float:
        return harness.TreeMemory(self.process.pid).sample()

    def totals(self) -> Dict[str, float]:
        stats = self._get("/stats")
        restarts = sum(int(w.get("restarts", 0)) for w in stats.get("workers", []))
        return {"serve.errors": float(self._errors), "serve.worker_restarts": float(restarts)}

    def modelled(self) -> Dict[str, float]:
        cycles = [s.design.n_classifiers for s in self.served]
        return {"model.table1_dev_pct": 0.0, "model.cycles_per_class": statistics.fmean(cycles), "model.vector_cycles": 0.0}

    def teardown(self) -> None:
        self._stop_server()


class JobsGrid(Workload):
    """One op drains an 80-job seed sweep through ``JobScheduler(workers=2)``.

    5 datasets x 4 kinds x split seeds 0-3 at ``fast_config(n_samples=200)``,
    into a fresh manifest and store, then ``compact()``; the benchmark seed
    orders the datasets and kinds.  The flow cache is pre-filled for the two
    lowest split seeds in set-up and copied into a fresh directory before
    each op, outside the timer.
    """

    name = "jobs_grid"
    unit = "jobs"
    workers = 2

    def setup(self) -> None:
        from repro.core import design_flow, flow_executor
        from repro.jobs import manifest, scheduler, store

        self.design_flow, self.flow_executor = design_flow, flow_executor
        self.manifest, self.scheduler, self.store = manifest, scheduler, store
        _set_cache_dir(self.base / "cache")
        base = design_flow.fast_config(n_samples=200)
        self.configs = [replace(base, split_seed=s) for s in range(4)]
        self.datasets = seeded_order(self.seed, DATASETS)
        self.kinds = seeded_order(self.seed + 1, design_flow.MODEL_KINDS)
        self.n_jobs = len(self.datasets) * len(self.kinds) * len(self.configs)
        self.prefill = self.base / "prefill"
        pairs = [(d, k) for d in self.datasets for k in self.kinds]
        for config in self.configs[:2]:
            flow_executor.execute_flow_grid(
                pairs, config=config, jobs=self.workers,
                cache=flow_executor.FlowResultCache(self.prefill),
            )
        design_flow.clear_flow_cache()
        self.first_bytes: Optional[bytes] = None
        self.summaries = []
        self.memory = harness.TreeMemory(os.getpid())

    def _prepare(self, index: int) -> None:
        self.op_dir = op_dir = self.fresh_dir()
        shutil.copytree(self.prefill, op_dir / "cache")
        _set_cache_dir(op_dir / "cache")
        self.design_flow.clear_flow_cache()

    def _op(self, index: int) -> Tuple[float, bool]:
        op_dir = self.op_dir
        with self.manifest.JobManifest(op_dir / "manifest.jsonl") as journal, \
                self.store.ResultStore(op_dir / "results.jsonl") as results:
            for config in self.configs:
                self.scheduler.submit_grid(journal, self.datasets, self.kinds, config)
            summary = self.scheduler.JobScheduler(
                journal, results,
                cache=self.flow_executor.FlowResultCache(op_dir / "cache"),
                workers=self.workers,
            ).run()
            compacted = Path(results.compact()).read_bytes()
        self.summaries.append(summary)
        ok = check_jobs(
            summary.failed, summary.trained, summary.cache_hits,
            compacted, self.first_bytes, self.n_jobs,
        )
        if self.first_bytes is None:
            self.first_bytes = compacted
        return float(summary.completed - summary.failed), ok

    def run_phase(self, seconds: float) -> Phase:
        self.summaries = []
        self.memory.start()
        try:
            return harness.serial_phase(self._op, seconds, prepare=self._prepare)
        finally:
            self.memory.stop()

    def peak_rss_mb(self) -> float:
        return self.memory.peak_mb

    def totals(self) -> Dict[str, float]:
        return {
            "jobs.retries": float(sum(s.retries for s in self.summaries)),
            "jobs.failed": float(sum(s.failed for s in self.summaries)),
            "jobs.completed": float(sum(s.completed for s in self.summaries)),
            "jobs.cache_hits": float(sum(s.cache_hits for s in self.summaries)),
        }

    def modelled(self) -> Dict[str, float]:
        from repro.eval.reference import MODEL_TO_KIND, reference_row
        from repro.eval.table1 import report_from_store_record

        if self.first_bytes is None:
            return super().modelled()
        model_of = {kind: model for model, kind in MODEL_TO_KIND.items()}
        pairs, cycles = [], []
        for line in self.first_bytes.decode().splitlines():
            record = json.loads(line)
            report = report_from_store_record(record)
            if record["kind"] == "ours":
                cycles.append(report.cycles_per_classification)
            try:
                pairs.append((report, reference_row(record["dataset"], model_of[record["kind"]])))
            except KeyError:
                continue  # the paper reports no row for this pair
        return {
            "model.table1_dev_pct": table1_deviation_pct(pairs),
            "model.cycles_per_class": statistics.fmean(cycles),
            "model.vector_cycles": 0.0,
        }


WORKLOADS = {w.name: w for w in (Table1Cold, GatesVerify, ServeHTTP, JobsGrid)}
