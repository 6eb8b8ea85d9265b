"""Which public functions the traced run wraps, and the per-layer metrics.

Every wrapper is installed at the attribute its caller looks up, so a
function imported by name into another module is wrapped there too (for
example ``run_flow`` is wrapped in ``repro.core.flow_executor`` and in
``repro.jobs.worker``, not only where it is defined).  Methods are wrapped on
their class, which reaches every instance.  :meth:`Tracer.install` must run
before any process is forked, so children inherit the wrappers.

Metric conventions (the names are the ``per_layer`` list of
``BENCHMARK.json``):

* ``*_s``: seconds of **self time** per op (a span's duration minus the part
  its child spans cover), so the layers of one process partition an op;
* ``*_ms``: mean duration of one call, in milliseconds;
* counts: per op, except ``serve.errors``, ``serve.worker_restarts``,
  ``jobs.retries`` and ``jobs.failed``, which are totals over the traced phase.
"""

from __future__ import annotations

import bisect
import importlib
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.spans import Span, SpanRecorder, self_times_ns, union_ns

NS = 1e-9
_ABSENT = object()


def _gates(netlist) -> float:
    return float(netlist.n_gates())


def _epochs(args, kwargs, result) -> float:
    history = getattr(result, "history_", None)
    return float(getattr(history, "n_iterations", 0))


def _search_steps(args, kwargs, result) -> float:
    return float(len(result.trace))


def _vector_cycles(args, kwargs, result) -> float:
    # (cycles, n_vectors, n_outputs) trace planes.
    return float(result.shape[0] * result.shape[1])


def _gates_removed(args, kwargs, result) -> float:
    return float(result.stats.gates_before - result.stats.gates_after)


def _file_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(result))


def _length(args, kwargs, result) -> float:
    return float(len(result))


#: ``(module, attribute path, span name, measure)``.  Spans that share a
#: name are one layer; nested same-name spans do not double count because
#: every ``*_s`` metric is a sum of self times.  Two targets are private:
#: ``_kernel_for`` is the only place an engine compiles a kernel, and
#: ``do_POST`` is the stdlib handler hook every ``/predict`` enters.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.design_flow", "load_dataset", "datasets.load", None),
    ("repro.core.design_flow", "prepare_split", "datasets.load", None),
    ("repro.ml.multiclass", "OneVsRestClassifier.fit", "ml.train", None),
    ("repro.ml.multiclass", "OneVsOneClassifier.fit", "ml.train", None),
    ("repro.ml.mlp", "MLPClassifier.fit", "ml.train", None),
    ("repro.ml.svm", "LinearSVC.fit", "ml.svm_fit", _epochs),
    ("repro.core.design_flow", "search_lowest_precision", "ml.quantize", _search_steps),
    ("repro.core.design_flow", "quantize_linear_classifier", "ml.quantize", None),
    ("repro.core.design_flow", "quantize_mlp_classifier", "ml.quantize", None),
    ("repro.eval.table1", "execute_flow_grid", "core.flow", None),
    ("repro.core.flow_executor", "run_flow", "core.flow", None),
    ("repro.jobs.worker", "run_flow", "core.flow", None),
    ("repro.core.sequential_svm", "SequentialSVMDesign.evaluate", "core.flow", None),
    ("repro.core.parallel_svm", "ParallelSVMDesign.evaluate", "core.flow", None),
    ("repro.core.parallel_mlp", "ParallelMLPDesign.evaluate", "core.flow", None),
    ("repro.core.sequential_svm", "SequentialSVMDesign.__init__", "core.generate", None),
    ("repro.core.sequential_svm", "SequentialSVMDesign.hardware", "core.generate", None),
    ("repro.core.parallel_svm", "ParallelSVMDesign.__init__", "core.generate", None),
    ("repro.core.parallel_svm", "ParallelSVMDesign.hardware", "core.generate", None),
    ("repro.core.parallel_mlp", "ParallelMLPDesign.__init__", "core.generate", None),
    ("repro.core.parallel_mlp", "ParallelMLPDesign.hardware", "core.generate", None),
    ("repro.core.flow_executor", "FlowResultCache.store", "core.flow_cache.store", _file_bytes),
    ("repro.core.flow_executor", "FlowResultCache.load", "core.flow_cache.load", None),
    ("repro.hw.timing", "TimingAnalyzer.analyze", "hw.estimate", None),
    ("repro.hw.power", "PowerAnalyzer.analyze", "hw.estimate", None),
    ("repro.hw.area", "AreaAnalyzer.analyze", "hw.estimate", None),
    ("repro.hw.simulate", "SequentialDatapathSimulator.run", "hw.oracle", lambda a, k, r: 1.0),
    ("repro.hw.rtl.svm_top", "verify_sequential_svm_netlist", "hw.oracle", None),
    ("repro.hw.simulate", "SequentialDatapathSimulator.run_batch", "perf.datapath", None),
    ("repro.hw.simulate", "ParallelDatapathSimulator.run_batch", "perf.datapath", None),
    ("repro.hw.rtl.svm_top", "build_sequential_svm_netlist", "hw.rtl.build",
     lambda a, k, r: _gates(r[0])),
    ("repro.hw.rtl.multipliers", "build_constant_mac_netlist", "hw.rtl.build",
     lambda a, k, r: _gates(r)),
    ("repro.hw.netlist", "GateNetlist.bind_dff", "hw.rtl.bind_dff", None),
    ("repro.hw.opt", "optimize", "hw.opt.optimize", _gates_removed),
    ("repro.perf.seqsim", "simulate_sequential_batch", "perf.sim", _vector_cycles),
    ("repro.perf.seqsim", "compile_sequential", "perf.compile", None),
    ("repro.perf.engines", "make_evaluator", "perf.kernel_build", None),
    ("repro.perf.engines", "CodegenEvaluator._kernel_for", "perf.kernel_build", None),
    ("repro.perf.native", "NativeEvaluator._kernel_for", "perf.kernel_build", None),
    ("repro.eval.table1", "generate_table1", "eval.report", None),
    ("repro.eval.table1", "format_table1", "eval.report", None),
    ("repro.eval.table1", "format_table1_optimization", "eval.report", None),
    ("repro.eval.table1", "table1_aggregates", "eval.report", None),
    ("repro.serve.http", "_ServingRequestHandler.do_POST", "serve.http_handler", None),
    ("repro.serve.server", "ModelServer.predict", "serve.frontend", None),
    ("repro.serve.model", "ServedModel.kernel", "serve.kernel", _length),
    ("repro.serve.transport", "FrameConnection.send", "serve.transport.send", None),
    ("repro.serve.transport", "encode", "serve.transport.encode", _length),
    ("repro.serve.transport", "decode", "serve.transport.recv", None),
    ("repro.jobs.worker", "FlowWorker.__init__", "jobs.spawn", None),
    ("repro.jobs.worker", "FlowWorker.call", "jobs.call", None),
    ("repro.jobs.store", "ResultStore.append", "jobs.store_append", None),
    ("repro.jobs.store", "ResultStore.compact", "jobs.compact", None),
    ("repro.jobs.manifest", "JobManifest.start", "jobs.journal_append", None),
    ("repro.jobs.manifest", "JobManifest.done", "jobs.journal_append", None),
    ("repro.jobs.manifest", "JobManifest.failed", "jobs.journal_append", None),
    ("repro.jobs.manifest", "JobManifest.retry", "jobs.journal_append", None),
)

#: Entry points of forked children: wrapped so each child drops the spans
#: it inherited and dumps its own when its loop returns.
CHILD_MAINS: Tuple[Tuple[str, str], ...] = (
    ("repro.jobs.worker", "flow_worker_main"),
    ("repro.serve.worker", "worker_main"),
)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Installs the span wrappers of :data:`TARGETS` and can remove them."""

    def __init__(self, recorder: SpanRecorder, span_dir: str) -> None:
        self.recorder = recorder
        self.span_dir = span_dir
        self._saved: List[Tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target; idempotent per tracer."""
        if self._saved:
            return
        for module_name, path, name, measure in TARGETS:
            owner, attr = _resolve(module_name, path)
            self._replace(owner, attr, self.recorder.wrap(name, getattr(owner, attr), measure))
        owner, attr = _resolve("repro.serve.batching", "MicroBatcher.submit")
        self._replace(owner, attr, self._batcher_submit(getattr(owner, attr)))
        for module_name, attr in CHILD_MAINS:
            owner, attr = _resolve(module_name, attr)
            self._replace(owner, attr, self._child_main(getattr(owner, attr)))

    def uninstall(self) -> None:
        """Restore every original attribute."""
        for owner, attr, original in reversed(self._saved):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved = []

    def _batcher_submit(self, submit: Callable) -> Callable:
        recorder = self.recorder

        def traced_submit(batcher, rows):
            start = time.perf_counter_ns()
            future = submit(batcher, rows)
            future.add_done_callback(
                lambda _f: recorder.add("serve.batcher", start, time.perf_counter_ns())
            )
            return future

        return traced_submit

    def _child_main(self, main: Callable) -> Callable:
        recorder, span_dir = self.recorder, self.span_dir

        def traced_main(*args, **kwargs):
            recorder.reset()
            try:
                return main(*args, **kwargs)
            finally:
                recorder.dump(os.path.join(span_dir, f"spans-{os.getpid()}.json"))

        return traced_main


# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #
#: ``metric -> span names`` for the self-time-per-op metrics.
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "datasets.load_s": ("datasets.load",),
    "ml.train_s": ("ml.train", "ml.svm_fit"),
    "ml.quantize_s": ("ml.quantize",),
    "core.flow_s": ("core.flow",),
    "core.generate_s": ("core.generate",),
    "hw.estimate_s": ("hw.estimate",),
    "hw.opt.optimize_s": ("hw.opt.optimize",),
    "perf.datapath_s": ("perf.datapath",),
    "eval.report_s": ("eval.report",),
    "hw.rtl.build_s": ("hw.rtl.build",),
    "hw.rtl.bind_dff_s": ("hw.rtl.bind_dff",),
    "perf.compile_s": ("perf.compile",),
    "perf.kernel_build_s": ("perf.kernel_build",),
    "perf.sim_s": ("perf.sim",),
    "hw.oracle_s": ("hw.oracle",),
    "jobs.spawn_s": ("jobs.spawn",),
    "jobs.compact_s": ("jobs.compact",),
    "core.flow_cache.store_s": ("core.flow_cache.store",),
    "core.flow_cache.load_s": ("core.flow_cache.load",),
}

#: ``metric -> span name`` for per-op sums of the wrapper-measured value.
VALUE_METRICS: Dict[str, str] = {
    "ml.svm_epochs": "ml.svm_fit",
    "ml.precision_steps": "ml.quantize",
    "hw.opt.gates_removed": "hw.opt.optimize",
    "hw.rtl.gates": "hw.rtl.build",
    "perf.vector_cycles": "perf.sim",
    "hw.oracle_samples": "hw.oracle",
    "core.flow_cache.bytes": "core.flow_cache.store",
}

#: ``metric -> span name`` for the mean duration of one call, in ms.
MEAN_MS_METRICS: Dict[str, str] = {
    "serve.http_handler_ms": "serve.http_handler",
    "serve.frontend_ms": "serve.frontend",
    "serve.batcher_ms": "serve.batcher",
    "serve.kernel_ms": "serve.kernel",
    "serve.transport.send_ms": "serve.transport.send",
    "serve.transport.recv_ms": "serve.transport.recv",
    "jobs.call_ms": "jobs.call",
    "jobs.store_append_ms": "jobs.store_append",
    "jobs.journal_append_ms": "jobs.journal_append",
}

#: Totals a workload reports itself (from the program's public results).
WORKLOAD_TOTALS = ("serve.errors", "serve.worker_restarts", "jobs.retries", "jobs.failed")


class PhaseSpans:
    """The spans of every process that fall inside one traced phase."""

    def __init__(
        self,
        by_pid: Sequence[Tuple[int, Sequence[Span]]],
        window: Tuple[int, int],
        bench_pid: int,
    ) -> None:
        lo, hi = window
        self.bench_pid = bench_pid
        #: ``(pid, span, self_ns)`` for finished spans inside the window.
        self.rows: List[Tuple[int, Span, int]] = []
        self._by_name: Dict[str, List[Tuple[int, Span, int]]] = defaultdict(list)
        for pid, spans in by_pid:
            selfs = self_times_ns(spans)
            for span, own in zip(spans, selfs):
                if span[2] >= 0 and span[1] >= lo and span[2] <= hi:
                    self.rows.append((pid, span, own))
                    self._by_name[span[0]].append((pid, span, own))

    def named(self, name: str, pids: Optional[Callable[[int], bool]] = None):
        return [
            (span, own)
            for pid, span, own in self._by_name.get(name, ())
            if pids is None or pids(pid)
        ]

    def self_s(self, name: str) -> float:
        return sum(own for _span, own in self.named(name)) * NS

    def value(self, name: str) -> float:
        return sum(span[4] for span, _own in self.named(name))

    def mean_ms(self, name: str, pids=None) -> float:
        found = self.named(name, pids)
        if not found:
            return 0.0
        return sum(span[2] - span[1] for span, _ in found) / len(found) * 1e-6

    def count(self, name: str, pids=None) -> int:
        return len(self.named(name, pids))

    def covered_s(self, names: Sequence[str], pids=None) -> float:
        """Time covered by spans of ``names``, nested ones counted once."""
        by_pid: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for name in names:
            for pid, span, _own in self._by_name.get(name, ()):
                if pids is None or pids(pid):
                    by_pid[pid].append((span[1], span[2]))
        return sum(union_ns(intervals) for intervals in by_pid.values()) * NS

    def other_s(self, ops: Sequence[Tuple[int, int]]) -> float:
        """Op time no span of the benchmark process (any thread) covers, per op."""
        merged: List[List[int]] = []
        for start, end in sorted(
            (span[1], span[2]) for pid, span, _ in self.rows if pid == self.bench_pid
        ):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        ends = [end for _start, end in merged]
        uncovered = 0
        for op_start, op_end in ops:
            covered = 0
            index = bisect.bisect_right(ends, op_start)
            while index < len(merged) and merged[index][0] < op_end:
                covered += min(merged[index][1], op_end) - max(merged[index][0], op_start)
                index += 1
            uncovered += (op_end - op_start) - covered
        return uncovered * NS / max(len(ops), 1)


def layer_metrics(
    phase: PhaseSpans,
    ops: Sequence[Tuple[int, int]],
    totals: Dict[str, float],
    workers: int = 2,
) -> Dict[str, float]:
    """Every per-layer metric of one traced phase (see the module docstring).

    ``ops`` are the ``(start_ns, end_ns)`` of the phase's ops in the
    benchmark process; ``totals`` carries :data:`WORKLOAD_TOTALS` plus
    ``jobs.completed`` / ``jobs.cache_hits`` for the job-grid ratios.
    """
    n_ops = max(len(ops), 1)
    op_ns = sum(end - start for start, end in ops)
    metrics: Dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        metrics[metric] = sum(phase.self_s(name) for name in names) / n_ops
    for metric, name in VALUE_METRICS.items():
        metrics[metric] = phase.value(name) / n_ops
    for metric, name in MEAN_MS_METRICS.items():
        metrics[metric] = phase.mean_ms(name)

    metrics["ml.train_calls"] = phase.count("ml.train") / n_ops
    sim_s = phase.covered_s(("perf.sim",))
    metrics["perf.vector_cycles_per_s"] = phase.value("perf.sim") / sim_s if sim_s else 0.0

    # serve.http_ms: client-observed request time minus the frontend's
    # ModelServer.predict, both as means over the phase's requests.
    client_ms = phase.mean_ms("serve.http", pids=lambda pid: pid == phase.bench_pid)
    metrics["serve.http_ms"] = (
        max(client_ms - metrics["serve.frontend_ms"], 0.0) if client_ms else 0.0
    )
    metrics["serve.batch_rows"] = (
        phase.value("serve.kernel") / phase.count("serve.kernel")
        if phase.count("serve.kernel")
        else 0.0
    )
    frames = phase.count("serve.transport.send")
    metrics["serve.transport.frames"] = frames / n_ops
    metrics["serve.transport.frame_bytes"] = (
        phase.value("serve.transport.encode") / phase.count("serve.transport.encode")
        if phase.count("serve.transport.encode")
        else 0.0
    )

    # Job workers are the forked children; their flow spans are the work a
    # FlowWorker.call waits for, the rest of the call is dispatch and IPC.
    in_worker = lambda pid: pid != phase.bench_pid  # noqa: E731
    worker_s = phase.covered_s(("core.flow", "core.flow_cache.load"), pids=in_worker)
    calls = phase.count("jobs.call")
    metrics["jobs.worker_flow_s"] = phase.covered_s(("core.flow",), pids=in_worker) / n_ops
    metrics["jobs.ipc_ms"] = (
        max(metrics["jobs.call_ms"] - worker_s / calls * 1e3, 0.0) if calls else 0.0
    )
    metrics["jobs.worker_busy_ratio"] = (
        worker_s / (workers * op_ns * NS) if calls and op_ns else 0.0
    )
    completed = totals.get("jobs.completed", 0.0)
    metrics["jobs.cache_hit_ratio"] = (
        totals.get("jobs.cache_hits", 0.0) / completed if completed else 0.0
    )
    for name in WORKLOAD_TOTALS:
        metrics[name] = float(totals.get(name, 0.0))
    metrics["other_s"] = phase.other_s(ops)
    return metrics
