"""Simulation-throughput benchmarks for the compiled bit-parallel engine.

Measures the two hot paths the :mod:`repro.perf` subsystem vectorizes and
records the results to ``BENCH_simulation.json`` so simulator throughput is
tracked PR over PR:

* **datapath** — cycle-accurate sequential-SVM and parallel (OvR / OvO)
  batch classification: vectorized ``run_batch`` vs the per-sample scalar
  ``run()`` loop (the seed implementation), in samples/s.
* **gate level** — compiled bit-parallel netlist sweeps vs the interpreted
  per-gate dict-walk reference, in gate-evals/s, over every RTL generator
  family (adder, multiplier, MUX tree, comparator).
* **sequential sim** — the bit-parallel multi-cycle engine
  (:mod:`repro.perf.seqsim`) clocking real flip-flop netlists (the
  gate-level sequential-SVM top, a binary counter) vs the interpreted
  per-cycle walk, in cycle-evals/s, with bit-exactness asserted on every
  run.
* **netlist opt** — gate-count reduction of the :mod:`repro.hw.opt`
  optimizer on the hardwired constant-datapath workloads (tied-operand MAC /
  multiplier), plus the simulation speedup of evaluating the optimized
  program and a random-vector equivalence check.
* **roofline** — gate-evals/s of the reference interpreter (``interp``)
  and of every execution engine (``auto``, plus ``native`` where a C
  toolchain exists, see :mod:`repro.perf.engines` and
  :mod:`repro.perf.native`) against a measured memcpy-bandwidth baseline,
  locating each between dispatch-limited and machine-limited.

Entry points: ``python scripts/bench_simulation.py`` (writes the JSON;
``--compare`` diffs a fresh run against the committed baseline instead) and
``pytest benchmarks/test_perf_simulation.py`` (asserts the speedup floors
and refreshes the JSON).  Both use :func:`run_simulation_benchmark`.
"""

from __future__ import annotations

import itertools
import json
import platform
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.hw.rtl.adders import build_ripple_adder_netlist
from repro.hw.rtl.comparator import build_comparator_netlist
from repro.hw.rtl.multipliers import (
    build_array_multiplier_netlist,
    build_constant_mac_netlist,
    build_constant_multiplier_netlist,
)
from repro.hw.rtl.mux import build_mux_tree_netlist
from repro.hw.rtl.registers import build_counter_netlist
from repro.hw.rtl.svm_top import build_sequential_svm_netlist
from repro.hw.simulate import (
    ParallelDatapathSimulator,
    SequentialDatapathSimulator,
    simulate_combinational_reference,
    simulate_sequential_reference,
)
from repro.perf.bitsim import BitParallelEvaluator, evaluator_for, pack_vectors
from repro.perf.compile import compile_netlist
from repro.perf.engines import TIER_UP_CALLS, available_engines
from repro.perf.seqsim import sequential_evaluator_for


def _benchmarked() -> List[str]:
    """The rows of the engine comparisons on this host.

    ``interp`` is the reference interpreter (:class:`BitParallelEvaluator`,
    not an engine a user can select), then every engine in ENGINES order.
    ``native`` appears only where a C toolchain was found; ``--compare``
    skips metrics present on one side only, so per-host schema drift in the
    recorded document is benign.
    """
    return ["interp", *available_engines()]


def _evaluator(netlist, engine: str) -> BitParallelEvaluator:
    """The evaluator of one :func:`_benchmarked` row."""
    if engine == "interp":
        return BitParallelEvaluator(compile_netlist(netlist))
    return evaluator_for(netlist, engine=engine)


def _warm(evaluator: BitParallelEvaluator, packed: np.ndarray, slots) -> None:
    """Call a slot tuple past ``auto``'s tier-up point before it is timed.

    :func:`_time` makes one warm-up call and at most 20 timed ones, fewer
    than :data:`~repro.perf.engines.TIER_UP_CALLS`: without this, the
    per-engine rows would time ``auto``'s interpreted tier instead of its
    compiled kernel.  Every row gets the same calls.
    """
    for _ in range(TIER_UP_CALLS + 1):
        evaluator.evaluate_packed_slots(packed, slots)


from repro.core.paths import bench_output_path as _bench_output_path

#: Default location of the recorded benchmark results.
DEFAULT_OUTPUT = _bench_output_path("BENCH_simulation.json")


def _time(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` (default and every call site: best-of-3) wall clock.

    One untimed warmup invocation runs before the repeats: first-call costs
    (numpy internal caches, allocator growth, lazily compiled kernels) land
    outside the measurement window, so the perf-smoke floors do not flake on
    cold CI runners.  Both sides of every speedup ratio are then timed with
    the same number of repeats: the vectorized paths finish in well under a
    millisecond where scheduler noise dominates a single sample, and using
    an identical methodology for the scalar baselines keeps the recorded
    ratios unbiased.
    """
    fn()  # warmup, untimed
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _time_pairs(
    fn_a: Callable[[], object], fn_b: Callable[[], object], pairs: int = 15
) -> Tuple[float, float, float]:
    """Median ``(t_a, t_b, t_a / t_b)`` over interleaved pairs of runs.

    For a ratio between two paths.  Timing each side in its own block
    lets a slow phase of the host land on one side only: the batched
    datapath side takes ~0.25 ms, so a few scheduler hiccups in its block
    alone moved a best-of-3 ratio below its floor.  Here each pair times
    both sides back to back, the side that runs first alternates, and the
    ratio is taken per pair, so a slow phase slows both sides of a pair
    and the median drops the pairs it hit unevenly.  One untimed warmup
    of each side runs first, as in :func:`_time`.
    """
    fn_a()
    fn_b()
    times: Tuple[List[float], List[float]] = ([], [])
    for k in range(pairs):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            (fn_a, fn_b)[side]()
            times[side].append(time.perf_counter() - start)
    ratios = [a / b for a, b in zip(*times)]
    return statistics.median(times[0]), statistics.median(times[1]), statistics.median(ratios)


# --------------------------------------------------------------------------- #
# Datapath throughput
# --------------------------------------------------------------------------- #
def benchmark_datapath(
    n_classifiers: int = 10,
    n_features: int = 16,
    n_samples: int = 1000,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Vectorized ``run_batch`` vs the scalar per-sample loop, per simulator."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 16, size=(n_samples, n_features), dtype=np.int64)
    results: Dict[str, Dict[str, float]] = {}

    weights = rng.integers(-31, 32, size=(n_classifiers, n_features), dtype=np.int64)
    biases = rng.integers(-100, 100, size=n_classifiers, dtype=np.int64)
    seq = SequentialDatapathSimulator(weights, biases)
    results["sequential_svm"] = _datapath_record(
        n_samples,
        *_time_pairs(
            lambda: [seq.run(row).predicted_class for row in X], lambda: seq.run_batch(X)
        ),
    )

    ovr = ParallelDatapathSimulator(weights, biases, strategy="ovr")
    results["parallel_ovr"] = _datapath_record(
        n_samples, *_time_pairs(lambda: [ovr.run(row) for row in X], lambda: ovr.run_batch(X))
    )

    n_classes = 5
    pairs = list(itertools.combinations(range(n_classes), 2))
    w_ovo = rng.integers(-31, 32, size=(len(pairs), n_features), dtype=np.int64)
    b_ovo = rng.integers(-100, 100, size=len(pairs), dtype=np.int64)
    ovo = ParallelDatapathSimulator(
        w_ovo, b_ovo, strategy="ovo", pairs=pairs, n_classes=n_classes
    )
    results["parallel_ovo"] = _datapath_record(
        n_samples, *_time_pairs(lambda: [ovo.run(row) for row in X], lambda: ovo.run_batch(X))
    )
    return results


def _datapath_record(
    n_samples: int, t_scalar: float, t_batch: float, speedup: float
) -> Dict[str, float]:
    return {
        "n_samples": float(n_samples),
        "scalar_samples_per_s": n_samples / t_scalar,
        "batch_samples_per_s": n_samples / t_batch,
        "speedup": speedup,
    }


# --------------------------------------------------------------------------- #
# Gate-level throughput
# --------------------------------------------------------------------------- #
def benchmark_gate_level(
    n_vectors: int = 256, seed: int = 0
) -> Dict[str, Dict[str, float]]:
    """Compiled bit-parallel sweeps vs the interpreted per-gate reference.

    Every :func:`_benchmarked` row (the reference interpreter ``interp``,
    ``auto``, plus ``native`` where a toolchain exists) is warmed past
    ``auto``'s tier-up point, then checked bit-exact against the ``interp``
    sweep and timed on each workload, so the check covers the kernels the
    timings measure.  The historical ``bitsim_gate_evals_per_s`` /
    ``speedup`` keys keep their meaning (reference interpreter, full
    ``evaluate`` including pack/unpack, vs the interpreted dict-walk) so
    the trajectory in ``BENCH_simulation.json`` stays comparable across
    PRs; the per-engine keys time the *packed* kernel path
    (``evaluate_packed_slots`` on the output slots) — the bit-matrix
    conversion is identical across engines and is not paid per cycle by
    the sequential engine, so that is where engines actually differ.
    """
    netlists = {
        "ripple_adder_16b": build_ripple_adder_netlist(16),
        "array_multiplier_5x5": build_array_multiplier_netlist(5, 5),
        "mux_tree_16": build_mux_tree_netlist(16),
        "comparator_8b": build_comparator_netlist(8),
    }
    rng = np.random.default_rng(seed)
    results: Dict[str, Dict[str, float]] = {}
    for name, netlist in netlists.items():
        vectors = rng.integers(0, 2, size=(n_vectors, len(netlist.inputs)))
        rows = [dict(zip(netlist.inputs, (int(v) for v in vec))) for vec in vectors]

        def _interpreted() -> None:
            for row in rows:
                simulate_combinational_reference(netlist, row)

        # Compile every engine outside the timed region.
        engines = _benchmarked()
        evaluators = {e: _evaluator(netlist, e) for e in engines}
        packed, _ = pack_vectors(vectors)
        output_slots = evaluators["interp"].program.output_slots
        for ev in evaluators.values():
            _warm(ev, packed, output_slots)
        reference = evaluators["interp"].evaluate(vectors)
        equivalent = all(
            np.array_equal(ev.evaluate(vectors), reference)
            for ev in evaluators.values()
        )
        t_ref = _time(_interpreted, repeats=3)
        t_fast = _time(lambda: evaluators["interp"].evaluate(vectors), repeats=3)
        # The packed kernels run in tens of microseconds; best-of-20 keeps
        # the per-engine ratios (and the perf-smoke engine floor) stable.
        t_engine = {
            e: _time(
                lambda ev=ev: ev.evaluate_packed_slots(packed, output_slots),
                repeats=20,
            )
            for e in engines
            for ev in (evaluators[e],)
        }
        gate_evals = netlist.n_gates() * n_vectors
        record = {
            "n_gates": float(netlist.n_gates()),
            "n_vectors": float(n_vectors),
            "engines_equivalent": 1.0 if equivalent else 0.0,
            "interpreted_gate_evals_per_s": gate_evals / t_ref,
            "bitsim_gate_evals_per_s": gate_evals / t_fast,
            "speedup": t_ref / t_fast,
        }
        for e in engines:
            record[f"{e}_packed_gate_evals_per_s"] = gate_evals / t_engine[e]
            if e != "interp":
                record[f"{e}_speedup_vs_interp"] = t_engine["interp"] / t_engine[e]
        results[name] = record
    return results


# --------------------------------------------------------------------------- #
# Sequential (multi-cycle) gate-level throughput
# --------------------------------------------------------------------------- #
def _sequential_workloads(seed: int) -> Dict[str, "tuple"]:
    """Clocked benchmark netlists: ``name -> (netlist, input_bits, cycles)``."""
    rng = np.random.default_rng(seed)
    n_classifiers, n_features, input_bits = 4, 4, 2
    weights = rng.integers(-7, 8, size=(n_classifiers, n_features))
    biases = rng.integers(-20, 21, size=n_classifiers)
    svm_top, ports = build_sequential_svm_netlist(
        weights, biases, input_bits=input_bits, name="seq_svm_4x4"
    )
    counter = build_counter_netlist(6)
    return {
        "sequential_svm_top_4x4": (svm_top, ports.n_features * input_bits, ports.n_classifiers),
        "counter_6b": (counter, 0, 16),
    }


def benchmark_sequential(
    n_vectors: int = 64, seed: int = 0
) -> Dict[str, Dict[str, float]]:
    """Bit-parallel sequential engine vs the interpreted per-cycle walk.

    For each clocked workload (a small gate-level sequential-SVM top and a
    free-running counter) both sides clock the same ``n_vectors`` input
    vectors for the same number of cycles: the engine through
    :mod:`repro.perf.seqsim` (packed words, one cone-kernel call per
    cycle), the baseline through
    :func:`~repro.hw.simulate.simulate_sequential_reference` (per-gate dict
    walk, one vector at a time).  Records cycle-evals/s (vectors x cycles
    per second) and the speedup.

    The headline side runs the production default, ``engine='auto'``,
    whose cone runs interpreted until it tiers up
    (:data:`~repro.perf.engines.TIER_UP_CALLS` calls);
    ``auto_engine_tiers_up`` records that its cone compiled a kernel exactly
    when it had run more calls than that.  ``native``, where a toolchain
    exists, is checked and timed beside it.
    """
    rng = np.random.default_rng(seed)
    results: Dict[str, Dict[str, float]] = {}
    for name, (netlist, n_inputs, cycles) in _sequential_workloads(seed).items():
        vectors = rng.integers(0, 2, size=(n_vectors, n_inputs))
        rows = [dict(zip(netlist.inputs, (int(v) for v in vec))) for vec in vectors]

        def _interpreted() -> None:
            for row in rows:
                simulate_sequential_reference(netlist, row, cycles)

        # Compile every engine (and verify bit-exactness on this workload)
        # outside the timed region, mirroring the combinational benchmark.
        # The headline evaluator uses engine='auto' — the production default
        # — so the recorded seqsim numbers improve as the cone engine does.
        evaluator = sequential_evaluator_for(netlist)
        auto_runs = 0

        def _auto_run() -> np.ndarray:
            nonlocal auto_runs
            auto_runs += 1
            return evaluator.run(vectors, cycles=cycles)

        engine_evaluators = {
            e: sequential_evaluator_for(netlist, engine=e)
            for e in available_engines()
            if e != "auto"
        }
        reference = np.stack(
            [simulate_sequential_reference(netlist, row, cycles) for row in rows],
            axis=1,
        )
        equivalent = bool(np.array_equal(_auto_run(), reference))
        engines_equivalent = all(
            np.array_equal(ev.run(vectors, cycles=cycles), reference)
            for ev in engine_evaluators.values()
        )
        t_ref = _time(_interpreted, repeats=3)
        t_fast = _time(_auto_run, repeats=3)
        t_engine = {
            e: _time(lambda ev=ev: ev.run(vectors, cycles=cycles), repeats=3)
            for e, ev in engine_evaluators.items()
        }
        cycle_evals = n_vectors * cycles
        record = {
            "n_gates": float(netlist.n_gates()),
            "n_state_bits": float(len(netlist.sequential_gates())),
            "n_vectors": float(n_vectors),
            "cycles": float(cycles),
            "equivalent": 1.0 if equivalent else 0.0,
            "engines_equivalent": 1.0 if engines_equivalent else 0.0,
            "interpreted_cycle_evals_per_s": cycle_evals / t_ref,
            "seqsim_cycle_evals_per_s": cycle_evals / t_fast,
            "speedup": t_ref / t_fast,
        }
        for e in t_engine:
            record[f"{e}_cycle_evals_per_s"] = cycle_evals / t_engine[e]
        compiled = evaluator._result_slots in evaluator._cone._kernels
        record["auto_cone_calls"] = float(auto_runs * cycles)
        record["auto_engine_tiers_up"] = (
            1.0
            if evaluator.engine == "auto"
            and compiled == (auto_runs * cycles > TIER_UP_CALLS)
            else 0.0
        )
        results[name] = record
    return results


# --------------------------------------------------------------------------- #
# Roofline: per-engine throughput vs measured memory bandwidth
# --------------------------------------------------------------------------- #
def measure_memcpy_bandwidth(n_bytes: int = 16 * 1024 * 1024) -> float:
    """Measured ``np.copyto`` bandwidth in bytes/s (read + write counted).

    The machine-roofline baseline: a straight copy of a buffer that outgrows
    the L2 cache is as fast as any 1 byte in / 1 byte out streaming kernel
    can go, which is exactly the shape of a straight-line bitwise op sweep.
    """
    src = np.ones(n_bytes // 8, dtype=np.uint64)
    dst = np.empty_like(src)
    t = _time(lambda: np.copyto(dst, src), repeats=5)
    return 2.0 * src.nbytes / t


def benchmark_roofline(
    n_vectors: int = 8192, seed: int = 0
) -> Dict[str, object]:
    """Gate-evals/s per engine vs the memcpy-bandwidth roofline.

    Each compiled op reads two packed operand rows and writes one, so a
    program of ``n_ops`` ops over ``n_words`` words moves *at least*
    ``n_ops * 3 * n_words * 8`` bytes.  Dividing that floor by the measured
    runtime gives an effective bandwidth per engine; the ratio against the
    measured :func:`measure_memcpy_bandwidth` baseline says how far each
    engine still is from machine-limited execution (dispatch overhead shows
    up as a small fraction).  Workload: the 45-gate 5x5 array multiplier —
    the same netlist the perf-smoke engine floors are asserted on.

    Where a toolchain exists, ``native_vs_auto`` is ``native``'s speedup
    over ``auto``'s compiled kernel as the median ratio of interleaved
    pairs (:func:`_time_pairs`), the figure the perf-smoke floor reads: the
    per-engine rows are each a best-of-3 in its own block, so a slow host
    phase can land on one row only.
    """
    netlist = build_array_multiplier_netlist(5, 5)
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, 2, size=(n_vectors, len(netlist.inputs)))
    packed, _ = pack_vectors(vectors)
    n_words = packed.shape[1]
    memcpy_bytes_per_s = measure_memcpy_bandwidth()
    engines: Dict[str, Dict[str, float]] = {}
    sweeps: Dict[str, Callable[[], object]] = {}
    n_ops = None
    for e in _benchmarked():
        evaluator = _evaluator(netlist, e)
        n_ops = evaluator.program.n_ops
        slots = evaluator.program.output_slots
        _warm(evaluator, packed, slots)
        sweeps[e] = lambda ev=evaluator, sl=slots: ev.evaluate_packed_slots(packed, sl)
        t = _time(sweeps[e], repeats=3)
        min_bytes = n_ops * 3 * n_words * 8
        engines[e] = {
            "gate_evals_per_s": netlist.n_gates() * n_vectors / t,
            "op_evals_per_s": n_ops * n_vectors / t,
            "effective_bytes_per_s": min_bytes / t,
            "fraction_of_memcpy": (min_bytes / t) / memcpy_bytes_per_s,
        }
    record = {
        "workload": "array_multiplier_5x5",
        "n_gates": float(netlist.n_gates()),
        "n_ops": float(n_ops),
        "n_vectors": float(n_vectors),
        "n_words": float(n_words),
        "memcpy_bytes_per_s": memcpy_bytes_per_s,
        "engines": engines,
    }
    if "native" in sweeps:
        record["native_vs_auto"] = _time_pairs(sweeps["auto"], sweeps["native"])[2]
    return record


# --------------------------------------------------------------------------- #
# Netlist optimization trajectory
# --------------------------------------------------------------------------- #
#: Coefficient magnitudes of the reference constant-MAC workload: a mix of
#: zero, power-of-two and odd weights, the spread a real hardwired
#: coefficient table shows.
OPT_BENCH_WEIGHTS = (0, 1, 2, 5, 8, 11, 6, 3)


def benchmark_optimization(
    input_bits: int = 4, n_vectors: int = 256, seed: int = 0
) -> Dict[str, Dict[str, float]]:
    """Gate-count reduction and simulation speedup of the optimizer.

    For each constant-datapath workload: optimize at level 2, record the
    removals per kind of rewrite, check random-vector equivalence, and time
    the compiled bit-parallel sweep on the raw vs the optimized program.
    """
    from repro.hw.opt import check_equivalence, optimize

    netlists = {
        "constant_mac_8x4": build_constant_mac_netlist(
            list(OPT_BENCH_WEIGHTS), input_bits
        ),
        "constant_multiplier_11x5": build_constant_multiplier_netlist(11, 5),
    }
    rng = np.random.default_rng(seed)
    results: Dict[str, Dict[str, float]] = {}
    for name, netlist in netlists.items():
        result = optimize(netlist, level=2)
        stats = result.stats
        equivalent = check_equivalence(netlist, result.netlist, seed=seed)
        vectors = rng.integers(0, 2, size=(n_vectors, len(netlist.inputs)))
        raw_eval = evaluator_for(netlist)  # compile outside the timed region
        opt_eval = evaluator_for(netlist, opt_level=2)
        t_raw = _time(lambda: raw_eval.evaluate(vectors), repeats=3)
        t_opt = _time(lambda: opt_eval.evaluate(vectors), repeats=3)
        record: Dict[str, float] = {
            "gates_raw": float(stats.gates_before),
            "gates_optimized": float(stats.gates_after),
            "gates_removed": float(stats.gates_removed),
            "reduction_percent": stats.reduction_percent,
            "equivalent": 1.0 if equivalent else 0.0,
            "n_vectors": float(n_vectors),
            "raw_eval_s": t_raw,
            "optimized_eval_s": t_opt,
            "eval_speedup": t_raw / t_opt,
        }
        for rewrite, removed in stats.removed_per_pass.items():
            record[f"removed_{rewrite}"] = float(removed)
        # Port buffers reinserted during reconstruction, so the removals per
        # rewrite minus this reconcile exactly with gates_removed.
        record["port_buffers_added"] = float(stats.port_buffers_added)
        results[name] = record
    return results


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
def run_simulation_benchmark(fast: bool = True, seed: int = 0) -> Dict:
    """Run every throughput benchmark and return the results document.

    ``fast=True`` (the default, used by the perf-smoke pytest run) keeps the
    whole suite under a few seconds; ``fast=False`` scales the workloads up
    for lower-variance numbers.
    """
    if fast:
        datapath = benchmark_datapath(n_samples=1000, seed=seed)
        gates = benchmark_gate_level(n_vectors=256, seed=seed)
        netlist_opt = benchmark_optimization(n_vectors=256, seed=seed)
        sequential = benchmark_sequential(n_vectors=64, seed=seed)
        roofline = benchmark_roofline(n_vectors=8192, seed=seed)
    else:
        datapath = benchmark_datapath(
            n_classifiers=26, n_features=32, n_samples=20000, seed=seed
        )
        gates = benchmark_gate_level(n_vectors=4096, seed=seed)
        netlist_opt = benchmark_optimization(n_vectors=4096, seed=seed)
        sequential = benchmark_sequential(n_vectors=256, seed=seed)
        roofline = benchmark_roofline(n_vectors=65536, seed=seed)
    min_speedups = {
        "datapath_batch": min(r["speedup"] for r in datapath.values()),
        "gate_level_bitsim": min(r["speedup"] for r in gates.values()),
        "sequential_sim": min(r["speedup"] for r in sequential.values()),
        "netlist_opt_reduction_percent": min(
            r["reduction_percent"] for r in netlist_opt.values()
        ),
        "engine_auto_vs_interp_45g_multiplier": gates[
            "array_multiplier_5x5"
        ]["auto_speedup_vs_interp"],
    }
    if "native_vs_auto" in roofline:
        min_speedups["engine_native_vs_auto_45g_multiplier"] = roofline["native_vs_auto"]
    return {
        "benchmark": "simulation_throughput",
        "config": "fast" if fast else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "engines_benchmarked": _benchmarked(),
        "datapath": datapath,
        "gate_level": gates,
        "sequential_sim": sequential,
        "netlist_opt": netlist_opt,
        "roofline": roofline,
        "min_speedups": min_speedups,
    }


def write_benchmark(
    results: Dict, path: Union[str, Path, None] = None
) -> Path:
    """Serialize a results document to ``BENCH_simulation.json``."""
    path = Path(path) if path is not None else DEFAULT_OUTPUT
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return path


# The diffing logic lives in repro.core.benchcompare (shared with the
# serving bench); re-exported here because this module is its historic home.
from repro.core.benchcompare import (  # noqa: E402  (re-export)
    COMPARE_METRIC_SUFFIXES as _COMPARE_METRIC_SUFFIXES,
    BenchmarkBaselineError,
    bad_input_exit,
    compare_benchmarks,
    load_baseline,
    metric_leaves as _metric_leaves,
)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI used by ``scripts/bench_simulation.py``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Measure simulator throughput and record BENCH_simulation.json."
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run the larger workloads (slower, lower-variance numbers)",
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
        "(default: the committed BENCH_simulation.json)",
    )
    args = parser.parse_args(argv)
    baseline = None
    if args.compare:
        # Validate before the (expensive) fresh run: a missing or malformed
        # baseline is a usage error, reported in one line, exit code 2.
        try:
            baseline = load_baseline(args.baseline)
        except BenchmarkBaselineError as error:
            return bad_input_exit("bench_simulation --compare", error)
    results = run_simulation_benchmark(fast=not args.full)
    if args.compare:
        compare_benchmarks(results, baseline)
        return 0
    path = write_benchmark(results, args.output)
    for group in ("datapath", "gate_level", "sequential_sim"):
        for name, record in results[group].items():
            print(f"{group:14s} {name:24s} speedup {record['speedup']:8.1f}x")
    for name, record in results["netlist_opt"].items():
        print(
            f"{'opt':10s} {name:22s} "
            f"{int(record['gates_raw']):4d} -> {int(record['gates_optimized']):4d} gates "
            f"({record['reduction_percent']:.1f}% removed, "
            f"eval {record['eval_speedup']:.1f}x)"
        )
    roofline = results["roofline"]
    for engine, record in sorted(roofline["engines"].items()):
        print(
            f"{'roofline':14s} {engine:24s} "
            f"{record['gate_evals_per_s']:.3g} gate-evals/s  "
            f"({100 * record['fraction_of_memcpy']:.1f}% of memcpy bandwidth)"
        )
    print(f"results written to {path}")
    return 0
