"""Compiled, vectorized simulation engine (the repo's performance subsystem).

The verification / evaluation hot path used to be interpreted Python: the
gate-level simulator walked netlists one gate at a time through dict lookups
and both datapath simulators looped sample by sample.  This package replaces
that with a two-stage compile -> bitsim pipeline:

* :mod:`repro.perf.compile` — lowers a
  :class:`~repro.hw.netlist.GateNetlist` into a
  :class:`~repro.perf.compile.CompiledProgram`: flat numpy opcode / operand
  / destination index arrays over a dense net-slot table, in topological
  order, with multi-output cells (HA / FA) expanded into primitive bit ops.
* :mod:`repro.perf.bitsim` — executes a compiled program bit-parallel: 64
  test vectors are packed per ``uint64`` word, so a sweep costs
  ``O(gates * vectors / 64)`` instead of ``O(gates * vectors)`` interpreted
  steps.  Its :func:`~repro.perf.bitsim.interpret_kernel` is the one Python
  loop over a program's ops; :class:`~repro.perf.bitsim.BitParallelEvaluator`
  runs it on numpy rows as the reference interpreter the engines are
  checked against.
* :mod:`repro.perf.engines` — the two execution engines behind one
  ``engine='auto'|'native'`` selector: ``auto`` interprets a cone's live
  ops on whole-row Python bigints for its first calls, then emits the
  whole cone as one generated, ``compile()``d Python function (cached per
  netlist structure) that runs on numpy words or whole-row bigints
  depending on batch size.  Both are bit-exact vs the reference
  interpreter; the selector threads through
  :func:`~repro.perf.bitsim.evaluator_for`, the sequential engine, the
  benchmarks and the ``repro-table1 --engine`` flag.
* :mod:`repro.perf.native` — the ``native`` engine: the same planned kernel
  emitted as C, compiled with the system toolchain (``-O2 -fPIC -shared``)
  into a shared object called through ``ctypes`` (one call per batch, on
  the calling thread), cached in memory and on disk under the
  ``$REPRO_CACHE_DIR`` root.
  Degrades to ``auto`` with a one-time warning on hosts without a C
  compiler.
* :mod:`repro.perf.seqsim` — the *sequential* engine: clocked netlists
  (real D flip-flops, feedback loops) split at their register boundaries
  into one combinational cone program, then clocked N cycles with packed
  per-flip-flop ``uint64`` state words — 64 vectors advance per word per
  cycle.  ``opt_level`` optimizes the combinational regions between the
  register barriers.  The interpreted per-cycle walk survives as
  :func:`repro.hw.simulate.simulate_sequential_reference` (the oracle).
* :mod:`repro.perf.benchmark` — measures simulation throughput
  (samples/s, gate-evals/s) and records it to ``BENCH_simulation.json`` so
  the performance trajectory is tracked PR over PR.  Run it via
  ``python scripts/bench_simulation.py`` or
  ``pytest benchmarks/test_perf_simulation.py``.
* :mod:`repro.perf.flow_bench` — measures the flow-execution layer above the
  simulators (cold vs warm-from-persistent-cache vs process-sharded Table I
  regeneration, see :mod:`repro.core.flow_executor`) and records rows/s and
  the warm-vs-cold speedup to ``BENCH_flow.json``.  Run it via
  ``python scripts/bench_flow.py`` or ``pytest benchmarks/test_perf_flow.py``.

:func:`repro.hw.simulate.simulate_combinational` and the two datapath
simulators' ``run_batch`` methods are wired onto this engine; the scalar
gate walk survives as :func:`~repro.hw.simulate.simulate_combinational_reference`
and the per-sample :meth:`~repro.hw.simulate.SequentialDatapathSimulator.run`
remains the trace-producing oracle that the vectorized paths are tested
bit-exactly against.

Since PR 3 the compile entry points accept ``opt_level=`` and lower the
:mod:`repro.hw.opt`-optimized netlist instead of the raw one (0 = raw,
the oracle).  Since PR 4 the batch serving subsystem (:mod:`repro.serve`)
sits directly on the ``run_batch`` hot paths: its micro-batching queue
coalesces concurrent predict requests into the single-matmul calls this
package vectorizes (throughput tracked in ``BENCH_serving.json``).
"""

from repro.perf.bitsim import (
    BitParallelEvaluator,
    evaluator_for,
    pack_vectors,
    simulate_netlist_batch,
    unpack_vectors,
    words_to_ints,
    words_to_signed_ints,
)
from repro.perf.compile import CompiledProgram, compile_netlist
from repro.perf.engines import (
    ENGINES,
    CodegenEvaluator,
    KernelPlan,
    available_engines,
    generate_kernel_source,
    make_evaluator,
    plan_kernel,
    resolve_engine,
)
from repro.perf.flow_bench import run_flow_benchmark
from repro.perf.native import NativeEvaluator, generate_c_kernel_source
from repro.perf.seqsim import (
    SequentialEvaluator,
    SequentialProgram,
    compile_sequential,
    sequential_evaluator_for,
    simulate_sequential_batch,
)
from repro.toolchain import find_toolchain, native_available

__all__ = [
    "run_flow_benchmark",
    "BitParallelEvaluator",
    "CodegenEvaluator",
    "CompiledProgram",
    "ENGINES",
    "KernelPlan",
    "NativeEvaluator",
    "SequentialEvaluator",
    "SequentialProgram",
    "available_engines",
    "compile_netlist",
    "compile_sequential",
    "evaluator_for",
    "find_toolchain",
    "generate_c_kernel_source",
    "generate_kernel_source",
    "make_evaluator",
    "native_available",
    "pack_vectors",
    "plan_kernel",
    "resolve_engine",
    "sequential_evaluator_for",
    "simulate_netlist_batch",
    "simulate_sequential_batch",
    "unpack_vectors",
    "words_to_ints",
    "words_to_signed_ints",
]
