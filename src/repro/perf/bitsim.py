"""Bit-parallel evaluation of compiled netlist programs.

Classic bit-parallel (a.k.a. "bit-sliced") logic simulation: each net slot
holds a row of ``uint64`` words, with bit ``s`` of word ``w`` carrying the
net's value for test vector ``64*w + s``.  Evaluating one primitive op of a
:class:`~repro.perf.compile.CompiledProgram` with a numpy bitwise operation
therefore advances *64 vectors per word* at once, turning a sweep of ``V``
vectors over ``G`` gates from ``O(G * V)`` interpreted Python into
``O(G * V / 64)`` vectorized kernel work.

:func:`interpret_kernel` is the one Python loop over a program's ops.  It is
domain-neutral, so :class:`BitParallelEvaluator` (the reference interpreter)
runs it on numpy rows and on 0/1 ints, and the ``auto`` engine of
:mod:`repro.perf.engines` runs it on whole-row bigints before it compiles.

Typical use::

    program = compile_netlist(netlist)
    evaluator = BitParallelEvaluator(program)
    out_bits = evaluator.evaluate(input_bits)   # (n_vectors, n_outputs)

or, one level higher, :func:`simulate_netlist_batch` straight from the
netlist.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hw.cells import CellLibrary
from repro.hw.netlist import GateNetlist
from repro.hw.pdk import EGFET_PDK
from repro.perf.compile import (
    OP_AND2,
    OP_AND3,
    OP_ARITY,
    OP_BUF,
    OP_MUX2,
    OP_NAND2,
    OP_NOR2,
    OP_NOT,
    OP_OR2,
    OP_OR3,
    OP_XNOR2,
    OP_XOR2,
    CompiledProgram,
    OpTuple,
    SLOT_ONE,
    compile_netlist,
)

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_BIT_POSITIONS = np.arange(64, dtype=np.uint64)


def pack_vectors(bits: np.ndarray) -> Tuple[np.ndarray, int]:
    """Pack a ``(n_vectors, n_lines)`` 0/1 matrix into ``uint64`` words.

    Returns ``(packed, n_vectors)`` where ``packed`` has shape
    ``(n_lines, n_words)`` and bit ``s`` of ``packed[l, w]`` is
    ``bits[64*w + s, l]``.

    Example::

        packed, n = pack_vectors(np.eye(3, dtype=int))   # 3 vectors, 3 lines
        packed.shape, n                                  # ((3, 1), 3)
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError("expected a 2-D (n_vectors, n_lines) bit matrix")
    n_vectors, n_lines = bits.shape
    n_words = max((n_vectors + 63) // 64, 1)
    padded = np.zeros((n_words * 64, n_lines), dtype=np.uint64)
    padded[:n_vectors] = (bits != 0).astype(np.uint64)
    # (n_lines, n_words, 64) -> shift each sample to its bit position, OR up.
    lanes = padded.T.reshape(n_lines, n_words, 64)
    packed = np.bitwise_or.reduce(lanes << _BIT_POSITIONS, axis=2)
    return packed, n_vectors


def unpack_vectors(packed: np.ndarray, n_vectors: int) -> np.ndarray:
    """Inverse of :func:`pack_vectors`: ``(n_lines, n_words)`` -> bit matrix.

    Example::

        bits = np.array([[1, 0, 1], [0, 1, 1]])
        packed, n = pack_vectors(bits)
        assert np.array_equal(unpack_vectors(packed, n), bits)
    """
    packed = np.asarray(packed, dtype=np.uint64)
    bits = (packed[:, :, None] >> _BIT_POSITIONS) & np.uint64(1)
    n_lines, n_words = packed.shape
    return bits.reshape(n_lines, n_words * 64).T[:n_vectors].astype(np.int64)


def op_tuples(program: CompiledProgram) -> List[OpTuple]:
    """The program's op stream as plain-int ``(opcode, a, b, c, dst)`` tuples.

    Every Python-level walk of a program (:func:`live_ops`, hence
    :func:`interpret_kernel` and the code emitters of
    :mod:`repro.perf.engines`) runs on these.  It is the very list the
    lowerer (:func:`~repro.perf.compile.lower_gates`) appended to, kept on
    the program as ``ops``, so nothing reads the numpy arrays back; callers
    must not mutate it.

    Example::

        op_tuples(compile_netlist(netlist))[0]   # e.g. (2, 2, 3, 0, 4)
    """
    return program.ops


def live_ops(
    ops: Sequence[OpTuple], slots: Sequence[int]
) -> List[OpTuple]:
    """The ops ``slots`` transitively read, in program order.

    Backward liveness over ``(opcode, a, b, c, dst)`` tuples (see
    :func:`op_tuples`): an op whose destination no requested slot needs is
    dropped, so a kernel for a narrow slot tuple computes only that cone.
    Shared by :func:`interpret_kernel` and
    :func:`~repro.perf.engines.plan_kernel`.
    """
    live = set(slots)
    kept = []
    for op in reversed(ops):
        opcode, a, b, c, dst = op
        if dst not in live:
            continue
        kept.append(op)
        live.add(a)
        arity = OP_ARITY[opcode]
        if arity > 1:
            live.add(b)
        if arity > 2:
            live.add(c)
    kept.reverse()
    return kept


def interpret_kernel(
    program: CompiledProgram,
    ops: Sequence[OpTuple],
    slots: Sequence[int],
) -> Callable:
    """A kernel that interprets the ops computing ``slots``: no ``compile()``.

    Returns ``_kernel(inp, ZERO, ONE)``: ``inp`` indexes one value per input
    row in ``program.input_slots`` order, and the result is a tuple with one
    value per requested slot.  This is the only Python loop over a
    program's ops, and it is domain-neutral (``NOT`` is ``x ^ ONE`` and
    ``MUX2`` is decomposed, like the generated source of
    :func:`~repro.perf.engines.generate_kernel_source`), so one kernel runs
    on numpy ``uint64`` rows, on whole-row Python bigints and on 0/1 ints.
    Building it costs a :func:`live_ops` pass, where a generated kernel
    costs a plan, its source text and ``compile()``.

    Example::

        ops = op_tuples(program)
        kernel = interpret_kernel(program, ops, program.output_slots)
        kernel(rows, 0, (1 << 64) - 1)       # one bigint per output slot
    """
    slots = [int(s) for s in slots]
    ops = live_ops(ops, slots)
    n_slots = program.n_slots
    input_rows = list(enumerate(program.input_slots.tolist()))

    def _kernel(inp, ZERO, ONE):
        v = [ZERO] * n_slots
        v[SLOT_ONE] = ONE
        for row, s in input_rows:
            v[s] = inp[row]
        # Branches ordered by frequency in the Table I cones.
        for op, a, b, c, dst in ops:
            if op == OP_AND2:
                v[dst] = v[a] & v[b]
            elif op == OP_XOR2:
                v[dst] = v[a] ^ v[b]
            elif op == OP_OR2:
                v[dst] = v[a] | v[b]
            elif op == OP_MUX2:
                sel = v[c]
                v[dst] = (v[b] & sel) | (v[a] & (sel ^ ONE))
            elif op == OP_NOT:
                v[dst] = v[a] ^ ONE
            elif op == OP_BUF:
                v[dst] = v[a]
            elif op == OP_XNOR2:
                v[dst] = (v[a] ^ v[b]) ^ ONE
            elif op == OP_NAND2:
                v[dst] = (v[a] & v[b]) ^ ONE
            elif op == OP_NOR2:
                v[dst] = (v[a] | v[b]) ^ ONE
            elif op == OP_AND3:
                v[dst] = v[a] & v[b] & v[c]
            elif op == OP_OR3:
                v[dst] = v[a] | v[b] | v[c]
            else:  # pragma: no cover - compiler emits only known opcodes
                raise RuntimeError(f"unknown opcode {op}")
        return tuple([v[s] for s in slots])

    return _kernel


def _run_rows(kernel: Callable, packed_inputs: np.ndarray) -> np.ndarray:
    """Run a kernel in the numpy domain: one ``(n_words,)`` row per net."""
    n_words = packed_inputs.shape[1]
    out = kernel(
        packed_inputs,
        np.zeros(n_words, dtype=np.uint64),
        np.full(n_words, _ALL_ONES, dtype=np.uint64),
    )
    if not out:
        return np.zeros((0, n_words), dtype=np.uint64)
    return np.stack(out)


class BitParallelEvaluator:
    """The reference interpreter: runs a :class:`CompiledProgram` through
    :func:`interpret_kernel`, on packed ``uint64`` rows or on one vector.

    Tests and the perf-smoke floors compare the engines of
    :mod:`repro.perf.engines` against it; those subclass it and replace
    :meth:`_call`, so the packed API and :meth:`evaluate_single` are shared.
    Interpreted kernels are cached per requested slot tuple.

    Example::

        evaluator = BitParallelEvaluator(compile_netlist(netlist))
        out_bits = evaluator.evaluate(input_bits)    # (n_vectors, n_outputs)
    """

    def __init__(self, program: CompiledProgram) -> None:
        self.program = program
        self._ops = op_tuples(program)
        self._interpreted: Dict[Tuple[int, ...], Callable] = {}

    # ------------------------------------------------------------------ #
    def _interpreter_for(self, slots: Tuple[int, ...]) -> Callable:
        kernel = self._interpreted.get(slots)
        if kernel is None:
            kernel = interpret_kernel(self.program, self._ops, slots)
            self._interpreted[slots] = kernel
        return kernel

    def _checked(self, packed_inputs: np.ndarray) -> np.ndarray:
        """``packed_inputs`` as ``uint64``, checked to be ``(n_inputs, n_words)``."""
        packed_inputs = np.asarray(packed_inputs, dtype=np.uint64)
        n_inputs = self.program.n_inputs
        if packed_inputs.ndim != 2 or packed_inputs.shape[0] != n_inputs:
            raise ValueError(
                f"expected packed inputs of shape ({n_inputs}, n_words), "
                f"got {packed_inputs.shape}"
            )
        return packed_inputs

    def _call(self, slots: Tuple[int, ...], packed_inputs: np.ndarray) -> np.ndarray:
        """Packed rows of ``slots``: the one method the engines replace."""
        return _run_rows(self._interpreter_for(slots), self._checked(packed_inputs))

    # ------------------------------------------------------------------ #
    def evaluate_packed_slots(
        self, packed_inputs: np.ndarray, slots: Sequence[int]
    ) -> np.ndarray:
        """Run the program and return only the requested slot rows.

        ``packed_inputs`` must have shape ``(n_inputs, n_words)`` with rows
        in ``program.input_names`` order (as produced by
        :func:`pack_vectors`).  The narrow-waist API every evaluator shares:
        only the ops the requested slots read run.  ``slots`` may repeat and
        may name constant or input slots (sequential cones do both).

        Example::

            rows = evaluator.evaluate_packed_slots(packed, program.output_slots)
        """
        return self._call(tuple(int(s) for s in slots), packed_inputs)

    def evaluate_packed(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Run the program; returns the full slot state ``(n_slots, n_words)``."""
        return self._call(tuple(range(self.program.n_slots)), packed_inputs)

    def evaluate_single(self, input_bits: Sequence[int]) -> List[int]:
        """Run the program for one vector on plain Python 0/1 ints.

        Numpy kernels only pay off with many vectors per word; for the
        single-vector case (``simulate_combinational``) the interpreted
        kernel on scalars is several times faster than both the packed path
        and the per-gate walk.  Returns the full slot state as a list of
        0/1 ints.
        """
        program = self.program
        if len(input_bits) != program.n_inputs:
            raise ValueError(
                f"expected {program.n_inputs} input bits, got {len(input_bits)}"
            )
        kernel = self._interpreter_for(tuple(range(program.n_slots)))
        return list(kernel([1 if bit else 0 for bit in input_bits], 0, 1))

    def evaluate(self, input_bits: np.ndarray) -> np.ndarray:
        """Evaluate primary outputs for a ``(n_vectors, n_inputs)`` bit matrix.

        Returns a ``(n_vectors, n_outputs)`` 0/1 matrix with columns in
        ``program.output_names`` order.
        """
        packed, n_vectors = pack_vectors(input_bits)
        rows = self.evaluate_packed_slots(packed, self.program.output_slots)
        return unpack_vectors(rows, n_vectors)

    def evaluate_nets(self, input_bits: np.ndarray) -> Dict[str, np.ndarray]:
        """Evaluate and return the value of every *named* net.

        Returns ``{net: (n_vectors,) 0/1 array}`` covering constants, primary
        inputs and every gate output — the batch analogue of
        :func:`repro.hw.simulate.simulate_combinational`'s result dict.
        """
        packed, n_vectors = pack_vectors(input_bits)
        named = sorted(self.program.net_slots.items(), key=lambda kv: kv[1])
        slots = np.asarray([slot for _, slot in named], dtype=np.int64)
        bits = unpack_vectors(self.evaluate_packed_slots(packed, slots), n_vectors)
        return {net: bits[:, k] for k, (net, _) in enumerate(named)}


def evaluator_for(
    netlist: GateNetlist,
    library: Optional[CellLibrary] = None,
    opt_level: int = 0,
    engine: str = "auto",
) -> BitParallelEvaluator:
    """Compile (cached) and wrap a netlist for bit-parallel evaluation.

    ``opt_level`` selects the :mod:`repro.hw.opt` pipeline level the program
    is compiled at (0 = raw netlist, the oracle); ``engine`` selects the
    execution engine (``'auto'`` or ``'native'`` — see
    :mod:`repro.perf.engines`).  Evaluators are cached per compiled program
    *and* resolved engine, so alternating between levels or engines does
    not rewrap, a ``'native'`` request that degrades to ``'auto'`` shares
    the ``'auto'`` entry, and any structural mutation of the netlist drops
    the evaluator together with its compiled kernels.

    Example::

        evaluator = evaluator_for(netlist, opt_level=2, engine="native")
        evaluator.evaluate(vectors)          # bit-parallel sweep
        evaluator.evaluate_single([0, 1, 1]) # scalar fast path
    """
    from repro.perf.engines import make_evaluator, resolve_engine

    library = library or EGFET_PDK
    program = compile_netlist(netlist, library, opt_level=opt_level)
    resolved = resolve_engine(engine)
    cache = getattr(netlist, "_bitsim_evaluator_cache", None)
    if not isinstance(cache, dict):
        cache = {}
        netlist._bitsim_evaluator_cache = cache
    # Same key shape as the compile cache plus the resolved engine; the
    # `is`-check on the program guards against a recycled library id after
    # garbage collection.
    signature = netlist.structural_signature()
    key = (id(library), signature, int(opt_level), resolved)
    cached = cache.get(key)
    if cached is not None and cached[0] is program:
        return cached[1]
    evaluator = make_evaluator(program, resolved)
    # Evaluators wrapped for older structures can never be served again.
    for stale in [k for k in cache if k[1] != signature]:
        del cache[stale]
    cache[key] = (program, evaluator)
    return evaluator


def simulate_netlist_batch(
    netlist: GateNetlist,
    input_bits: np.ndarray,
    library: Optional[CellLibrary] = None,
    opt_level: int = 0,
    engine: str = "auto",
) -> np.ndarray:
    """Bit-parallel sweep of a netlist: outputs for a batch of input vectors.

    ``input_bits`` has shape ``(n_vectors, n_inputs)`` with columns in
    ``netlist.inputs`` order; the result has shape ``(n_vectors, n_outputs)``
    with columns in ``netlist.outputs`` order.  ``opt_level > 0`` evaluates
    the optimized program instead of the raw one (same outputs, fewer
    ops — bit-exactness is enforced by the equivalence suite); ``engine``
    selects the execution backend (see :mod:`repro.perf.engines`).

    Example::

        netlist = build_ripple_adder_netlist(4)
        vectors = rng.integers(0, 2, size=(256, len(netlist.inputs)))
        outputs = simulate_netlist_batch(netlist, vectors, opt_level=2)
    """
    return evaluator_for(
        netlist, library, opt_level=opt_level, engine=engine
    ).evaluate(input_bits)


def words_to_ints(bits: np.ndarray, lanes: Sequence[int]) -> np.ndarray:
    """Assemble integer values from bit columns (LSB-first lane order).

    Convenience for decoding multi-bit buses out of :meth:`evaluate` results:
    ``words_to_ints(out_bits, [i0, i1, ...])`` returns
    ``sum_k out_bits[:, ik] << k`` per vector.

    Example::

        sums = words_to_ints(out_bits, [0, 1, 2, 3])   # 4-bit LSB-first bus
    """
    bits = np.asarray(bits, dtype=np.int64)
    value = np.zeros(bits.shape[0], dtype=np.int64)
    for k, lane in enumerate(lanes):
        value |= bits[:, lane].astype(np.int64) << k
    return value


def words_to_signed_ints(bits: np.ndarray, lanes: Sequence[int]) -> np.ndarray:
    """Like :func:`words_to_ints` but decodes two's complement.

    The last lane is the sign bit: a set MSB subtracts ``2**width``.  Used to
    decode the signed score buses of the gate-level sequential SVM.

    Example::

        scores = words_to_signed_ints(out_bits, range(10))   # 10-bit signed
    """
    lanes = list(lanes)
    value = words_to_ints(bits, lanes)
    width = len(lanes)
    return value - ((value >> (width - 1)) << width)
