"""The execution engines behind ``engine=``: ``auto`` and ``native``.

:class:`~repro.perf.bitsim.BitParallelEvaluator`, the reference
interpreter, issues one numpy dispatch per gate op, so the sub-200-gate
netlists behind Table I are dispatch-bound: each ``v[a] & v[b]`` costs far
more in ufunc dispatch than in actual 64-bit word work.  The two engines
execute the *same* :class:`~repro.perf.compile.CompiledProgram`
bit-exactly, faster:

``auto`` (the default everywhere)
    Emits the whole cone as one generated Python function of chained
    bitwise expressions — dead scratch slots collapse into subexpressions,
    ops feeding a single consumer are inlined — then ``compile()`` it once
    per netlist structure.  The generated source is *domain-neutral*
    (``NOT`` is spelled ``x ^ ONE``, ``MUX2`` is decomposed into
    AND/OR/XOR), so the very same kernel runs on two operand domains:

    * **bigint** — each net's whole packed row as one arbitrary-precision
      Python int (``int.from_bytes`` of the row).  Python's bignum kernels
      chew 64-bit limbs in a C loop with *zero* numpy dispatch, which is
      ~an order of magnitude faster than per-op numpy for small word counts.
    * **numpy** — the usual ``(n_words,)`` ``uint64`` rows, used for large
      batches where bignum temporaries would outgrow the cache.

    The evaluator switches domains on ``n_words`` at call time.  Like a JIT,
    ``auto`` tiers up: a slot tuple runs through
    :func:`~repro.perf.bitsim.interpret_kernel` on whole-row bigints for its
    first :data:`TIER_UP_CALLS` bigint-domain calls, and is compiled at the
    next one.  A verification clocks a cone a handful of times, far fewer
    than the calls it takes to pay back a compile; a numpy-domain call
    compiles at once.

``native``
    The C twin of the compiled tier (:mod:`repro.perf.native`): the same
    planned kernel is emitted as one C function of chained bitwise ops
    over ``uint64_t`` words, compiled with the system toolchain into a
    shared object and called through ``ctypes``, once per batch on the
    calling thread.  On hosts with no C compiler, ``native`` degrades to
    ``auto`` with a one-time warning.  ``auto`` never selects ``native``:
    a cold ``gcc`` per cone costs more than a whole verification.

Both engines subclass :class:`BitParallelEvaluator`, so the scalar
``evaluate_single`` path and the packed API are shared.  Both are validated
bit-exact against the reference interpreter on the netlist zoo
(combinational and sequential, all opt levels; ``tests/perf/``) and against
the gate walk on generated netlists (``tests/hw/test_engines_generated.py``).

Typical use goes through the ``engine=`` selector on the public entry
points rather than these classes directly::

    evaluator_for(netlist, engine="native").evaluate(vectors)
    simulate_sequential_batch(netlist, stream, engine="auto")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.perf.bitsim import BitParallelEvaluator, _run_rows, live_ops, op_tuples
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
    SLOT_ONE,
    SLOT_ZERO,
)

#: The recognised engine names, in documentation order.
ENGINES = ("auto", "native")

#: The compiled tier of ``auto`` runs on Python bigints (one
#: arbitrary-precision int per net row) up to this many words per row, and
#: on numpy arrays beyond.  Measured crossover on the 45-gate array
#: multiplier: bigints win ~10x at 4 words and still ~3x at 128; numpy wins
#: past ~512 words.
BIGINT_MAX_WORDS = 256

#: Under ``engine='auto'`` a slot tuple runs interpreted for this many
#: bigint-domain calls and is compiled at the next one.  On the Table I
#: cones a compile pays for itself only after ~50-280 calls (the
#: break-even table in ``docs/performance.md``); a verification makes 3-10.
TIER_UP_CALLS = 64


def resolve_engine(engine: str) -> str:
    """Resolve an ``engine=`` argument to the engine that will run.

    ``native`` resolves to itself only when a C toolchain is present;
    otherwise it degrades to ``auto`` with a one-time warning, so the
    engine-keyed evaluator caches naturally share the ``auto`` instance.
    Unknown names raise ``ValueError``.

    Example::

        resolve_engine("auto")               # 'auto'
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "native":
        from repro.perf import native as native_mod

        if not native_mod.native_available():
            native_mod.warn_toolchain_missing()
            return "auto"
    return engine


def available_engines() -> Tuple[str, ...]:
    """The engine names usable on this host, in :data:`ENGINES` order.

    ``native`` is listed only when a C toolchain was found (requesting it
    without one still works — it degrades to ``auto`` — but callers like
    the served-model metadata and the benchmarks want the honest list).
    """
    from repro.perf import native as native_mod

    if native_mod.native_available():
        return ENGINES
    return ("auto",)


# --------------------------------------------------------------------------- #
# Per-structure code generation
# --------------------------------------------------------------------------- #
# Domain-neutral expression templates: complement is spelled `x ^ ONE` and
# MUX2 is decomposed, so a generated kernel is valid both for numpy uint64
# rows (ONE = all-ones array) and for Python bigints (ONE = (1<<bits)-1).
_TEMPLATES = {
    OP_BUF: "{a}",
    OP_NOT: "{a} ^ ONE",
    OP_AND2: "{a} & {b}",
    OP_OR2: "{a} | {b}",
    OP_XOR2: "{a} ^ {b}",
    OP_NAND2: "({a} & {b}) ^ ONE",
    OP_NOR2: "({a} | {b}) ^ ONE",
    OP_XNOR2: "({a} ^ {b}) ^ ONE",
    OP_AND3: "{a} & {b} & {c}",
    OP_OR3: "{a} | {b} | {c}",
    OP_MUX2: "({b} & {c}) | ({a} & ({c} ^ ONE))",
}
# How often each operand position is referenced by its template (MUX2 reads
# its select twice) — drives the inline-vs-local-variable decision.
_TEMPLATE_REFS = {
    OP_BUF: (0,),
    OP_NOT: (0,),
    OP_AND2: (0, 1),
    OP_OR2: (0, 1),
    OP_XOR2: (0, 1),
    OP_NAND2: (0, 1),
    OP_NOR2: (0, 1),
    OP_XNOR2: (0, 1),
    OP_AND3: (0, 1, 2),
    OP_OR3: (0, 1, 2),
    OP_MUX2: (0, 1, 2, 2),
}
# Expressions nested deeper than this become a local variable even when
# single-use: keeps generated sources readable and CPython's parser away
# from its nesting limits on long ripple chains.
_MAX_INLINE_DEPTH = 12


@dataclass(frozen=True)
class KernelPlan:
    """A planned straight-line kernel, ready for a language-specific emitter.

    The expression texts use only names (``i<slot>`` input loads, ``v<slot>``
    locals, ``ZERO``/``ONE`` constants), parentheses and the operators
    ``& | ^`` — whose precedence ordering is identical in Python and C — so
    one plan serves both the Python emitter (:func:`generate_kernel_source`)
    and the C emitter (:func:`repro.perf.native.generate_c_kernel_source`).
    """

    #: ``(slot, input_row)`` pairs to load, in ``program.input_slots`` order
    #: (dead inputs already dropped).
    input_loads: Tuple[Tuple[int, int], ...]
    #: ``(dst_slot, expression_text)`` local-variable assignments, in
    #: execution order.
    statements: Tuple[Tuple[int, str], ...]
    #: One expression text per requested slot, in request order.
    returns: Tuple[str, ...]


def plan_kernel(program: CompiledProgram, slots: Sequence[int]) -> KernelPlan:
    """Liveness/inlining analysis shared by the Python and C code emitters.

    Backward liveness from the requested ``slots``
    (:func:`~repro.perf.bitsim.live_ops`) drops
    dead ops before any text is produced; ops feeding a single consumer are
    inlined into their use site (bounded by :data:`_MAX_INLINE_DEPTH` so
    parsers survive long ripple chains); multi-use ops become ``v<slot>``
    locals.

    Example::

        plan = plan_kernel(program, program.output_slots)
        len(plan.returns) == len(program.output_slots)
    """
    slots = [int(s) for s in slots]
    ops = live_ops(op_tuples(program), slots)
    use_count: Dict[int, int] = {}
    for opcode, a, b, c, _ in ops:
        operand_by_pos = (a, b, c)
        for pos in _TEMPLATE_REFS[opcode]:
            s = operand_by_pos[pos]
            use_count[s] = use_count.get(s, 0) + 1
    for s in slots:
        use_count[s] = use_count.get(s, 0) + 1

    # expr[slot] = (text, depth, atomic); atomic == no parens needed on use.
    expr: Dict[int, Tuple[str, int, bool]] = {
        SLOT_ZERO: ("ZERO", 0, True),
        SLOT_ONE: ("ONE", 0, True),
    }
    input_loads: List[Tuple[int, int]] = []
    for row, s in enumerate(program.input_slots.tolist()):
        expr[s] = (f"i{s}", 0, True)
        if use_count.get(s, 0):
            input_loads.append((s, row))

    def ref(s: int) -> Tuple[str, int]:
        text, depth, atomic = expr[s]
        return (text if atomic else f"({text})"), depth

    statements: List[Tuple[int, str]] = []
    for opcode, a, b, c, dst in ops:
        if opcode == OP_BUF:
            expr[dst] = expr[a]
            continue
        ea, da = ref(a)
        arity = OP_ARITY[opcode]
        if arity == 1:
            text, depth = _TEMPLATES[opcode].format(a=ea), da + 1
        elif arity == 2:
            eb, db = ref(b)
            text, depth = _TEMPLATES[opcode].format(a=ea, b=eb), max(da, db) + 1
        else:
            eb, db = ref(b)
            ec, dc = ref(c)
            text = _TEMPLATES[opcode].format(a=ea, b=eb, c=ec)
            depth = max(da, db, dc) + 1
        if use_count.get(dst, 0) > 1 or depth > _MAX_INLINE_DEPTH:
            statements.append((dst, text))
            expr[dst] = (f"v{dst}", 0, True)
        else:
            expr[dst] = (text, depth, False)

    return KernelPlan(
        input_loads=tuple(input_loads),
        statements=tuple(statements),
        returns=tuple(ref(s)[0] for s in slots),
    )


def generate_kernel_source(
    program: CompiledProgram, slots: Sequence[int]
) -> str:
    """Emit Python source computing the packed values of ``slots``.

    The generated function has signature ``_kernel(inp, ZERO, ONE)`` where
    ``inp`` indexes the packed input rows in ``program.input_slots`` order,
    and returns a tuple with one entry per requested slot.  Ops feeding a
    single consumer are inlined into their use site (so dead scratch slots
    vanish entirely); multi-use ops become local variables.  The source is
    domain-neutral: run it on numpy rows or on whole-row bigints.  The
    planning pass is shared with the C emitter (:func:`plan_kernel`).

    Example::

        src = generate_kernel_source(program, program.output_slots)
        print(src)          # inspect what ``auto`` runs once compiled
    """
    plan = plan_kernel(program, slots)
    lines = [f"    i{s} = inp[{row}]" for s, row in plan.input_loads]
    lines += [f"    v{dst} = {text}" for dst, text in plan.statements]
    body = "\n".join(lines)
    # A trailing comma makes a one-tuple; an empty slot tuple returns ().
    returns = "".join(f"{text}, " for text in plan.returns)
    return (
        "def _kernel(inp, ZERO, ONE):\n"
        + (body + "\n" if body else "")
        + f"    return ({returns.rstrip()})\n"
    )


class CodegenEvaluator(BitParallelEvaluator):
    """The ``auto`` engine: interpreted first, then one ``compile()``d
    Python function per requested slot tuple.

    A slot tuple (the full-state compat path, the output slots, a
    sequential cone's output+next-state slots, ...) runs through
    :func:`~repro.perf.bitsim.interpret_kernel` for its first
    :data:`TIER_UP_CALLS` bigint-domain calls; the next call, or any
    numpy-domain call, generates and compiles its kernel, which the
    evaluator then keeps.  Evaluator instances themselves are cached per
    netlist structure by :func:`~repro.perf.bitsim.evaluator_for`, so
    structural mutation drops the kernels together with the evaluator — the
    same invalidation discipline as every other compiled artifact.

    At call time the operand domain is chosen by batch size: whole-row
    Python bigints up to :data:`BIGINT_MAX_WORDS` words (zero numpy
    dispatch; Python's bignum loops do the word work in C), numpy ``uint64``
    rows above.

    Example::

        out = CodegenEvaluator(compile_netlist(netlist)).evaluate(vectors)
    """

    def __init__(self, program: CompiledProgram) -> None:
        super().__init__(program)
        self._kernels: Dict[Tuple[int, ...], Callable] = {}
        self._sources: Dict[Tuple[int, ...], str] = {}
        #: slot tuple -> bigint-domain calls it has run interpreted
        self._calls: Dict[Tuple[int, ...], int] = {}

    # ------------------------------------------------------------------ #
    def _kernel_for(self, slots: Tuple[int, ...]):
        kernel = self._kernels.get(slots)
        if kernel is None:
            source = generate_kernel_source(self.program, slots)
            namespace: Dict[str, object] = {}
            exec(  # noqa: S102 - source is generated from the program, not user input
                compile(source, f"<codegen:{self.program.name}>", "exec"), namespace
            )
            kernel = namespace["_kernel"]
            self._kernels[slots] = kernel
            self._sources[slots] = source
            self._interpreted.pop(slots, None)
            self._calls.pop(slots, None)
        return kernel

    def _tiered_kernel(self, slots: Tuple[int, ...], n_words: int):
        """The kernel for this call: interpreted until the slot tuple tiers up."""
        kernel = self._kernels.get(slots)
        if kernel is not None:
            return kernel
        calls = self._calls.get(slots, 0)
        if n_words > BIGINT_MAX_WORDS or calls >= TIER_UP_CALLS:
            return self._kernel_for(slots)
        self._calls[slots] = calls + 1
        return self._interpreter_for(slots)

    def kernel_source(self, slots: Sequence[int]) -> str:
        """The generated source for a slot tuple (compiling it if needed)."""
        slots = tuple(int(s) for s in slots)
        self._kernel_for(slots)
        return self._sources[slots]

    def _call(self, slots: Tuple[int, ...], packed_inputs: np.ndarray) -> np.ndarray:
        packed_inputs = self._checked(packed_inputs)
        n_words = packed_inputs.shape[1]
        kernel = self._tiered_kernel(slots, n_words)
        if n_words > BIGINT_MAX_WORDS:
            return _run_rows(kernel, packed_inputs)
        # Bigint domain: one arbitrary-precision int per input row.
        n_bytes = n_words * 8
        raw = np.ascontiguousarray(packed_inputs.astype("<u8", copy=False))
        blob = raw.tobytes()
        rows = [
            int.from_bytes(blob[r * n_bytes : (r + 1) * n_bytes], "little")
            for r in range(self.program.n_inputs)
        ]
        out = kernel(rows, 0, (1 << (64 * n_words)) - 1)
        if not out:
            return np.zeros((0, n_words), dtype=np.uint64)
        packed_out = b"".join(x.to_bytes(n_bytes, "little") for x in out)
        return (
            np.frombuffer(packed_out, dtype="<u8")
            .reshape(len(out), n_words)
            .astype(np.uint64, copy=False)
        )


# --------------------------------------------------------------------------- #
def make_evaluator(
    program: CompiledProgram, engine: str = "auto"
) -> BitParallelEvaluator:
    """Construct the evaluator class selected by ``engine`` for a program.

    The resolved engine name is recorded on the instance as ``.engine``.

    Example::

        evaluator = make_evaluator(compile_netlist(netlist), engine="auto")
        evaluator.engine                     # 'auto'
    """
    resolved = resolve_engine(engine)
    if resolved == "native":
        from repro.perf.native import NativeEvaluator

        evaluator = NativeEvaluator(program)
    else:
        evaluator = CodegenEvaluator(program)
    evaluator.engine = resolved
    return evaluator
