"""The ``native`` execution engine: compiled-C kernels called through ctypes.

The compiled tier of the ``auto`` engine (:mod:`repro.perf.engines`)
already collapses a whole compiled cone into one straight-line function of
chained bitwise expressions — but CPython still interprets that function,
one bytecode op (or one bignum limb loop) at a time.  This module emits the *same planned kernel* as C
(:func:`generate_c_kernel_source` is the C twin of
:func:`~repro.perf.engines.generate_kernel_source`; both consume one
:func:`~repro.perf.engines.plan_kernel` pass), compiles it at
evaluator-construction time with the system toolchain
(``cc``/``gcc``/``clang``, ``-O2 -fPIC -shared``) into a shared object, and
calls it through :mod:`ctypes`:

* **ABI** — ``void repro_kernel(const uint64_t *in, uint64_t *out,
  int64_t n_words)``: ``in`` is the packed input matrix (``n_inputs`` rows
  of ``n_words`` words, C-contiguous) and ``out`` the output matrix (one
  row per requested slot).  Every batch is one kernel call on the calling
  thread: splitting the word axis across threads ran at 0.62–0.95x of one
  thread on a 2-vCPU host (``docs/performance.md``), so nothing shards.
* **caching** — compiled objects go through :func:`repro.toolchain.load_shared`
  (memory per process, disk under ``$REPRO_CACHE_DIR``), keyed by toolchain,
  flags and kernel source.  Structural netlist mutation produces different
  source, hence a different key; a second process with the same netlist
  structure loads the ``.so`` without invoking the compiler.
* **degradation** — with no compiler (or ``$REPRO_NO_NATIVE=1``, see
  :func:`repro.toolchain.find_toolchain`),
  ``engine='native'`` degrades to ``'auto'`` with a one-time
  ``RuntimeWarning``, and ``'auto'`` never selects ``native`` — hosts
  without a toolchain keep working, just not faster.

Typical use goes through the ``engine=`` selector, not this module::

    evaluator_for(netlist, engine="native").evaluate(vectors)
    simulate_sequential_batch(netlist, stream, engine="native")
"""

from __future__ import annotations

import ctypes
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import toolchain as _toolchain
from repro.perf.bitsim import BitParallelEvaluator
from repro.perf.compile import CompiledProgram
from repro.perf.engines import plan_kernel
from repro.toolchain import Toolchain, native_available  # noqa: F401  (re-export)

#: Compiler flags of the gate kernels (bitwise ops only, so no float rules).
CFLAGS = ("-O2",)

_U64P = ctypes.POINTER(ctypes.c_uint64)

#: Placeholder passed as ``in`` when the program has no inputs (the kernel
#: never dereferences it, but ctypes needs a valid pointer).
_EMPTY_IN = np.zeros(1, dtype=np.uint64)

_WARNED_MISSING = False


def warn_toolchain_missing() -> None:
    """One-time ``RuntimeWarning`` that ``native`` degraded to ``auto``."""
    global _WARNED_MISSING
    if not _WARNED_MISSING:
        _WARNED_MISSING = True
        warnings.warn(
            "no C toolchain found (tried $CC, cc, gcc, clang): "
            "engine='native' degrades to 'auto' on this host",
            RuntimeWarning,
            stacklevel=3,
        )


# --------------------------------------------------------------------------- #
# C source emission (the C twin of generate_kernel_source)
# --------------------------------------------------------------------------- #
def generate_c_kernel_source(
    program: CompiledProgram, slots: Sequence[int]
) -> str:
    """Emit C source computing the packed values of ``slots``.

    Consumes the same :func:`~repro.perf.engines.plan_kernel` analysis as
    the Python emitter — the planned expression texts are valid in both
    languages (names, parentheses and ``& | ^``, whose precedence ordering
    matches) — and wraps them in one loop over the ``n_words`` words.

    Example::

        src = generate_c_kernel_source(program, program.output_slots)
        print(src)          # inspect what the native engine executes
    """
    slots = [int(s) for s in slots]
    plan = plan_kernel(program, slots)
    lines: List[str] = []
    for s, row in plan.input_loads:
        lines.append(
            f"        const uint64_t i{s} = in[(int64_t){row} * n_words + w];"
        )
    for dst, text in plan.statements:
        lines.append(f"        const uint64_t v{dst} = {text};")
    for j, text in enumerate(plan.returns):
        lines.append(f"        out[(int64_t){j} * n_words + w] = {text};")
    body = "\n".join(lines)
    return (
        "#include <stdint.h>\n"
        "\n"
        f"/* {program.name}: {len(plan.input_loads)} inputs, "
        f"{len(plan.statements)} locals, {len(slots)} outputs */\n"
        "void repro_kernel(const uint64_t *in, uint64_t *out, int64_t n_words)\n"
        "{\n"
        "    const uint64_t ZERO = (uint64_t)0;\n"
        "    const uint64_t ONE = ~(uint64_t)0;\n"
        "    (void)ZERO; (void)ONE; (void)in;\n"
        "    for (int64_t w = 0; w < n_words; ++w) {\n"
        + (body + "\n" if body else "")
        + "    }\n"
        "}\n"
    )


# --------------------------------------------------------------------------- #
class NativeEvaluator(BitParallelEvaluator):
    """Executes a program as one compiled-C function per requested slot tuple.

    Kernels are generated, compiled and loaded lazily per slot tuple (same
    laziness as :class:`~repro.perf.engines.CodegenEvaluator`) and cached on
    the evaluator; the shared objects additionally persist in the process-
    and disk-level caches (:func:`repro.toolchain.load_shared`).  Evaluator instances are
    cached per netlist structure by
    :func:`~repro.perf.bitsim.evaluator_for`, so structural mutation retires
    the evaluator — and its new source hashes to a new disk key.

    Example::

        out = NativeEvaluator(compile_netlist(netlist)).evaluate(vectors)
    """

    def __init__(
        self, program: CompiledProgram, toolchain: Optional[Toolchain] = None
    ) -> None:
        super().__init__(program)
        toolchain = toolchain if toolchain is not None else _toolchain.find_toolchain()
        if toolchain is None:
            raise RuntimeError(
                "no C toolchain available — construct evaluators through "
                "make_evaluator(engine='native'), which degrades to auto"
            )
        self.toolchain = toolchain
        self._kernels: Dict[Tuple[int, ...], object] = {}
        self._sources: Dict[Tuple[int, ...], str] = {}

    # ------------------------------------------------------------------ #
    def _kernel_for(self, slots: Tuple[int, ...]):
        fn = self._kernels.get(slots)
        if fn is None:
            source = generate_c_kernel_source(self.program, slots)
            fn = _toolchain.load_shared(source, CFLAGS, self.toolchain).repro_kernel
            fn.argtypes = [_U64P, _U64P, ctypes.c_int64]
            fn.restype = None
            self._kernels[slots] = fn
            self._sources[slots] = source
        return fn

    def kernel_source(self, slots: Sequence[int]) -> str:
        """The generated C source for a slot tuple (compiling it if needed)."""
        slots = tuple(int(s) for s in slots)
        self._kernel_for(slots)
        return self._sources[slots]

    def _call(self, slots: Tuple[int, ...], packed_inputs: np.ndarray) -> np.ndarray:
        fn = self._kernel_for(slots)
        packed_inputs = np.ascontiguousarray(self._checked(packed_inputs))
        n_words = packed_inputs.shape[1]
        out = np.empty((len(slots), n_words), dtype=np.uint64)
        if n_words == 0 or not slots:
            return out
        in_arr = packed_inputs if self.program.n_inputs else _EMPTY_IN
        fn(in_arr.ctypes.data_as(_U64P), out.ctypes.data_as(_U64P), n_words)
        return out
