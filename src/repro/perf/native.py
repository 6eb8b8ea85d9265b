"""The ``native`` execution engine: compiled-C kernels called through ctypes.

The ``codegen`` engine (:mod:`repro.perf.engines`) already collapses a whole
compiled cone into one straight-line function of chained bitwise expressions
— but CPython still interprets that function, one bytecode op (or one bignum
limb loop) at a time.  This module emits the *same planned kernel* as C
(:func:`generate_c_kernel_source` is the C twin of
:func:`~repro.perf.engines.generate_kernel_source`; both consume one
:func:`~repro.perf.engines.plan_kernel` pass), compiles it at
evaluator-construction time with the system toolchain
(``cc``/``gcc``/``clang``, ``-O2 -fPIC -shared``) into a shared object, and
calls it through :mod:`ctypes`:

* **ABI** — ``void repro_kernel(const uint64_t *in, uint64_t *out,
  int64_t n_words, int64_t w_lo, int64_t w_hi)``: ``in`` is the packed
  input matrix (``n_inputs`` rows of ``n_words`` words, C-contiguous),
  ``out`` the output matrix (one row per requested slot), and the kernel
  computes only the word columns ``[w_lo, w_hi)``.  The word-range
  arguments make thread sharding free: shards write disjoint columns, so
  no synchronisation is needed.
* **GIL-free parallelism** — ctypes releases the GIL for the duration of
  the call, so :class:`NativeEvaluator` shards the word axis of large
  batches across a small persistent thread pool (below
  :data:`NATIVE_PARALLEL_MIN_WORDS` words it stays single-threaded: a
  kernel call on a few words finishes in microseconds, under the cost of
  waking a worker).
* **caching** — compiled objects are cached in memory per process *and* on
  disk under the PR 2 cache root (``$REPRO_CACHE_DIR`` or
  ``~/.cache/repro``), keyed by the SHA-256 of (toolchain fingerprint +
  kernel source).  Structural netlist mutation produces different source,
  hence a different key — the same invalidation discipline as every other
  compiled artifact.  A second process (or a second run) with the same
  netlist structure loads the ``.so`` without invoking the compiler.
* **degradation** — toolchain detection runs once per process and is
  cached.  With no compiler (or ``$REPRO_NO_NATIVE=1``),
  ``engine='native'`` degrades to ``'codegen'`` with a one-time
  ``RuntimeWarning``, and ``'auto'`` never selects ``native`` — hosts
  without a toolchain keep working, just not faster.

Tuning knobs (all validated at import): ``$REPRO_NATIVE_THREADS`` (shards
per large batch, default ``min(4, cpu_count)``), ``$REPRO_NATIVE_MIN_WORDS``
(single-thread threshold, default 2048 words = 128 Ki vectors),
``$REPRO_NO_NATIVE`` (force the fallback path, used by CI to keep it from
rotting).

Typical use goes through the ``engine=`` selector, not this module::

    evaluator_for(netlist, engine="native").evaluate(vectors)
    simulate_sequential_batch(netlist, stream, engine="native")
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.perf.bitsim import BitParallelEvaluator
from repro.perf.compile import CompiledProgram
from repro.perf.engines import _env_int, plan_kernel

#: Set to ``1``/``true``/``yes`` to pretend no toolchain exists — forces the
#: native -> codegen fallback path (exercised by a CI matrix leg).
NO_NATIVE_ENV = "REPRO_NO_NATIVE"

#: Threads a large batch is sharded across (``$REPRO_NATIVE_THREADS``).
NATIVE_THREADS = _env_int(
    "REPRO_NATIVE_THREADS", min(4, os.cpu_count() or 1), minimum=1
)

#: Batches narrower than this many words run single-threaded
#: (``$REPRO_NATIVE_MIN_WORDS``).  2048 words = 128 Ki vectors: below that
#: a kernel call finishes in microseconds and pool handoff would dominate.
NATIVE_PARALLEL_MIN_WORDS = _env_int("REPRO_NATIVE_MIN_WORDS", 2048, minimum=1)

_U64P = ctypes.POINTER(ctypes.c_uint64)

#: Placeholder passed as ``in`` when the program has no inputs (the kernel
#: never dereferences it, but ctypes needs a valid pointer).
_EMPTY_IN = np.zeros(1, dtype=np.uint64)


# --------------------------------------------------------------------------- #
# Toolchain detection (once per process, cached)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Toolchain:
    """A probed C compiler: absolute path plus its ``--version`` first line."""

    path: str
    version: str

    @property
    def fingerprint(self) -> str:
        """Stable digest of (path, version) — part of the disk-cache key, so
        upgrading or switching compilers invalidates cached objects."""
        return hashlib.sha256(
            f"{self.path}\0{self.version}".encode()
        ).hexdigest()[:16]


_UNPROBED = object()
_TOOLCHAIN: object = _UNPROBED
_TOOLCHAIN_LOCK = threading.Lock()


def _probe_toolchain() -> Optional[Toolchain]:
    if os.environ.get(NO_NATIVE_ENV, "").strip().lower() in ("1", "true", "yes"):
        return None
    candidates: List[str] = []
    cc_env = os.environ.get("CC", "").strip()
    if cc_env:
        candidates.append(cc_env)
    candidates += ["cc", "gcc", "clang"]
    for name in candidates:
        path = shutil.which(name)
        if not path:
            continue
        try:
            proc = subprocess.run(
                [path, "--version"], capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.SubprocessError):
            continue
        if proc.returncode == 0 and proc.stdout.strip():
            return Toolchain(path=path, version=proc.stdout.splitlines()[0].strip())
    return None


def find_toolchain(refresh: bool = False) -> Optional[Toolchain]:
    """The system C compiler, probed once per process and cached.

    Honors ``$CC`` first, then ``cc``/``gcc``/``clang`` on ``PATH``; a
    candidate counts only if it answers ``--version``.  Returns ``None``
    when :data:`NO_NATIVE_ENV` is set or nothing usable is found.
    ``refresh=True`` re-probes (tests use it after changing the
    environment).
    """
    global _TOOLCHAIN
    with _TOOLCHAIN_LOCK:
        if _TOOLCHAIN is _UNPROBED or refresh:
            _TOOLCHAIN = _probe_toolchain()
        return _TOOLCHAIN  # type: ignore[return-value]


def native_available() -> bool:
    """Whether ``engine='native'`` would actually run compiled C here."""
    return find_toolchain() is not None


_WARNED_MISSING = False


def warn_toolchain_missing() -> None:
    """One-time ``RuntimeWarning`` that ``native`` degraded to ``codegen``."""
    global _WARNED_MISSING
    if not _WARNED_MISSING:
        _WARNED_MISSING = True
        warnings.warn(
            "no C toolchain found (tried $CC, cc, gcc, clang): "
            "engine='native' degrades to 'codegen' on this host",
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
    matches) — and wraps them in one word loop over ``[w_lo, w_hi)``.

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
        "void repro_kernel(const uint64_t *in, uint64_t *out,\n"
        "                  int64_t n_words, int64_t w_lo, int64_t w_hi)\n"
        "{\n"
        "    const uint64_t ZERO = (uint64_t)0;\n"
        "    const uint64_t ONE = ~(uint64_t)0;\n"
        "    (void)ZERO; (void)ONE; (void)in;\n"
        "    for (int64_t w = w_lo; w < w_hi; ++w) {\n"
        + (body + "\n" if body else "")
        + "    }\n"
        "}\n"
    )


# --------------------------------------------------------------------------- #
# Compilation + two-level (memory, disk) kernel cache
# --------------------------------------------------------------------------- #
def kernel_cache_dir() -> Path:
    """Directory of the on-disk shared-object cache.

    Lives under the PR 2 persistent cache root (``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro``), so one knob relocates every cache the repo keeps.
    """
    from repro.core.flow_executor import default_cache_dir

    return default_cache_dir() / "native-kernels"


# digest -> (CDLL, bound function); the CDLL reference keeps the object
# mapped for as long as any evaluator may still hold the function.
_SO_CACHE: Dict[str, Tuple[ctypes.CDLL, object]] = {}
_SO_LOCK = threading.Lock()


def _invoke_compiler(toolchain: Toolchain, c_path: Path, so_path: Path) -> None:
    """Run one compiler invocation (separate function so tests can spy on or
    fail it).  Raises ``RuntimeError`` with the compiler's stderr on failure."""
    proc = subprocess.run(
        [toolchain.path, "-O2", "-fPIC", "-shared", "-o", str(so_path), str(c_path)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"native kernel compilation failed ({toolchain.path} exited "
            f"{proc.returncode}):\n{proc.stderr}"
        )


def kernel_path(source: str, toolchain: Toolchain) -> Path:
    """Where the disk cache keeps the object compiled from ``source``.

    Keyed by SHA-256 of toolchain fingerprint + source, so a new compiler
    version or a structural change never loads a stale kernel.
    """
    digest = hashlib.sha256(
        (toolchain.fingerprint + "\0" + source).encode()
    ).hexdigest()[:32]
    return kernel_cache_dir() / f"{digest}.so"


def _compile_to(source: str, toolchain: Toolchain, so_path: Path) -> None:
    """Build ``source`` in a temporary directory and publish it atomically.

    ``os.replace`` makes concurrent processes racing on the same key both
    succeed, and never exposes a half-written object.
    """
    with tempfile.TemporaryDirectory(dir=so_path.parent) as tmp:
        c_path = Path(tmp) / "kernel.c"
        c_path.write_text(source)
        tmp_so = Path(tmp) / "kernel.so"
        _invoke_compiler(toolchain, c_path, tmp_so)
        os.replace(tmp_so, so_path)


def load_kernel(source: str, toolchain: Toolchain):
    """The compiled ``repro_kernel`` for ``source``, through both caches.

    Memory first, then disk (see :func:`kernel_path`), compiling only on a
    double miss.  A disk entry the loader rejects (truncated, say) is a
    miss: it is unlinked and rebuilt, and only a fresh build that still
    fails to load raises.
    """
    so_path = kernel_path(source, toolchain)
    digest = so_path.stem
    with _SO_LOCK:
        cached = _SO_CACHE.get(digest)
        if cached is not None:
            return cached[1]
        so_path.parent.mkdir(parents=True, exist_ok=True)
        if not so_path.exists():
            _compile_to(source, toolchain, so_path)
        try:
            lib = ctypes.CDLL(str(so_path))
        except OSError:
            so_path.unlink(missing_ok=True)
            _compile_to(source, toolchain, so_path)
            lib = ctypes.CDLL(str(so_path))
        fn = lib.repro_kernel
        fn.argtypes = [_U64P, _U64P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64]
        fn.restype = None
        _SO_CACHE[digest] = (lib, fn)
        return fn


# --------------------------------------------------------------------------- #
# Persistent shard pool (shared by every NativeEvaluator in the process)
# --------------------------------------------------------------------------- #
_POOL: Optional[ThreadPoolExecutor] = None
_POOL_LOCK = threading.Lock()


def _shard_pool() -> ThreadPoolExecutor:
    # Sized >= 4 even on small hosts so an explicit `threads=` request (the
    # benchmark's 1/2/4 scaling curve) genuinely shards instead of queueing.
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max_workers=max(4, NATIVE_THREADS),
                thread_name_prefix="repro-native",
            )
        return _POOL


# --------------------------------------------------------------------------- #
class NativeEvaluator(BitParallelEvaluator):
    """Executes a program as one compiled-C function per requested slot tuple.

    Kernels are generated, compiled and loaded lazily per slot tuple (same
    laziness as :class:`~repro.perf.engines.CodegenEvaluator`) and cached on
    the evaluator; the shared objects additionally persist in the process-
    and disk-level caches (:func:`load_kernel`).  Evaluator instances are
    cached per netlist structure by
    :func:`~repro.perf.bitsim.evaluator_for`, so structural mutation retires
    the evaluator — and its new source hashes to a new disk key.

    ``threads`` controls word-axis sharding: ``None`` (default) picks 1
    below :data:`NATIVE_PARALLEL_MIN_WORDS` words and
    :data:`NATIVE_THREADS` above; an explicit integer forces that shard
    count (the benchmark's thread-scaling curve sets 1/2/4).  Shards write
    disjoint ``[w_lo, w_hi)`` column ranges of the output, so the only
    synchronisation is the final join.

    Example::

        out = NativeEvaluator(compile_netlist(netlist)).evaluate(vectors)
    """

    def __init__(
        self, program: CompiledProgram, toolchain: Optional[Toolchain] = None
    ) -> None:
        super().__init__(program)
        toolchain = toolchain if toolchain is not None else find_toolchain()
        if toolchain is None:
            raise RuntimeError(
                "no C toolchain available — construct evaluators through "
                "make_evaluator(engine='native'), which degrades to codegen"
            )
        self.toolchain = toolchain
        #: ``None`` = automatic (threshold on word count); an int forces it.
        self.threads: Optional[int] = None
        self._kernels: Dict[Tuple[int, ...], object] = {}
        self._sources: Dict[Tuple[int, ...], str] = {}

    # ------------------------------------------------------------------ #
    def _kernel_for(self, slots: Tuple[int, ...]):
        fn = self._kernels.get(slots)
        if fn is None:
            source = generate_c_kernel_source(self.program, slots)
            fn = load_kernel(source, self.toolchain)
            self._kernels[slots] = fn
            self._sources[slots] = source
        return fn

    def kernel_source(self, slots: Sequence[int]) -> str:
        """The generated C source for a slot tuple (compiling it if needed)."""
        slots = tuple(int(s) for s in slots)
        self._kernel_for(slots)
        return self._sources[slots]

    def _call(self, fn, packed_inputs: np.ndarray, n_out: int) -> np.ndarray:
        program = self.program
        packed_inputs = np.ascontiguousarray(
            np.asarray(packed_inputs, dtype=np.uint64)
        )
        if packed_inputs.ndim != 2 or packed_inputs.shape[0] != program.n_inputs:
            raise ValueError(
                f"expected packed inputs of shape ({program.n_inputs}, n_words), "
                f"got {packed_inputs.shape}"
            )
        n_words = packed_inputs.shape[1]
        out = np.empty((n_out, n_words), dtype=np.uint64)
        if n_words == 0 or n_out == 0:
            return out
        in_arr = packed_inputs if program.n_inputs else _EMPTY_IN
        in_ptr = in_arr.ctypes.data_as(_U64P)
        out_ptr = out.ctypes.data_as(_U64P)
        threads = self.threads
        if threads is None:
            threads = 1 if n_words < NATIVE_PARALLEL_MIN_WORDS else NATIVE_THREADS
        threads = max(1, min(int(threads), n_words))
        if threads == 1:
            fn(in_ptr, out_ptr, n_words, 0, n_words)
            return out
        # The ctypes call releases the GIL, so shards run truly in parallel;
        # each writes a disjoint column range of `out`.
        chunk = -(-n_words // threads)
        pool = _shard_pool()
        futures = [
            pool.submit(fn, in_ptr, out_ptr, n_words, lo, min(lo + chunk, n_words))
            for lo in range(0, n_words, chunk)
        ]
        for future in futures:
            future.result()
        return out

    # ------------------------------------------------------------------ #
    def evaluate_packed_slots(
        self, packed_inputs: np.ndarray, slots: Sequence[int]
    ) -> np.ndarray:
        """Packed rows for the requested slots via a per-tuple C kernel."""
        slots = tuple(int(s) for s in slots)
        return self._call(self._kernel_for(slots), packed_inputs, len(slots))

    def evaluate_packed(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Full slot state — compatibility path through an all-slots kernel."""
        all_slots = tuple(range(self.program.n_slots))
        return self._call(
            self._kernel_for(all_slots), packed_inputs, len(all_slots)
        )
