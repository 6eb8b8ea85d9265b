"""The native (compiled C) engine: toolchain probing, caching, fallback.

Bit-exactness across the zoo rides the shared matrices in
``tests/perf/test_engines.py``; this module covers what is *specific* to
``engine='native'``: the C source emitter, the no-compiler degradation to
``auto`` (one-time warning, shared cache entry, ``auto`` never picks
native), the two-level kernel cache (memory + disk under the
``$REPRO_CACHE_DIR`` root, hit on second construction, invalidated by
structural mutation), and the single kernel call per batch, on the calling
thread.  Everything that needs a real compiler is skipped — not failed — on
hosts without one, so the whole file passes either way.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.perf.native as native
import repro.toolchain as toolchain_mod
from repro.hw.rtl.adders import build_ripple_adder_netlist
from repro.hw.rtl.multipliers import build_array_multiplier_netlist
from repro.hw.rtl.registers import build_counter_netlist
from repro.perf.bitsim import (
    BitParallelEvaluator,
    evaluator_for,
    pack_vectors,
    simulate_netlist_batch,
)
from repro.perf.compile import compile_netlist
from repro.perf.engines import (
    ENGINES,
    BIGINT_MAX_WORDS,
    CodegenEvaluator,
    available_engines,
    make_evaluator,
    resolve_engine,
)
from repro.perf.native import (
    NativeEvaluator,
    generate_c_kernel_source,
    native_available,
)
from repro.perf.seqsim import sequential_evaluator_for
from repro.toolchain import Toolchain, find_toolchain

requires_toolchain = pytest.mark.skipif(
    not native_available(), reason="no C toolchain on this host"
)

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture()
def fresh_caches(tmp_path, monkeypatch):
    """Isolate the disk cache in tmp_path and start with a cold memory cache.

    Also snapshots the cached toolchain probe so tests that re-probe under a
    mutated environment cannot leak into later tests.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(toolchain_mod, "_SO_CACHE", {})
    monkeypatch.setattr(toolchain_mod, "_TOOLCHAIN", toolchain_mod._TOOLCHAIN)
    monkeypatch.setattr(native, "_WARNED_MISSING", native._WARNED_MISSING)
    return tmp_path


def _no_toolchain(monkeypatch):
    monkeypatch.setattr(toolchain_mod, "find_toolchain", lambda refresh=False: None)
    monkeypatch.setattr(native, "_WARNED_MISSING", False)


def _reference(netlist):
    """The reference interpreter over the netlist's compiled program."""
    return BitParallelEvaluator(compile_netlist(netlist))


# --------------------------------------------------------------------------- #
# C source emission (no compiler needed)
# --------------------------------------------------------------------------- #
class TestCSource:
    def test_c_source_shape_and_liveness(self):
        netlist = build_array_multiplier_netlist(3, 3)
        program = compile_netlist(netlist)
        full = generate_c_kernel_source(program, program.output_slots)
        # p[0]'s cone is a single AND: almost everything is dead for it.
        low = generate_c_kernel_source(program, [int(program.output_slots[0])])
        for source in (full, low):
            assert "#include <stdint.h>" in source
            assert (
                "void repro_kernel(const uint64_t *in, uint64_t *out, int64_t n_words)"
                in source
            )
            assert "for (int64_t w = 0; w < n_words; ++w)" in source
        assert len(low.splitlines()) < len(full.splitlines())

    def test_c_source_mirrors_python_plan(self):
        """Both emitters consume one plan: same locals, same input loads."""
        from repro.perf.engines import generate_kernel_source, plan_kernel

        program = compile_netlist(build_ripple_adder_netlist(5))
        slots = [int(s) for s in program.output_slots]
        plan = plan_kernel(program, slots)
        py = generate_kernel_source(program, slots)
        c = generate_c_kernel_source(program, slots)
        for dst, _ in plan.statements:
            assert f"v{dst} = " in py
            assert f"const uint64_t v{dst} = " in c
        for s, row in plan.input_loads:
            assert f"i{s} = inp[{row}]" in py
            assert f"const uint64_t i{s} = in[(int64_t){row} * n_words + w]" in c
        assert c.count("out[") == len(slots)

    def test_constant_and_input_slots_in_returns(self):
        """Requested slots may be constants or inputs — the shapes the
        sequential cone requests (shift registers tap Q nets directly)."""
        program = compile_netlist(build_ripple_adder_netlist(2))
        slots = [0, 1, int(program.input_slots[0])]
        source = generate_c_kernel_source(program, slots)
        assert "out[(int64_t)0 * n_words + w] = ZERO;" in source
        assert "out[(int64_t)1 * n_words + w] = ONE;" in source


# --------------------------------------------------------------------------- #
# Toolchain probing and the no-compiler fallback
# --------------------------------------------------------------------------- #
class TestFallback:
    def test_no_native_env_disables_probe(self, fresh_caches, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        assert find_toolchain(refresh=True) is None
        monkeypatch.delenv("REPRO_NO_NATIVE")
        find_toolchain(refresh=True)  # re-probe so the snapshot restore is moot

    def test_native_resolves_to_auto_without_toolchain(self, monkeypatch):
        _no_toolchain(monkeypatch)
        with pytest.warns(RuntimeWarning, match="degrades to 'auto'"):
            assert resolve_engine("native") == "auto"

    def test_fallback_warns_exactly_once(self, monkeypatch, recwarn):
        _no_toolchain(monkeypatch)
        resolve_engine("native")
        resolve_engine("native")
        messages = [w for w in recwarn.list if w.category is RuntimeWarning]
        assert len(messages) == 1

    def test_fallback_evaluator_shares_auto_cache_entry(self, monkeypatch):
        _no_toolchain(monkeypatch)
        netlist = build_ripple_adder_netlist(4)
        with pytest.warns(RuntimeWarning):
            via_native = evaluator_for(netlist, engine="native")
        assert isinstance(via_native, CodegenEvaluator)
        assert via_native.engine == "auto"
        assert evaluator_for(netlist, engine="auto") is via_native

    def test_fallback_sequential_evaluator_shares_auto_cache_entry(self, monkeypatch):
        _no_toolchain(monkeypatch)
        netlist = build_counter_netlist(3)
        with pytest.warns(RuntimeWarning):
            via_native = sequential_evaluator_for(netlist, engine="native")
        assert via_native.engine == "auto"
        assert isinstance(via_native._cone, CodegenEvaluator)
        assert sequential_evaluator_for(netlist, engine="auto") is via_native

    def test_fallback_stays_bit_exact(self, monkeypatch):
        _no_toolchain(monkeypatch)
        netlist = build_ripple_adder_netlist(5)
        rng = np.random.default_rng(0)
        vectors = rng.integers(0, 2, size=(70, len(netlist.inputs)))
        with pytest.warns(RuntimeWarning):
            out = simulate_netlist_batch(netlist, vectors, engine="native")
        assert np.array_equal(out, _reference(netlist).evaluate(vectors))

    def test_auto_never_selects_native(self):
        program = compile_netlist(build_ripple_adder_netlist(4))
        assert resolve_engine("auto") == "auto"
        evaluator = make_evaluator(program, "auto")
        assert isinstance(evaluator, CodegenEvaluator)
        assert not isinstance(evaluator, NativeEvaluator)

    def test_available_engines_drops_native_without_toolchain(self, monkeypatch):
        _no_toolchain(monkeypatch)
        assert available_engines() == ("auto",)

    def test_available_engines_is_full_tuple_with_toolchain(self, monkeypatch):
        monkeypatch.setattr(
            toolchain_mod, "find_toolchain", lambda refresh=False: Toolchain("/bin/cc", "x")
        )
        assert available_engines() == ENGINES

    def test_direct_construction_without_toolchain_raises(self, monkeypatch):
        _no_toolchain(monkeypatch)
        program = compile_netlist(build_ripple_adder_netlist(2))
        with pytest.raises(RuntimeError, match="no C toolchain"):
            NativeEvaluator(program)


# --------------------------------------------------------------------------- #
# Compilation + two-level cache (real compiler required)
# --------------------------------------------------------------------------- #
@requires_toolchain
class TestKernelCache:
    def test_disk_cache_hit_on_second_construction(self, fresh_caches, monkeypatch):
        invocations = []
        real = toolchain_mod._invoke_compiler

        def spy(toolchain, c_path, so_path, flags):
            invocations.append(str(so_path))
            return real(toolchain, c_path, so_path, flags)

        monkeypatch.setattr(toolchain_mod, "_invoke_compiler", spy)
        rng = np.random.default_rng(1)
        netlist = build_ripple_adder_netlist(4)
        vectors = rng.integers(0, 2, size=(90, len(netlist.inputs)))
        first = evaluator_for(netlist, engine="native")
        out_first = first.evaluate(vectors)
        assert len(invocations) == 1
        assert list(toolchain_mod.kernel_cache_dir().glob("*.so"))
        # Same structure, new netlist object, cold memory cache: the kernel
        # must come off disk without invoking the compiler again.
        monkeypatch.setattr(toolchain_mod, "_SO_CACHE", {})
        second = evaluator_for(build_ripple_adder_netlist(4), engine="native")
        out_second = second.evaluate(vectors)
        assert len(invocations) == 1
        assert np.array_equal(out_first, out_second)

    def test_memory_cache_shares_kernels_across_evaluators(
        self, fresh_caches, monkeypatch
    ):
        invocations = []
        real = toolchain_mod._invoke_compiler
        monkeypatch.setattr(
            toolchain_mod,
            "_invoke_compiler",
            lambda *a: (invocations.append(a), real(*a))[1],
        )
        netlist_a = build_ripple_adder_netlist(4)
        netlist_b = build_ripple_adder_netlist(4)
        rng = np.random.default_rng(2)
        vectors = rng.integers(0, 2, size=(70, len(netlist_a.inputs)))
        evaluator_for(netlist_a, engine="native").evaluate(vectors)
        evaluator_for(netlist_b, engine="native").evaluate(vectors)
        # Identical structure -> identical source -> one compile, even with
        # two distinct evaluator instances.
        assert len(invocations) == 1

    def test_structural_mutation_invalidates_kernel(self, fresh_caches):
        rng = np.random.default_rng(3)
        netlist = build_ripple_adder_netlist(3)
        vectors = rng.integers(0, 2, size=(50, len(netlist.inputs)))
        stale = evaluator_for(netlist, engine="native")
        stale.evaluate(vectors)
        n_so_before = len(list(toolchain_mod.kernel_cache_dir().glob("*.so")))
        (inv,) = netlist.add_gate("INV", [netlist.outputs[0]], outputs=["obs"])
        netlist.mark_output(inv)
        fresh = evaluator_for(netlist, engine="native")
        assert fresh is not stale
        reference = _reference(netlist).evaluate(vectors)
        assert np.array_equal(fresh.evaluate(vectors), reference)
        # The mutated structure emits different source, hence a new disk key.
        assert len(list(toolchain_mod.kernel_cache_dir().glob("*.so"))) > n_so_before

    def test_corrupt_disk_entry_is_rebuilt(self, fresh_caches, monkeypatch):
        """A truncated cached kernel is a miss: unlinked, recompiled, loaded.

        The entry is corrupted before any process maps it: truncating an
        object this process has loaded would kill it with SIGBUS.
        """
        invocations = []
        real = toolchain_mod._invoke_compiler
        monkeypatch.setattr(
            toolchain_mod,
            "_invoke_compiler",
            lambda *a: (invocations.append(a), real(*a))[1],
        )
        netlist = build_ripple_adder_netlist(4)
        evaluator = make_evaluator(compile_netlist(netlist), "native")
        program = evaluator.program
        source = generate_c_kernel_source(program, program.output_slots)
        so_path = toolchain_mod.kernel_path(source, native.CFLAGS, evaluator.toolchain)
        so_path.parent.mkdir(parents=True)
        so_path.write_bytes(b"")
        vectors = np.random.default_rng(4).integers(0, 2, size=(80, len(netlist.inputs)))
        reference = _reference(netlist).evaluate(vectors)
        assert np.array_equal(evaluator.evaluate(vectors), reference)
        assert len(invocations) == 1
        assert so_path.stat().st_size > 0
        # The healed entry now serves a cold memory cache without compiling.
        monkeypatch.setattr(toolchain_mod, "_SO_CACHE", {})
        again = make_evaluator(compile_netlist(netlist), "native")
        assert np.array_equal(again.evaluate(vectors), reference)
        assert len(invocations) == 1

    def test_corrupt_entry_raises_when_the_rebuild_fails_too(
        self, fresh_caches, monkeypatch
    ):
        toolchain = find_toolchain()
        source = generate_c_kernel_source(
            compile_netlist(build_ripple_adder_netlist(2)), [0]
        )
        so_path = toolchain_mod.kernel_path(source, native.CFLAGS, toolchain)
        so_path.parent.mkdir(parents=True)
        so_path.write_bytes(b"")
        # The "compiler" publishes another unloadable object.
        monkeypatch.setattr(
            toolchain_mod,
            "_invoke_compiler",
            lambda toolchain, c_path, out, flags: Path(out).write_bytes(b"not an object"),
        )
        with pytest.raises(OSError):
            toolchain_mod.load_shared(source, native.CFLAGS, toolchain)
        assert not toolchain_mod._SO_CACHE

    def test_compiler_failure_raises_with_stderr(self, fresh_caches):
        toolchain = find_toolchain()
        with pytest.raises(RuntimeError, match="native kernel compilation failed"):
            toolchain_mod.load_shared("this is not C;", native.CFLAGS, toolchain)

    def test_kernel_source_inspectable_via_evaluator(self, fresh_caches):
        netlist = build_ripple_adder_netlist(2)
        evaluator = evaluator_for(netlist, engine="native")
        source = evaluator.kernel_source(evaluator.program.output_slots)
        assert "repro_kernel" in source


# --------------------------------------------------------------------------- #
# One kernel call per batch, on the calling thread (real compiler required)
# --------------------------------------------------------------------------- #
@requires_toolchain
class TestSingleCall:
    def test_empty_batch(self, fresh_caches):
        netlist = build_ripple_adder_netlist(3)
        evaluator = evaluator_for(netlist, engine="native")
        slots = evaluator.program.output_slots
        packed = np.zeros((evaluator.program.n_inputs, 0), dtype=np.uint64)
        out = evaluator.evaluate_packed_slots(packed, slots)
        assert out.shape == (len(slots), 0)

    def test_wide_batch_starts_no_thread(self, fresh_caches):
        """A 4,097-word call runs on the calling thread: in a fresh
        interpreter it leaves ``threading.active_count()`` unchanged."""
        code = (
            "import threading\n"
            "import numpy as np\n"
            "from repro.hw.rtl.adders import build_ripple_adder_netlist\n"
            "from repro.perf.bitsim import evaluator_for\n"
            "ev = evaluator_for(build_ripple_adder_netlist(4), engine='native')\n"
            "slots = ev.program.output_slots\n"
            "packed = np.ones((ev.program.n_inputs, 4097), dtype=np.uint64)\n"
            "ev.evaluate_packed_slots(packed[:, :1], slots)  # compile outside\n"
            "before = threading.active_count()\n"
            "ev.evaluate_packed_slots(packed, slots)\n"
            "print(before, threading.active_count())\n"
        )
        env = {**os.environ, "PYTHONPATH": SRC_DIR}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        before, after = proc.stdout.split()
        assert after == before


# --------------------------------------------------------------------------- #
# Batch sizes across the bigint/numpy domain boundary (vs auto + reference)
# --------------------------------------------------------------------------- #
@requires_toolchain
class TestDomainBoundary:
    def test_large_batch_matches_auto_numpy_domain(self, fresh_caches):
        """Past BIGINT_MAX_WORDS auto compiles and switches to its numpy
        domain; the native kernel must agree with it and with the reference
        interpreter, one word past the boundary and far past it (4,097
        words)."""
        netlist = build_ripple_adder_netlist(4)
        rng = np.random.default_rng(7)
        reference = _reference(netlist)
        slots = reference.program.output_slots
        for n_words in (BIGINT_MAX_WORDS + 1, 4097):
            vectors = rng.integers(0, 2, size=(n_words * 64, len(netlist.inputs)))
            packed, _ = pack_vectors(vectors)
            assert packed.shape[1] == n_words
            outs = {
                e: evaluator_for(netlist, engine=e).evaluate_packed_slots(packed, slots)
                for e in ENGINES
            }
            expected = reference.evaluate_packed_slots(packed, slots)
            assert np.array_equal(outs["native"], expected), n_words
            assert np.array_equal(outs["native"], outs["auto"]), n_words


# --------------------------------------------------------------------------- #
# Engine selection plumbing
# --------------------------------------------------------------------------- #
@requires_toolchain
class TestSelection:
    def test_make_evaluator_constructs_native(self, fresh_caches):
        program = compile_netlist(build_ripple_adder_netlist(3))
        evaluator = make_evaluator(program, "native")
        assert isinstance(evaluator, NativeEvaluator)
        assert evaluator.engine == "native"

    def test_native_evaluator_cached_separately_from_auto(self, fresh_caches):
        netlist = build_ripple_adder_netlist(4)
        native_ev = evaluator_for(netlist, engine="native")
        auto_ev = evaluator_for(netlist, engine="auto")
        assert native_ev is not auto_ev
        assert evaluator_for(netlist, engine="native") is native_ev

    def test_toolchain_fingerprint_is_stable_and_version_sensitive(self):
        a = Toolchain("/usr/bin/cc", "cc 12.2.0")
        b = Toolchain("/usr/bin/cc", "cc 12.2.0")
        c = Toolchain("/usr/bin/cc", "cc 13.1.0")
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint
