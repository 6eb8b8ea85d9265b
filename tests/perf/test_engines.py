"""The ``auto`` and ``native`` execution engines: bit-exactness, caching, codegen.

Every engine must produce exactly the same bits as the reference
interpreter (:class:`~repro.perf.bitsim.BitParallelEvaluator`) on every
netlist in the zoo — combinational and sequential, raw and optimized —
because the engines only change the execution *schedule*, never the program.
``auto`` rides the matrices twice: as users get it (a few calls, all
interpreted) and compiled from the first call.  ``native`` rides them too:
on hosts without a C toolchain it
resolves to ``auto``, so the assertions still hold (the native-specific
behaviours live in ``tests/perf/test_native.py``, the tiers of ``auto`` in
``tests/perf/test_engine_tiers.py``, generated netlists against the gate
walk in ``tests/hw/test_engines_generated.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.perf.engines as engines_mod
from repro.hw.netlist import GateNetlist
from repro.hw.rtl.adders import build_ripple_adder_netlist
from repro.hw.rtl.comparator import build_comparator_netlist
from repro.hw.rtl.multipliers import (
    build_array_multiplier_netlist,
    build_constant_mac_netlist,
)
from repro.hw.rtl.mux import build_mux_tree_netlist
from repro.hw.rtl.registers import build_counter_netlist
from repro.hw.rtl.svm_top import build_sequential_svm_netlist
from repro.perf.bitsim import (
    BitParallelEvaluator,
    evaluator_for,
    pack_vectors,
    simulate_netlist_batch,
)
from repro.perf.compile import compile_netlist
from repro.perf.engines import (
    CodegenEvaluator,
    ENGINES,
    generate_kernel_source,
    make_evaluator,
    resolve_engine,
)
from repro.perf.seqsim import (
    SequentialEvaluator,
    compile_sequential,
    sequential_evaluator_for,
    simulate_sequential_batch,
)


def _reference(netlist, opt_level=0):
    """The reference interpreter over the netlist's compiled program."""
    return BitParallelEvaluator(compile_netlist(netlist, opt_level=opt_level))


def reference_sequential(seq):
    """A sequential evaluator that clocks ``seq``'s cone on the reference
    interpreter, which no ``engine=`` name selects (shared with
    ``test_engine_tiers.py``)."""
    evaluator = SequentialEvaluator(seq)
    evaluator._cone = BitParallelEvaluator(seq.program)
    return evaluator


def _combinational_zoo():
    return {
        "ripple_adder_8b": build_ripple_adder_netlist(8),
        "ripple_adder_cin": build_ripple_adder_netlist(4, with_carry_in=True),
        "array_multiplier_4x4": build_array_multiplier_netlist(4, 4),
        "mux_tree_8": build_mux_tree_netlist(8),
        "comparator_6b": build_comparator_netlist(6),
        "constant_mac": build_constant_mac_netlist([0, 3, 8, 5], 3),
    }


def _sequential_zoo():
    rng = np.random.default_rng(11)
    weights = rng.integers(-7, 8, size=(4, 3))
    biases = rng.integers(-20, 21, size=4)
    svm_top, ports = build_sequential_svm_netlist(weights, biases, input_bits=2)

    shift = GateNetlist("shift")
    d = shift.add_input("d")
    prev = d
    for i in range(3):
        prev = shift.add_dff(prev, f"t[{i}]", name=f"ff{i}")
        shift.mark_output(prev)

    return {
        "counter_5b": (build_counter_netlist(5), 0, 12),
        "shift_register_3": (shift, 1, 8),
        "svm_top_4x3": (svm_top, ports.n_features * 2, ports.n_classifiers),
    }


#: ``auto-compiled`` is ``auto`` with its tier-up point at 0: the matrices
#: make a few calls per slot tuple, all of which ``auto`` would interpret.
ENGINE_MATRIX = ["auto", "auto-compiled", "native"]


@pytest.fixture
def engine(request, monkeypatch):
    """The ``engine=`` name of one :data:`ENGINE_MATRIX` case.

    Under ``auto-compiled`` the interpreted tier of ``auto`` fails when
    called, so the case holds the compiled kernel, and only it, to the
    reference interpreter.
    """
    if request.param != "auto-compiled":
        return request.param

    def no_interpreter(self, slots):
        raise AssertionError("auto-compiled ran the interpreted tier")

    monkeypatch.setattr(engines_mod, "TIER_UP_CALLS", 0)
    monkeypatch.setattr(CodegenEvaluator, "_interpreter_for", no_interpreter)
    return "auto"


class TestCombinationalBitExactness:
    @pytest.mark.parametrize("engine", ENGINE_MATRIX, indirect=True)
    @pytest.mark.parametrize("opt_level", [0, 1, 2])
    def test_zoo_matches_reference_interpreter(self, engine, opt_level):
        rng = np.random.default_rng(0)
        for name, netlist in _combinational_zoo().items():
            # 130 vectors spans three words with a ragged tail.
            vectors = rng.integers(0, 2, size=(130, len(netlist.inputs)))
            reference = _reference(netlist, opt_level).evaluate(vectors)
            out = simulate_netlist_batch(
                netlist, vectors, opt_level=opt_level, engine=engine
            )
            assert np.array_equal(out, reference), (name, engine, opt_level)

    @pytest.mark.parametrize("engine", ENGINE_MATRIX, indirect=True)
    def test_full_slot_state_matches_reference_interpreter(self, engine):
        """evaluate_packed keeps the reference contract: every slot, in order."""
        rng = np.random.default_rng(1)
        netlist = build_array_multiplier_netlist(4, 4)
        vectors = rng.integers(0, 2, size=(100, len(netlist.inputs)))
        packed, _ = pack_vectors(vectors)
        reference = _reference(netlist).evaluate_packed(packed)
        state = evaluator_for(netlist, engine=engine).evaluate_packed(packed)
        assert np.array_equal(state, reference)

    @pytest.mark.parametrize("engine", ENGINE_MATRIX, indirect=True)
    def test_evaluate_nets_matches_reference_interpreter(self, engine):
        rng = np.random.default_rng(2)
        netlist = build_ripple_adder_netlist(5)
        vectors = rng.integers(0, 2, size=(70, len(netlist.inputs)))
        reference = _reference(netlist).evaluate_nets(vectors)
        nets = evaluator_for(netlist, engine=engine).evaluate_nets(vectors)
        assert nets.keys() == reference.keys()
        for net in reference:
            assert np.array_equal(nets[net], reference[net]), net

    @pytest.mark.parametrize("engine", ENGINE_MATRIX, indirect=True)
    def test_duplicate_and_input_slots_allowed(self, engine):
        """Requested slots may repeat and may name inputs or constants —
        the shapes a sequential cone produces (shift registers tap Q nets)."""
        netlist = build_ripple_adder_netlist(3)
        rng = np.random.default_rng(3)
        vectors = rng.integers(0, 2, size=(65, len(netlist.inputs)))
        packed, _ = pack_vectors(vectors)
        reference = _reference(netlist)
        other = evaluator_for(netlist, engine=engine)
        program = reference.program
        slots = [
            int(program.output_slots[0]),
            int(program.output_slots[0]),
            int(program.input_slots[1]),
            0,
            1,
        ]
        assert np.array_equal(
            other.evaluate_packed_slots(packed, slots),
            reference.evaluate_packed_slots(packed, slots),
        )

    @pytest.mark.parametrize("engine", ENGINE_MATRIX, indirect=True)
    def test_empty_slot_tuple_returns_no_rows(self, engine):
        """An empty request yields a (0, n_words) array: the Python emitter
        once rendered it as the syntax error ``return (,)``."""
        netlist = build_ripple_adder_netlist(2)
        packed, _ = pack_vectors(np.ones((70, len(netlist.inputs)), dtype=int))
        for evaluator in (_reference(netlist), evaluator_for(netlist, engine=engine)):
            out = evaluator.evaluate_packed_slots(packed, [])
            assert out.shape == (0, 2) and out.dtype == np.uint64

    def test_codegen_numpy_domain_matches_bigint_domain(self, monkeypatch):
        """Forcing the numpy operand domain gives the same bits as bigints."""
        netlist = build_array_multiplier_netlist(4, 4)
        rng = np.random.default_rng(4)
        vectors = rng.integers(0, 2, size=(200, len(netlist.inputs)))
        bigint = simulate_netlist_batch(netlist, vectors, engine="auto")
        netlist.note_structural_change()  # drop cached evaluators
        monkeypatch.setattr(engines_mod, "BIGINT_MAX_WORDS", 0)
        numpy_domain = simulate_netlist_batch(netlist, vectors, engine="auto")
        assert np.array_equal(bigint, numpy_domain)


class TestSequentialBitExactness:
    @pytest.mark.parametrize("engine", ENGINE_MATRIX, indirect=True)
    @pytest.mark.parametrize("opt_level", [0, 2])
    def test_zoo_matches_reference_interpreter(self, engine, opt_level):
        rng = np.random.default_rng(5)
        for name, (netlist, n_inputs, cycles) in _sequential_zoo().items():
            vectors = rng.integers(0, 2, size=(70, n_inputs))
            seq = compile_sequential(netlist, opt_level=opt_level)
            reference = reference_sequential(seq).run(vectors, cycles=cycles)
            out = simulate_sequential_batch(
                netlist, vectors, cycles=cycles, opt_level=opt_level, engine=engine
            )
            assert np.array_equal(out, reference), (name, engine, opt_level)

    def test_auto_sequential_cone_is_tiered_codegen(self):
        evaluator = sequential_evaluator_for(build_counter_netlist(4))
        assert evaluator.engine == "auto"
        assert isinstance(evaluator._cone, CodegenEvaluator)


class TestEngineSelection:
    def test_resolve_engine_names_the_engine_that_runs(self):
        assert resolve_engine("auto") == "auto"

    @pytest.mark.parametrize("gone", ["interp", "codegen", "fused"])
    def test_retired_engines_are_gone(self, gone):
        """``interp`` and ``codegen`` left with ``fused``: the reference
        interpreter is for tests and benchmarks, and the compiled kernel is
        what ``auto`` tiers up to."""
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine(gone)
        with pytest.raises(ValueError, match="unknown engine"):
            make_evaluator(compile_netlist(build_ripple_adder_netlist(2)), gone)
        with pytest.raises(ValueError, match="unknown engine"):
            sequential_evaluator_for(build_counter_netlist(2), engine=gone)

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("turbo")
        with pytest.raises(ValueError, match="unknown engine"):
            evaluator_for(build_ripple_adder_netlist(2), engine="turbo")

    def test_make_evaluator_classes_and_engine_attr(self):
        auto = make_evaluator(compile_netlist(build_ripple_adder_netlist(3)), "auto")
        assert isinstance(auto, CodegenEvaluator)
        assert auto.engine == "auto"

    def test_codegen_evaluator_takes_only_a_program(self):
        program = compile_netlist(build_ripple_adder_netlist(2))
        with pytest.raises(TypeError):
            CodegenEvaluator(program, tier_up_calls=0)

    def test_engines_tuple_is_the_cli_contract(self):
        assert ENGINES == ("auto", "native")


class TestCaching:
    def test_evaluators_cached_per_engine(self):
        netlist = build_ripple_adder_netlist(4)
        auto = evaluator_for(netlist, engine="auto")
        assert evaluator_for(netlist, engine="auto") is auto
        assert evaluator_for(netlist, opt_level=2, engine="auto") is not auto
        # Every evaluator of one structure and level shares one program.
        assert auto.program is compile_netlist(netlist)

    def test_structural_mutation_drops_compiled_kernels(self):
        """Version-keyed invalidation: mutating the netlist must retire the
        auto evaluator (and with it every compiled or interpreted kernel),
        exactly like the compiled program itself."""
        netlist = build_ripple_adder_netlist(3)
        rng = np.random.default_rng(6)
        vectors = rng.integers(0, 2, size=(40, len(netlist.inputs)))
        auto = evaluator_for(netlist, engine="auto")
        auto.kernel_source(auto.program.output_slots)  # force a kernel compile
        auto.evaluate(vectors)
        (inv,) = netlist.add_gate("INV", [netlist.outputs[0]], outputs=["obs"])
        netlist.mark_output(inv)
        new_auto = evaluator_for(netlist, engine="auto")
        assert new_auto is not auto
        assert new_auto.program is not auto.program
        assert new_auto._kernels == {}
        # The new evaluator simulates the observer gate, bit-exact.
        reference = _reference(netlist).evaluate(vectors)
        assert np.array_equal(new_auto.evaluate(vectors), reference)

    def test_sequential_mutation_drops_engine_evaluator(self):
        netlist = build_counter_netlist(3)
        evaluator = sequential_evaluator_for(netlist, engine="auto")
        assert sequential_evaluator_for(netlist, engine="auto") is evaluator
        netlist.note_structural_change()
        assert sequential_evaluator_for(netlist, engine="auto") is not evaluator

    def test_codegen_kernels_cached_per_slot_tuple(self):
        netlist = build_ripple_adder_netlist(3)
        evaluator = evaluator_for(netlist, engine="auto")
        rng = np.random.default_rng(7)
        vectors = rng.integers(0, 2, size=(10, len(netlist.inputs)))
        evaluator.kernel_source(evaluator.program.output_slots)
        evaluator.evaluate(vectors)
        evaluator.evaluate(vectors)
        slots = tuple(int(s) for s in evaluator.program.output_slots)
        assert list(evaluator._kernels) == [slots]
        evaluator.kernel_source(sorted(evaluator.program.net_slots.values()))
        evaluator.evaluate_nets(vectors)
        assert len(evaluator._kernels) == 2


class TestCodegenSource:
    def test_kernel_source_is_compilable_and_dead_code_free(self):
        netlist = build_array_multiplier_netlist(3, 3)
        program = compile_netlist(netlist)
        # Request only the lowest product bit: the cone for p[0] is a single
        # AND, so almost the whole program is dead for this slot tuple.
        low = generate_kernel_source(program, [int(program.output_slots[0])])
        full = generate_kernel_source(program, program.output_slots)
        compile(low, "<t>", "exec")
        compile(full, "<t>", "exec")
        assert len(low.splitlines()) < len(full.splitlines())
        assert "def _kernel(inp, ZERO, ONE):" in low

    def test_kernel_source_inspectable_via_evaluator(self):
        netlist = build_ripple_adder_netlist(2)
        evaluator = evaluator_for(netlist, engine="auto")
        source = evaluator.kernel_source(evaluator.program.output_slots)
        assert "return (" in source


class TestOpListing:
    def test_disassembly_is_arity_aware(self):
        netlist = GateNetlist("listing")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        (x,) = netlist.add_gate("INV", [a], outputs=["x"])
        (y,) = netlist.add_gate("NAND2", [x, b], outputs=["y"])
        netlist.mark_output(y)
        listing = compile_netlist(netlist).op_listing()
        not_lines = [line for line in listing if "NOT(" in line]
        nand_lines = [line for line in listing if "NAND2(" in line]
        assert not_lines and nand_lines
        # 1-input ops show one operand, 2-input ops two — no phantom slots.
        assert all(line.count("s") == 2 for line in not_lines)
        assert all(line.count(",") == 0 for line in not_lines)
        assert all(line.count(",") == 1 for line in nand_lines)
