"""Equivalence tests: compiled bit-parallel engine vs the interpreted oracle.

Every RTL generator family (adder, multiplier, MUX tree, comparator) is
swept with randomized vectors through both the compiled bit-parallel
evaluator and the original per-gate dict-walk
(:func:`simulate_combinational_reference`); results must match gate for
gate, net for net.
"""

import numpy as np
import pytest

from repro.hw.cells import CellLibrary, CellType, GENERIC_CELL_SET
from repro.hw.netlist import GateNetlist
from repro.hw.rtl.adders import build_ripple_adder_netlist
from repro.hw.rtl.comparator import build_comparator_netlist
from repro.hw.rtl.multipliers import build_array_multiplier_netlist
from repro.hw.rtl.mux import build_mux_tree_netlist
from repro.hw.simulate import (
    simulate_combinational,
    simulate_combinational_batch,
    simulate_combinational_reference,
)
from repro.perf.bitsim import (
    BitParallelEvaluator,
    live_ops,
    op_tuples,
    pack_vectors,
    unpack_vectors,
    words_to_ints,
)
from repro.perf.compile import compile_netlist


def random_vectors(netlist, n_vectors, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(n_vectors, len(netlist.inputs)))


def assert_netlist_equivalence(netlist, n_vectors=200, seed=0):
    """Compiled batch sweep == interpreted reference, for every net."""
    vectors = random_vectors(netlist, n_vectors, seed)
    program = compile_netlist(netlist)
    evaluator = BitParallelEvaluator(program)
    packed, n = pack_vectors(vectors)
    state = evaluator.evaluate_packed(packed)
    for v, vec in enumerate(vectors):
        ref = simulate_combinational_reference(
            netlist, dict(zip(netlist.inputs, (int(x) for x in vec)))
        )
        for net, value in ref.items():
            slot = program.net_slots[net]
            got = int((state[slot, v // 64] >> np.uint64(v % 64)) & np.uint64(1))
            assert got == value, f"net {net} vector {v}: bitsim {got} != ref {value}"


class TestPackUnpack:
    @pytest.mark.parametrize("n_vectors", [1, 63, 64, 65, 200])
    def test_roundtrip(self, n_vectors):
        rng = np.random.default_rng(n_vectors)
        bits = rng.integers(0, 2, size=(n_vectors, 7))
        packed, n = pack_vectors(bits)
        assert n == n_vectors
        assert packed.shape == (7, max((n_vectors + 63) // 64, 1))
        assert np.array_equal(unpack_vectors(packed, n), bits)

    def test_empty_batch(self):
        packed, n = pack_vectors(np.zeros((0, 3)))
        assert n == 0
        assert unpack_vectors(packed, n).shape == (0, 3)


class TestCompiler:
    def test_program_is_flat_and_topological(self):
        netlist = build_ripple_adder_netlist(4)
        program = compile_netlist(netlist)
        assert program.n_ops > 0
        assert program.opcodes.shape == program.dsts.shape
        assert program.operands.shape == (program.n_ops, 3)
        # Every operand slot is defined before it is read (constants, inputs
        # or an earlier op's destination) — i.e. the program is topological.
        defined = {0, 1} | set(int(s) for s in program.input_slots)
        for k in range(program.n_ops):
            used = set(int(x) for x in program.operands[k])
            assert used <= defined | {0}
            defined.add(int(program.dsts[k]))

    def test_compilation_is_cached_per_netlist(self):
        netlist = build_ripple_adder_netlist(4)
        assert compile_netlist(netlist) is compile_netlist(netlist)

    def test_cache_keyed_on_library_identity(self):
        # Two libraries may share a name but differ in cell functions: the
        # per-netlist cache must recompile for a different library object.
        def make_library(inv):
            return CellLibrary(
                "same-name", [CellType("INV", 1, 1, 0.1, 0.1, 0.1, 0.1, function=inv)]
            )

        netlist = GateNetlist("toy")
        a = netlist.add_input("a")
        (y,) = netlist.add_gate("INV", [a])
        netlist.mark_output(y)
        lib_a = make_library(lambda b: (1 - b[0],))
        lib_b = make_library(lambda b: (b[0],))  # deliberately different logic
        first = compile_netlist(netlist, lib_a)
        assert compile_netlist(netlist, lib_b) is not first
        assert simulate_combinational(netlist, {"a": 1}, lib_b)[y] == 1
        assert simulate_combinational(netlist, {"a": 1}, lib_a)[y] == 0

    def test_cache_invalidated_when_netlist_grows(self):
        netlist = GateNetlist("grow")
        a = netlist.add_input("a")
        first = compile_netlist(netlist)
        (y,) = netlist.add_gate("INV", [a])
        netlist.mark_output(y)
        second = compile_netlist(netlist)
        assert second is not first
        assert second.n_ops == first.n_ops + 1

    def test_unknown_cell_without_function_rejected(self):
        library = CellLibrary(
            "broken",
            [CellType("MYST", 2, 1, 0.1, 0.1, 0.1, 0.1, function=None)],
        )
        netlist = GateNetlist("toy")
        a = netlist.add_input("a")
        b = netlist.add_input("b")
        netlist.add_gate("MYST", [a, b])
        with pytest.raises(NotImplementedError):
            compile_netlist(netlist, library)

    def test_truth_table_lowering_of_custom_cell(self):
        # A 3-input majority cell, absent from the direct-lowering table,
        # exercises the sum-of-minterms fallback.
        cells = [
            CellType(
                name, spec[0], spec[1], 0.1, 0.1, 0.1, 0.1, function=spec[2]
            )
            for name, spec in GENERIC_CELL_SET.items()
        ]
        cells.append(
            CellType(
                "MAJ3", 3, 1, 0.1, 0.1, 0.1, 0.1,
                function=lambda b: ((b[0] + b[1] + b[2] >= 2) * 1,),
            )
        )
        library = CellLibrary("custom", cells)
        netlist = GateNetlist("maj")
        ins = [netlist.add_input(n) for n in "abc"]
        (y,) = netlist.add_gate("MAJ3", ins)
        netlist.mark_output(y)
        evaluator = BitParallelEvaluator(compile_netlist(netlist, library))
        vectors = np.array(
            [[(v >> k) & 1 for k in range(3)] for v in range(8)]
        )
        out = evaluator.evaluate(vectors)
        expected = [(v.sum() >= 2) * 1 for v in vectors]
        assert list(out[:, 0]) == expected


class TestBitParallelEquivalence:
    def test_adder_matches_reference_on_random_sweeps(self):
        assert_netlist_equivalence(build_ripple_adder_netlist(6), seed=1)

    def test_adder_with_carry_in(self):
        assert_netlist_equivalence(
            build_ripple_adder_netlist(4, with_carry_in=True), seed=2
        )

    def test_multiplier_matches_reference_on_random_sweeps(self):
        assert_netlist_equivalence(build_array_multiplier_netlist(4, 5), seed=3)

    def test_mux_tree_matches_reference_on_random_sweeps(self):
        assert_netlist_equivalence(build_mux_tree_netlist(11), seed=4)

    def test_comparator_matches_reference_on_random_sweeps(self):
        assert_netlist_equivalence(build_comparator_netlist(7), seed=5)

    def test_multiplier_products_decode_correctly(self):
        a_bits, b_bits = 4, 4
        netlist = build_array_multiplier_netlist(a_bits, b_bits)
        pairs = [(a, b) for a in range(16) for b in range(16)]
        bits = np.array(
            [
                [(a >> i) & 1 for i in range(a_bits)]
                + [(b >> j) & 1 for j in range(b_bits)]
                for a, b in pairs
            ]
        )
        out = simulate_combinational_batch(netlist, bits)
        products = words_to_ints(out, range(out.shape[1]))
        assert list(products) == [a * b for a, b in pairs]

    def test_single_vector_wrapper_matches_reference(self):
        netlist = build_comparator_netlist(5)
        rng = np.random.default_rng(6)
        for _ in range(20):
            values = {net: int(rng.integers(0, 2)) for net in netlist.inputs}
            assert simulate_combinational(netlist, values) == (
                simulate_combinational_reference(netlist, values)
            )

    def test_constants_and_transparent_cells(self):
        netlist = GateNetlist("mixed")
        a = netlist.add_input("a")
        (q,) = netlist.add_gate("DFF", [a])
        (y,) = netlist.add_gate("AND2", [q, GateNetlist.CONST_ONE])
        (z,) = netlist.add_gate("OR2", [y, GateNetlist.CONST_ZERO])
        netlist.mark_output(z)
        out = simulate_combinational_batch(netlist, np.array([[0], [1]]))
        assert list(out[:, 0]) == [0, 1]


class TestReferenceInterpreter:
    def test_live_ops_keeps_only_the_requested_cone(self):
        netlist = GateNetlist("cones")
        a, b, c = (netlist.add_input(n) for n in "abc")
        (x,) = netlist.add_gate("AND2", [a, b])
        (y,) = netlist.add_gate("OR2", [b, c])
        (z,) = netlist.add_gate("XOR2", [x, a])
        netlist.mark_output(z)
        netlist.mark_output(y)
        program = compile_netlist(netlist)
        slot = program.net_slots
        ops = op_tuples(program)

        def dsts(slots):
            return [op[4] for op in live_ops(ops, slots)]

        assert dsts([slot[z]]) == [slot[x], slot[z]]
        assert dsts([slot[y]]) == [slot[y]]
        assert dsts([slot[z], slot[y]]) == [op[4] for op in ops]
        assert dsts([slot[a], 0, 1]) == []

    def test_wrong_input_width_rejected(self):
        netlist = build_ripple_adder_netlist(2)
        evaluator = BitParallelEvaluator(compile_netlist(netlist))
        n_inputs = len(netlist.inputs)
        with pytest.raises(ValueError, match=f"expected {n_inputs} input bits"):
            evaluator.evaluate_single([0] * (n_inputs - 1))
        with pytest.raises(ValueError, match="expected packed inputs of shape"):
            evaluator.evaluate_packed(np.zeros((n_inputs + 1, 1), dtype=np.uint64))
