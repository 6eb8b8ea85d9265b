"""Truth-table lowering of custom cell libraries in the netlist compiler.

Cells outside the simple-op map (and standard names redefined with different
logic) are lowered through their truth tables (sum of minterms).  This was
previously exercised only implicitly; these tests sweep the path directly:
multi-output custom cells, constant outputs, redefined standard cells, and
interaction with the optimization passes.
"""

import numpy as np
import pytest

from repro.hw.cells import CellLibrary, CellType, GENERIC_CELL_SET
from repro.hw.netlist import GateNetlist
from repro.hw.opt import check_equivalence, optimize
from repro.hw.simulate import simulate_combinational_reference
from repro.perf.bitsim import BitParallelEvaluator, pack_vectors, simulate_netlist_batch
from repro.perf.compile import compile_netlist


def generic_cells():
    return [
        CellType(name, spec[0], spec[1], 0.1, 0.1, 0.1, 0.1, function=spec[2])
        for name, spec in GENERIC_CELL_SET.items()
    ]


def custom_library():
    """The generic set plus cells that only the truth-table path can lower."""
    cells = generic_cells()
    cells.extend(
        [
            # 3-input majority (the classic non-simple-op cell).
            CellType(
                "MAJ3", 3, 1, 0.1, 0.1, 0.1, 0.1,
                function=lambda b: (1 if b[0] + b[1] + b[2] >= 2 else 0,),
            ),
            # AOI21: ~(a*b + c) — inverted mixed-term cell.
            CellType(
                "AOI21", 3, 1, 0.1, 0.1, 0.1, 0.1,
                function=lambda b: (1 - ((b[0] & b[1]) | b[2]),),
            ),
            # Multi-output: (parity, all-ones) over 3 inputs.
            CellType(
                "PARAND3", 3, 2, 0.1, 0.1, 0.1, 0.1,
                function=lambda b: (b[0] ^ b[1] ^ b[2], b[0] & b[1] & b[2]),
            ),
            # Constant outputs exercise the 0-minterm / all-minterm branches.
            CellType(
                "TIE", 1, 2, 0.1, 0.1, 0.1, 0.1,
                function=lambda b: (0, 1),
            ),
        ]
    )
    return CellLibrary("custom", cells)


def assert_matches_reference(netlist, library, n_vectors=64, seed=0):
    """Compiled program output == interpreted reference, for every net."""
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, 2, size=(n_vectors, len(netlist.inputs)))
    program = compile_netlist(netlist, library)
    evaluator = BitParallelEvaluator(program)
    packed, _ = pack_vectors(vectors)
    state = evaluator.evaluate_packed(packed)
    for v, vec in enumerate(vectors):
        ref = simulate_combinational_reference(
            netlist, dict(zip(netlist.inputs, (int(x) for x in vec))), library
        )
        for net, value in ref.items():
            slot = program.net_slots[net]
            got = int((state[slot, v // 64] >> np.uint64(v % 64)) & np.uint64(1))
            assert got == value, f"net {net} vector {v}: {got} != {value}"


class TestCustomCellLowering:
    def test_mixed_custom_netlist_matches_reference(self):
        library = custom_library()
        n = GateNetlist("mixed_custom")
        a, b, c = (n.add_input(x) for x in "abc")
        (m,) = n.add_gate("MAJ3", [a, b, c])
        (aoi,) = n.add_gate("AOI21", [a, m, c])
        par, al = n.add_gate("PARAND3", [m, aoi, b], outputs=["par", "al"])
        z0, z1 = n.add_gate("TIE", [par], outputs=["z0", "z1"])
        (y,) = n.add_gate("XOR2", [par, al])
        (w,) = n.add_gate("OR2", [z0, z1])
        n.mark_output(y)
        n.mark_output(w)
        assert_matches_reference(n, library, seed=1)

    def test_multi_output_custom_cell_outputs_decode(self):
        library = custom_library()
        n = GateNetlist("parand")
        ins = [n.add_input(x) for x in "abc"]
        par, al = n.add_gate("PARAND3", ins, outputs=["par", "al"])
        n.mark_output(par)
        n.mark_output(al)
        vectors = np.array([[(v >> k) & 1 for k in range(3)] for v in range(8)])
        out = simulate_netlist_batch(n, vectors, library)
        expected_par = [v.sum() % 2 for v in vectors]
        expected_all = [int(v.sum() == 3) for v in vectors]
        assert list(out[:, 0]) == expected_par
        assert list(out[:, 1]) == expected_all

    def test_constant_output_cell_lowers_to_tied_slots(self):
        library = custom_library()
        n = GateNetlist("tie")
        a = n.add_input("a")
        z0, z1 = n.add_gate("TIE", [a], outputs=["z0", "z1"])
        n.mark_output(z0)
        n.mark_output(z1)
        out = simulate_netlist_batch(n, np.array([[0], [1]]), library)
        assert list(out[:, 0]) == [0, 0]
        assert list(out[:, 1]) == [1, 1]

    def test_redefined_standard_name_is_not_miscompiled(self):
        # A library that redefines AND2 as OR must fall back to truth-table
        # lowering — the direct-lowering fast path would miscompile it.
        cells = [c for c in generic_cells() if c.name != "AND2"]
        cells.append(
            CellType("AND2", 2, 1, 0.1, 0.1, 0.1, 0.1, function=lambda b: (b[0] | b[1],))
        )
        library = CellLibrary("weird", cells)
        n = GateNetlist("weird_and")
        a = n.add_input("a")
        b = n.add_input("b")
        (y,) = n.add_gate("AND2", [a, b])
        n.mark_output(y)
        out = simulate_netlist_batch(
            n, np.array([[0, 0], [0, 1], [1, 0], [1, 1]]), library
        )
        assert list(out[:, 0]) == [0, 1, 1, 1]
        assert_matches_reference(n, library, seed=2)

    def test_wide_cell_rejected(self):
        cells = generic_cells()
        cells.append(
            CellType("WIDE", 11, 1, 0.1, 0.1, 0.1, 0.1, function=lambda b: (b[0],))
        )
        library = CellLibrary("wide", cells)
        n = GateNetlist("wide")
        ins = [n.add_input(f"i{k}") for k in range(11)]
        (y,) = n.add_gate("WIDE", ins)
        n.mark_output(y)
        with pytest.raises(NotImplementedError):
            compile_netlist(n, library)

    def test_optimizer_folds_custom_cells_through_truth_tables(self):
        # MAJ3 with a tied-1 input is OR2; const-prop must find that via the
        # same truth-table restriction the compiler's fallback uses.
        library = custom_library()
        n = GateNetlist("maj_tied")
        a = n.add_input("a")
        b = n.add_input("b")
        (m,) = n.add_gate("MAJ3", [a, b, GateNetlist.CONST_ONE])
        n.mark_output(m)
        result = optimize(n, level=2, library=library)
        assert result.netlist.cell_counts() == {"OR2": 1}
        assert check_equivalence(n, result.netlist, library=library)


class TestGateOutputCount:
    """A gate whose output-net count differs from its cell's is rejected by
    the lowerer and by both reference walks, naming the gate, the cell and
    both counts."""

    MESSAGE = r"gate 'u0' has {got} output nets but its cell {cell} has {want} outputs"

    @staticmethod
    def _parand3_without_outputs():
        # add_gate gives a custom cell one output net unless told otherwise.
        n = GateNetlist("short_parand3")
        a, b, c = (n.add_input(x) for x in "abc")
        (out,) = n.add_gate("PARAND3", [a, b, c])
        n.mark_output(out)
        return n

    @staticmethod
    def _and2_with_two_outputs():
        n = GateNetlist("wide_and2")
        a, b = (n.add_input(x) for x in "ab")
        n.add_gate("AND2", [a, b], outputs=["y", "ghost"])
        n.mark_output("y")
        n.mark_output("ghost")
        return n

    def test_short_multi_output_gate_fails_to_compile(self):
        message = self.MESSAGE.format(got=1, cell="PARAND3", want=2)
        with pytest.raises(ValueError, match=message):
            compile_netlist(self._parand3_without_outputs(), custom_library())

    def test_extra_output_net_fails_to_compile(self):
        message = self.MESSAGE.format(got=2, cell="AND2", want=1)
        with pytest.raises(ValueError, match=message):
            compile_netlist(self._and2_with_two_outputs(), custom_library())

    def test_reference_walk_raises_the_same_error(self):
        library = custom_library()
        for netlist, message in (
            (self._parand3_without_outputs(), self.MESSAGE.format(got=1, cell="PARAND3", want=2)),
            (self._and2_with_two_outputs(), self.MESSAGE.format(got=2, cell="AND2", want=1)),
        ):
            values = {net: 1 for net in netlist.inputs}
            with pytest.raises(ValueError, match=message):
                simulate_combinational_reference(netlist, values, library)

    def test_clocked_netlists_are_checked_too(self):
        from repro.hw.simulate import simulate_sequential_reference
        from repro.perf.seqsim import compile_sequential

        n = GateNetlist("clocked_wide_and2")
        a = n.add_input("a")
        q = n.declare_dff("q", name="ff")
        n.add_gate("AND2", [a, q], outputs=["d", "ghost"], name="u0")
        n.bind_dff(q, "d")
        n.mark_output("d")
        message = self.MESSAGE.format(got=2, cell="AND2", want=1)
        with pytest.raises(ValueError, match=message):
            compile_sequential(n)
        with pytest.raises(ValueError, match=message):
            simulate_sequential_reference(n, {"a": 1}, cycles=2)
