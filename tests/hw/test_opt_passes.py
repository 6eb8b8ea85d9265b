"""Netlist optimization: rewrite units, equivalence, and lowerings.

The correctness contract of :mod:`repro.hw.opt` is that the optimized
netlist is bit-exact with the raw one on randomized vectors for *every* RTL
generator family, while preserving the primary input/output interface.  The
unit tests pin down the individual rewrites of the sweep (constant folding,
buffer collapse, CSE, dead-gate removal) on hand-built netlists.
"""

import numpy as np
import pytest

import repro.hw.opt.sweep as sweep_mod
from repro.hw.area import analyze_netlist_area
from repro.hw.cells import CellLibrary, CellType, GENERIC_CELL_SET
from repro.hw.netlist import GateNetlist
from repro.hw.opt import (
    DEFAULT_OPAQUE_CELLS,
    OptStats,
    check_equivalence,
    netlist_to_block,
    optimize,
)
from repro.hw.power import analyze_netlist_power
from repro.hw.rtl.adders import build_ripple_adder_netlist
from repro.hw.rtl.comparator import build_comparator_netlist
from repro.hw.rtl.multipliers import (
    build_array_multiplier_netlist,
    build_constant_mac_netlist,
    build_constant_multiplier_netlist,
)
from repro.hw.rtl.mux import build_mux_tree_netlist
from repro.hw.timing import analyze_netlist_timing
from repro.hw.verilog import netlist_to_verilog
from repro.perf.bitsim import simulate_netlist_batch, words_to_ints

C0 = GateNetlist.CONST_ZERO
C1 = GateNetlist.CONST_ONE


def gates_by_cell(netlist):
    return netlist.cell_counts()


# --------------------------------------------------------------------------- #
# Equivalence across every RTL generator family
# --------------------------------------------------------------------------- #
ALL_GENERATORS = [
    ("ripple_adder", lambda: build_ripple_adder_netlist(6)),
    ("ripple_adder_cin", lambda: build_ripple_adder_netlist(4, with_carry_in=True)),
    ("array_multiplier", lambda: build_array_multiplier_netlist(4, 5)),
    ("mux_tree", lambda: build_mux_tree_netlist(11)),
    ("comparator", lambda: build_comparator_netlist(7)),
    ("constant_multiplier", lambda: build_constant_multiplier_netlist(11, 5)),
    ("constant_multiplier_pow2", lambda: build_constant_multiplier_netlist(8, 4)),
    (
        "constant_mac",
        lambda: build_constant_mac_netlist([0, 1, 2, 5, 8, 11, 6, 3], 4),
    ),
]


#: Cells left per generator at levels 1 and 2 (the same at both).  The
#: earlier optimizer, which iterated four passes to a fixpoint, left exactly
#: these.
EXPECTED_CELLS = {
    "ripple_adder": {"FA": 5, "HA": 1},
    "ripple_adder_cin": {"FA": 4},
    "array_multiplier": {"AND2": 20, "FA": 11, "HA": 5},
    "mux_tree": {"MUX2": 10},
    "comparator": {"AND2": 18, "INV": 7, "OR2": 6, "XNOR2": 6},
    "constant_multiplier": {"BUF": 1, "FA": 6, "HA": 4},
    "constant_multiplier_pow2": {"BUF": 8},
    "constant_mac": {"FA": 36, "HA": 29},
}


class TestEquivalence:
    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize(
        "name,builder", ALL_GENERATORS, ids=[n for n, _ in ALL_GENERATORS]
    )
    def test_every_generator_keeps_the_recorded_cells(self, name, builder, level):
        assert gates_by_cell(optimize(builder(), level=level).netlist) == (
            EXPECTED_CELLS[name]
        )

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize(
        "name,builder", ALL_GENERATORS, ids=[n for n, _ in ALL_GENERATORS]
    )
    def test_every_generator_is_bit_exact_after_optimization(
        self, name, builder, level
    ):
        raw = builder()
        result = optimize(raw, level=level, verify=True)
        optimized = result.netlist
        assert optimized.inputs == raw.inputs
        assert optimized.outputs == raw.outputs
        assert check_equivalence(raw, optimized, n_vectors=300, seed=7)

    def test_constant_datapaths_shrink(self):
        """The optimizer must remove gates on the hardwired-constant datapaths."""
        for builder in (
            lambda: build_constant_multiplier_netlist(11, 5),
            lambda: build_constant_mac_netlist([0, 1, 2, 5, 8, 11, 6, 3], 4),
        ):
            raw = builder()
            stats = optimize(raw, level=2).stats
            assert stats.gates_removed > 0
            assert stats.gates_after < stats.gates_before

    def test_optimized_constant_mac_still_computes_the_dot_product(self):
        weights = [3, 0, 7, 4]
        raw = build_constant_mac_netlist(weights, 3)
        optimized = optimize(raw, level=2).netlist
        rng = np.random.default_rng(1)
        X = rng.integers(0, 8, size=(40, 4))
        bits = np.zeros((40, 12), dtype=np.int64)
        for f in range(4):
            for i in range(3):
                bits[:, f * 3 + i] = (X[:, f] >> i) & 1
        out = simulate_netlist_batch(optimized, bits)
        values = words_to_ints(out, range(out.shape[1]))
        assert list(values) == list(X @ np.array(weights))


# --------------------------------------------------------------------------- #
# Individual rewrites
# --------------------------------------------------------------------------- #
class TestConstantPropagation:
    def test_tied_gates_fold_to_wires_and_constants(self):
        n = GateNetlist("fold")
        a = n.add_input("a")
        b = n.add_input("b")
        (w1,) = n.add_gate("AND2", [a, C1])  # -> wire a
        (w2,) = n.add_gate("OR2", [b, C0])  # -> wire b
        (k,) = n.add_gate("AND2", [w1, C0])  # -> constant 0
        (y,) = n.add_gate("OR2", [w2, k])  # -> wire b
        n.mark_output(y)
        result = optimize(n, level=1, verify=True)
        # Everything folds away; the output is recovered from net b.
        assert result.stats.gates_after <= 1
        assert result.stats.removed_per_pass["const_prop"] > 0

    def test_full_adder_with_tied_carry_becomes_half_adder(self):
        n = GateNetlist("fa0")
        a = n.add_input("a")
        b = n.add_input("b")
        s, c = n.add_gate("FA", [a, b, C0])
        n.mark_output(s)
        n.mark_output(c)
        optimized = optimize(n, level=1, verify=True).netlist
        assert gates_by_cell(optimized) == {"HA": 1}

    def test_xor_of_duplicate_nets_is_constant_zero(self):
        n = GateNetlist("dup")
        a = n.add_input("a")
        (y,) = n.add_gate("XOR2", [a, a])
        n.mark_output(y)
        optimized = optimize(n, level=1, verify=True).netlist
        # Only the output-recovery buffer from the constant remains.
        assert gates_by_cell(optimized) == {"BUF": 1}
        out = simulate_netlist_batch(optimized, np.array([[0], [1]]))
        assert list(out[:, 0]) == [0, 0]

    def test_mux_with_equal_data_inputs_collapses(self):
        n = GateNetlist("muxdup")
        d = n.add_input("d")
        s = n.add_input("s")
        (y,) = n.add_gate("MUX2", [d, d, s])
        (z,) = n.add_gate("INV", [y])
        n.mark_output(z)
        optimized = optimize(n, level=1, verify=True).netlist
        assert gates_by_cell(optimized) == {"INV": 1}

    def test_folding_cascades_through_levels(self):
        # INV(1) = 0 feeds an AND which therefore dies too, in one run.
        n = GateNetlist("cascade")
        a = n.add_input("a")
        (k,) = n.add_gate("INV", [C1])
        (y,) = n.add_gate("AND2", [a, k])
        (z,) = n.add_gate("OR2", [y, a])  # -> wire a
        n.mark_output(z)
        result = optimize(n, level=1, verify=True)
        assert result.stats.gates_after <= 1

    def test_each_pin_shape_is_folded_once(self, monkeypatch):
        # A constant MAC ties hundreds of gates, but they share a handful of
        # (cell, pin shape) patterns: AND2(x, 0), AND2(x, 1), FA(x, 0, y),
        # ...  The truth-table fold must run once per pattern.
        calls = []
        fold_plan = sweep_mod.fold_plan

        def spy(cell, shape, canonical):
            calls.append((cell.name, shape))
            return fold_plan(cell, shape, canonical)

        monkeypatch.setattr(sweep_mod, "fold_plan", spy)
        weights = np.random.default_rng(1).integers(-15, 16, size=16)
        raw = build_constant_mac_netlist([int(w) for w in weights], 5)
        result = optimize(raw, level=2, verify=True)
        assert result.stats.removed_per_pass["const_prop"] > 100
        assert len(calls) == len(set(calls))
        assert 0 < len(calls) <= 12


class TestBufferCollapse:
    def test_buffers_and_double_inverters_alias_away(self):
        n = GateNetlist("bufs")
        a = n.add_input("a")
        b = n.add_input("b")
        (x,) = n.add_gate("XOR2", [a, b])
        (bufd,) = n.add_gate("BUF", [x])
        (i1,) = n.add_gate("INV", [bufd])
        (i2,) = n.add_gate("INV", [i1])
        (y,) = n.add_gate("AND2", [i2, a])
        n.mark_output(y)
        optimized = optimize(n, level=2, verify=True).netlist
        counts = gates_by_cell(optimized)
        assert counts["XOR2"] == 1 and counts["AND2"] == 1
        assert "BUF" not in counts
        assert counts.get("INV", 0) == 0  # both inverters cancelled

    def test_odd_inverter_chain_keeps_one_inverter(self):
        n = GateNetlist("inv3")
        a = n.add_input("a")
        (i1,) = n.add_gate("INV", [a])
        (i2,) = n.add_gate("INV", [i1])
        (i3,) = n.add_gate("INV", [i2])
        n.mark_output(i3)
        optimized = optimize(n, level=2, verify=True).netlist
        assert gates_by_cell(optimized) == {"INV": 1}


class TestStructuralHashing:
    def test_identical_gates_merge_including_commutative_orders(self):
        n = GateNetlist("cse")
        a = n.add_input("a")
        b = n.add_input("b")
        (x1,) = n.add_gate("AND2", [a, b])
        (x2,) = n.add_gate("AND2", [b, a])  # commutative duplicate
        (x3,) = n.add_gate("AND2", [a, b])  # exact duplicate
        (y,) = n.add_gate("OR3", [x1, x2, x3])  # -> wire x1 after merge
        n.mark_output(y)
        result = optimize(n, level=2, verify=True)
        counts = gates_by_cell(result.netlist)
        assert counts.get("AND2", 0) == 1
        assert result.stats.removed_per_pass["structural_hash"] >= 1

    def test_mux_select_order_is_not_commutative(self):
        n = GateNetlist("muxorder")
        d0 = n.add_input("d0")
        d1 = n.add_input("d1")
        s = n.add_input("s")
        (y1,) = n.add_gate("MUX2", [d0, d1, s])
        (y2,) = n.add_gate("MUX2", [d1, d0, s])  # different function!
        n.mark_output(y1)
        n.mark_output(y2)
        optimized = optimize(n, level=2, verify=True).netlist
        assert gates_by_cell(optimized)["MUX2"] == 2


class TestDeadGateElimination:
    def test_unobserved_logic_is_removed(self):
        n = GateNetlist("dead")
        a = n.add_input("a")
        b = n.add_input("b")
        (y,) = n.add_gate("AND2", [a, b])
        n.add_gate("XOR2", [a, b])  # never marked as output
        n.add_gate("OR2", [a, b])  # never marked as output
        n.mark_output(y)
        result = optimize(n, level=1, verify=True)
        assert gates_by_cell(result.netlist) == {"AND2": 1}
        assert result.stats.removed_per_pass["dead_gate"] == 2

    def test_transitively_dead_chains_are_removed(self):
        n = GateNetlist("chain")
        a = n.add_input("a")
        (x,) = n.add_gate("INV", [a])
        (y,) = n.add_gate("INV", [x])  # whole chain feeds nothing observed
        (z,) = n.add_gate("AND2", [y, a])
        (keep,) = n.add_gate("OR2", [a, a])
        n.mark_output(keep)
        optimized = optimize(n, level=1, verify=True).netlist
        assert "INV" not in gates_by_cell(optimized)
        assert "AND2" not in gates_by_cell(optimized)


# --------------------------------------------------------------------------- #
# Interface preservation and barriers
# --------------------------------------------------------------------------- #
class TestInterfacePreservation:
    def test_output_tied_to_constant_gets_a_port_buffer(self):
        n = GateNetlist("tieout")
        a = n.add_input("a")
        (y,) = n.add_gate("AND2", [a, C0])  # output is constant 0
        n.mark_output(y)
        optimized = optimize(n, level=1, verify=True).netlist
        assert optimized.outputs == [y]
        out = simulate_netlist_batch(optimized, np.array([[0], [1]]))
        assert list(out[:, 0]) == [0, 0]

    def test_output_aliased_to_input_gets_a_port_buffer(self):
        n = GateNetlist("wireout")
        a = n.add_input("a")
        (y,) = n.add_gate("BUF", [a])
        n.mark_output(y)
        optimized = optimize(n, level=2, verify=True).netlist
        assert optimized.inputs == ["a"]
        assert optimized.outputs == [y]
        out = simulate_netlist_batch(optimized, np.array([[0], [1]]))
        assert list(out[:, 0]) == [0, 1]

    def test_two_outputs_sharing_one_survivor(self):
        n = GateNetlist("shareout")
        a = n.add_input("a")
        b = n.add_input("b")
        (x1,) = n.add_gate("AND2", [a, b])
        (x2,) = n.add_gate("AND2", [b, a])  # merges into x1
        n.mark_output(x1)
        n.mark_output(x2)
        optimized = optimize(n, level=2, verify=True).netlist
        assert optimized.outputs == [x1, x2]
        vectors = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        out = simulate_netlist_batch(optimized, vectors)
        assert np.array_equal(out[:, 0], out[:, 1])

    def test_unused_primary_inputs_are_kept(self):
        n = GateNetlist("unused")
        a = n.add_input("a")
        b = n.add_input("b")  # becomes unused after folding
        (x,) = n.add_gate("AND2", [b, C0])
        (y,) = n.add_gate("OR2", [a, x])
        n.mark_output(y)
        optimized = optimize(n, level=1, verify=True).netlist
        assert optimized.inputs == ["a", "b"]


class TestOptimizationBarriers:
    def test_opaque_cells_are_never_folded(self):
        n = GateNetlist("adc")
        a = n.add_input("a")
        (x,) = n.add_gate("ADC1", [a])
        (y,) = n.add_gate("AND2", [x, C1])  # folds to wire x
        n.mark_output(y)
        optimized = optimize(n, level=2, verify=True).netlist
        assert gates_by_cell(optimized)["ADC1"] == 1
        assert "AND2" not in gates_by_cell(optimized)

    def test_sequential_cells_are_never_folded(self):
        n = GateNetlist("seq")
        a = n.add_input("a")
        (q,) = n.add_gate("DFF", [a])
        n.mark_output(q)
        optimized = optimize(n, level=2, verify=True).netlist
        assert gates_by_cell(optimized) == {"DFF": 1}

    def test_dead_opaque_cells_are_still_removable(self):
        n = GateNetlist("deadadc")
        a = n.add_input("a")
        n.add_gate("ADC1", [a])  # feeds nothing
        (y,) = n.add_gate("INV", [a])
        n.mark_output(y)
        optimized = optimize(n, level=1, verify=True).netlist
        assert "ADC1" not in gates_by_cell(optimized)

    def test_library_without_buf_keeps_output_drivers(self):
        # No canonical BUF cell -> an output that would fold to a constant
        # or a wire has no port buffer to fall back on; its driver must
        # survive and the result must stay equivalent and compilable.
        cells = [
            CellType("AND2", 2, 1, 0.1, 0.1, 0.1, 0.1, function=lambda b: (b[0] & b[1],)),
            CellType("OR2", 2, 1, 0.1, 0.1, 0.1, 0.1, function=lambda b: (b[0] | b[1],)),
            CellType("INV", 1, 1, 0.1, 0.1, 0.1, 0.1, function=lambda b: (1 - b[0],)),
        ]
        library = CellLibrary("no-buf", cells)
        n = GateNetlist("nobuf")
        a = n.add_input("a")
        (y,) = n.add_gate("AND2", [a, C0])  # would fold to constant 0
        (w,) = n.add_gate("OR2", [a, C0])  # would fold to wire a
        n.mark_output(y)
        n.mark_output(w)
        optimized = optimize(n, level=2, library=library).netlist
        assert check_equivalence(n, optimized, library=library)
        assert "BUF" not in optimized.cell_counts()
        out = simulate_netlist_batch(optimized, np.array([[0], [1]]), library)
        assert list(out[:, 0]) == [0, 0] and list(out[:, 1]) == [0, 1]

    def test_noncanonical_buf_is_never_instantiated(self):
        # A library whose BUF cell actually inverts: the optimizer must not
        # insert port buffers (they would flip the output) nor collapse them.
        cells = [
            CellType("AND2", 2, 1, 0.1, 0.1, 0.1, 0.1, function=lambda b: (b[0] & b[1],)),
            CellType("BUF", 1, 1, 0.1, 0.1, 0.1, 0.1, function=lambda b: (1 - b[0],)),
        ]
        library = CellLibrary("weird-buf", cells)
        n = GateNetlist("weirdbuf")
        a = n.add_input("a")
        (y,) = n.add_gate("AND2", [a, C1])  # would fold to wire a
        (z,) = n.add_gate("BUF", [y])  # actually an inverter here!
        n.mark_output(z)
        optimized = optimize(n, level=2, library=library).netlist
        assert check_equivalence(n, optimized, library=library)

    def test_custom_library_without_rewrite_cells_degrades_gracefully(self):
        # A library whose only cells are a custom majority gate and NAND2:
        # const-prop cannot express INV/AND2 rewrites, so it must keep gates
        # rather than miscompile.
        cells = [
            CellType("NAND2", 2, 1, 0.1, 0.1, 0.1, 0.1, function=lambda b: (1 - (b[0] & b[1]),)),
            CellType(
                "MAJ3", 3, 1, 0.1, 0.1, 0.1, 0.1,
                function=lambda b: (1 if b[0] + b[1] + b[2] >= 2 else 0,),
            ),
        ]
        library = CellLibrary("tiny", cells)
        n = GateNetlist("maj")
        a = n.add_input("a")
        b = n.add_input("b")
        (m,) = n.add_gate("MAJ3", [a, b, C1])  # = a | b, inexpressible here
        (y,) = n.add_gate("NAND2", [m, C1])  # = ~m, inexpressible (no INV)
        n.mark_output(y)
        optimized = optimize(n, level=2, library=library).netlist
        assert check_equivalence(n, optimized, library=library)
        assert gates_by_cell(optimized) == {"MAJ3": 1, "NAND2": 1}


# --------------------------------------------------------------------------- #
# Optimizer mechanics
# --------------------------------------------------------------------------- #
class TestOptimizer:
    def test_level_zero_is_identity(self):
        raw = build_constant_multiplier_netlist(11, 4)
        result = optimize(raw, level=0)
        assert result.netlist is raw
        assert result.stats.gates_removed == 0

    def test_levels_above_max_clamp(self):
        raw = build_constant_multiplier_netlist(11, 4)
        assert optimize(raw, level=99).stats.level == 2

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            optimize(build_ripple_adder_netlist(2), level=-1)

    def test_fixpoint_folds_what_hashing_exposes(self):
        # Hashing merges the two ANDs before the sweep reaches the XOR, so
        # the XOR reads one net twice and folds to 0; the liveness walk then
        # drops the AND.  Only the output's port buffer is left.
        n = GateNetlist("cascade")
        a = n.add_input("a")
        b = n.add_input("b")
        (x1,) = n.add_gate("AND2", [a, b])
        (x2,) = n.add_gate("AND2", [b, a])
        (y,) = n.add_gate("XOR2", [x1, x2])
        n.mark_output(y)
        result = optimize(n, level=2, verify=True)
        assert gates_by_cell(result.netlist) == {"BUF": 1}
        # There is no iteration bound to lower, so no call can cache a
        # result short of the fixpoint for later callers.
        with pytest.raises(TypeError):
            optimize(n, level=2, max_iterations=1)

    def test_results_are_cached_per_structure_and_level(self):
        raw = build_constant_multiplier_netlist(11, 4)
        assert optimize(raw, level=2) is optimize(raw, level=2)
        assert optimize(raw, level=1) is not optimize(raw, level=2)

    def test_cache_invalidated_by_structural_mutation(self):
        raw = build_constant_multiplier_netlist(11, 4)
        first = optimize(raw, level=2)
        (extra,) = raw.add_gate("INV", [raw.inputs[0]])
        raw.mark_output(extra)
        second = optimize(raw, level=2)
        assert second is not first
        assert second.netlist.outputs[-1] == extra

    def test_mutating_the_returned_netlist_does_not_poison_the_cache(self):
        raw = build_constant_multiplier_netlist(11, 4)
        first = optimize(raw, level=2)
        expected_outputs = list(first.netlist.outputs)
        # A caller growing the shared result must not leak into later calls.
        (extra,) = first.netlist.add_gate("INV", [first.netlist.inputs[0]])
        first.netlist.mark_output(extra)
        second = optimize(raw, level=2)
        assert second is not first
        assert second.netlist.outputs == expected_outputs
        assert check_equivalence(raw, second.netlist)

    def test_stats_are_consistent(self):
        raw = build_constant_mac_netlist([0, 1, 2, 5], 3)
        stats = optimize(raw, level=2).stats
        assert isinstance(stats, OptStats)
        assert stats.gates_before == raw.n_gates()
        assert stats.gates_removed == stats.gates_before - stats.gates_after
        assert 0.0 < stats.reduction_percent <= 100.0
        assert set(stats.removed_per_pass) == {
            "const_prop", "buffer_collapse", "structural_hash", "dead_gate",
        }
        doc = stats.to_dict()
        assert doc["gates_removed"] == stats.gates_removed

    def test_result_unpacks_like_a_tuple(self):
        raw = build_ripple_adder_netlist(3)
        netlist, stats = optimize(raw, level=2)
        assert netlist.outputs == raw.outputs
        assert stats.gates_before == raw.n_gates()

    def test_raw_netlist_is_never_mutated(self):
        raw = build_constant_mac_netlist([5, 3], 3)
        before_gates = raw.n_gates()
        before_sig = raw.structural_signature()
        optimize(raw, level=2, verify=True)
        assert raw.n_gates() == before_gates
        assert raw.structural_signature() == before_sig


# --------------------------------------------------------------------------- #
# Downstream lowerings: block / area / power / timing / verilog
# --------------------------------------------------------------------------- #
class TestLowerings:
    def test_netlist_to_block_counts_match_optimized_netlist(self):
        raw = build_constant_mac_netlist([0, 1, 2, 5, 8, 11], 4)
        optimized = optimize(raw, level=2).netlist
        block_raw = netlist_to_block(raw)
        block_opt = netlist_to_block(raw, level=2)
        assert block_raw.n_cells() == raw.n_gates()
        assert block_opt.n_cells() == optimized.n_gates()
        assert block_opt.n_cells() < block_raw.n_cells()

    def test_to_block_still_works_and_matches_lowering(self):
        raw = build_ripple_adder_netlist(5)
        assert raw.to_block().n_cells() == netlist_to_block(raw).n_cells()
        assert raw.to_block().logic_depth() == netlist_to_block(raw).logic_depth()

    def test_optimized_area_and_power_shrink(self):
        raw = build_constant_mac_netlist([0, 1, 2, 5, 8, 11], 4)
        area_raw = analyze_netlist_area(raw)
        area_opt = analyze_netlist_area(raw, opt_level=2)
        assert area_opt.total_cm2 < area_raw.total_cm2
        power_raw = analyze_netlist_power(raw, frequency_hz=10.0)
        power_opt = analyze_netlist_power(raw, frequency_hz=10.0, opt_level=2)
        assert power_opt.total_mw < power_raw.total_mw

    def test_optimized_timing_is_no_worse(self):
        raw = build_constant_mac_netlist([0, 1, 2, 5, 8, 11], 4)
        t_raw = analyze_netlist_timing(raw)
        t_opt = analyze_netlist_timing(raw, opt_level=2)
        assert t_opt.critical_path_ms <= t_raw.critical_path_ms + 1e-9
        assert t_opt.frequency_hz >= t_raw.frequency_hz - 1e-9

    def test_verilog_export_of_optimized_netlist(self):
        raw = build_constant_multiplier_netlist(11, 4)
        text_raw = netlist_to_verilog(raw)
        text_opt = netlist_to_verilog(raw, opt_level=2)
        assert text_opt.count("assign") < text_raw.count("assign")
        # The module interface is identical at every level.
        head_raw = text_raw.split(");")[0]
        head_opt = text_opt.split(");")[0]
        assert head_raw.splitlines()[2:] == head_opt.splitlines()[2:]

    def test_compile_opt_level_produces_fewer_ops(self):
        from repro.perf.compile import compile_netlist

        raw = build_constant_mac_netlist([0, 1, 2, 5, 8, 11], 4)
        program_raw = compile_netlist(raw)
        program_opt = compile_netlist(raw, opt_level=2)
        assert program_opt.n_ops < program_raw.n_ops
        rng = np.random.default_rng(3)
        vectors = rng.integers(0, 2, size=(128, len(raw.inputs)))
        assert np.array_equal(
            simulate_netlist_batch(raw, vectors),
            simulate_netlist_batch(raw, vectors, opt_level=2),
        )
