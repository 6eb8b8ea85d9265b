"""Tests for MUX storage, comparators, registers and counters."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.rtl.comparator import (
    argmax_comparator_tree,
    build_comparator_netlist,
    magnitude_comparator,
    simulate_comparator,
)
from repro.hw.rtl.mux import (
    build_mux_tree_netlist,
    constant_mux_storage,
    mux_tree,
    storage_table_bits,
)
from repro.hw.activity import storage_toggles
from repro.hw.pdk import EGFET_PDK
from repro.hw.rtl.registers import binary_counter, counter_bits, register_bank
from repro.hw.simulate import simulate_combinational


class TestMuxTree:
    def test_generic_mux_cell_count(self):
        block = mux_tree(8, width=4)
        assert block.counts["MUX2"] == 7 * 4
        assert block.logic_depth() == 3

    def test_single_input_is_wire(self):
        assert mux_tree(1, 4).n_cells() == 0

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            mux_tree(0, 1)

    @pytest.mark.parametrize("n_inputs", [2, 3, 5, 8])
    def test_gate_level_mux_selects_correct_input(self, n_inputs):
        netlist = build_mux_tree_netlist(n_inputs)
        n_sel = max(1, int(np.ceil(np.log2(n_inputs))))
        rng = np.random.default_rng(n_inputs)
        data = rng.integers(0, 2, size=n_inputs)
        for select in range(n_inputs):
            values = {f"d[{i}]": int(data[i]) for i in range(n_inputs)}
            for s in range(n_sel):
                values[f"sel[{s}]"] = (select >> s) & 1
            out = simulate_combinational(netlist, values)
            assert out[netlist.outputs[0]] == data[select]


class TestConstantMuxStorage:
    def test_identical_words_cost_nothing(self):
        table = np.tile(np.array([[3, -2, 5]]), (4, 1))
        block = constant_mux_storage(table, [4, 4, 4])
        assert block.n_cells() == 0

    def test_distinct_words_cost_something(self, quantized_ovr):
        block = constant_mux_storage(
            quantized_ovr.stored_coefficients(),
            [quantized_ovr.weight_format.total_bits] * quantized_ovr.n_features
            + [quantized_ovr.accumulator_bits],
        )
        assert block.n_cells() > 0

    def test_cost_below_generic_mux(self):
        rng = np.random.default_rng(0)
        table = rng.integers(-7, 8, size=(4, 6))
        bits = [4] * 6
        bespoke = constant_mux_storage(table, bits)
        generic = mux_tree(4, width=24)
        assert bespoke.n_cells() <= generic.n_cells()

    def test_more_words_cost_more(self):
        rng = np.random.default_rng(1)
        small = constant_mux_storage(rng.integers(-7, 8, size=(3, 8)), [4] * 8)
        large = constant_mux_storage(rng.integers(-7, 8, size=(10, 8)), [4] * 8)
        assert large.n_cells() > small.n_cells()

    def test_storage_table_bits_round_trip(self):
        table = np.array([[3, -2], [-8, 7]])
        bits = storage_table_bits(table, [5, 4])
        assert bits.shape == (2, 9)
        # Decode back: word 0, column 0 (5 bits, LSB first).
        word0_col0 = sum(int(bits[0, i]) << i for i in range(5))
        assert word0_col0 == 3
        word1_col0 = sum(int(bits[1, i]) << i for i in range(5))
        assert word1_col0 - (1 << 5) == -8

    def test_out_of_range_code_rejected(self):
        with pytest.raises(ValueError):
            storage_table_bits(np.array([[100]]), [4])

    def test_wrong_bits_length_rejected(self):
        with pytest.raises(ValueError):
            constant_mux_storage(np.zeros((2, 3), dtype=int), [4, 4])

    @given(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_cost_never_exceeds_one_generic_mux_tree(self, n_words, n_cols):
        rng = np.random.default_rng(n_words * 31 + n_cols)
        table = rng.integers(-7, 8, size=(n_words, n_cols))
        bespoke = constant_mux_storage(table, [4] * n_cols)
        generic = mux_tree(n_words, width=4 * n_cols)
        # The collapsed bespoke storage must not cost more printed area than a
        # generic MUX tree of the same geometry (plus a tiny folding margin —
        # the collapse trades some MUX2 cells for cheaper AND/OR/INV cells).
        assert bespoke.area_cm2(EGFET_PDK) <= 1.1 * generic.area_cm2(EGFET_PDK) + 0.01


def _reference_column_cost(column) -> Counter:
    """One column's cells, priced by summing per-half Counters (the oracle)."""

    def reduce(bits):
        n = len(bits)
        if all(b == 0 for b in bits):
            return "const0", Counter()
        if all(b == 1 for b in bits):
            return "const1", Counter()
        if n == 2:
            return "wire", Counter() if list(bits) == [0, 1] else Counter({"INV": 1})
        half = 1 << (int(math.ceil(math.log2(n))) - 1)
        lo_kind, lo_cells = reduce(bits[:half])
        hi_kind, hi_cells = reduce(list(bits[half:]) + [0] * (2 * half - n))
        cells = lo_cells + hi_cells
        kinds = {lo_kind, hi_kind}
        if kinds == {"const0"}:
            return "const0", cells
        if kinds == {"const1"}:
            return "const1", cells
        if kinds <= {"const0", "const1"}:
            return "wire", cells + Counter({"INV": 1 if lo_kind == "const1" else 0})
        if lo_kind == "const0":
            return "logic", cells + Counter({"AND2": 1})
        if hi_kind == "const0":
            return "logic", cells + Counter({"AND2": 1, "INV": 1})
        if lo_kind == "const1":
            return "logic", cells + Counter({"OR2": 1, "INV": 1})
        if hi_kind == "const1":
            return "logic", cells + Counter({"OR2": 1})
        return "logic", cells + Counter({"MUX2": 1})

    return reduce([int(b) & 1 for b in column])[1]


def _assert_priced_like_the_reference(table, bits_per_value):
    """Every column priced on its own, in order: same cells, same key order."""
    bit_matrix = storage_table_bits(table, bits_per_value)
    counts = Counter()
    for col in range(bit_matrix.shape[1]):
        counts.update(_reference_column_cost(bit_matrix[:, col]))
    block = constant_mux_storage(table, bits_per_value)
    assert list(block.counts.items()) == list(counts.items())
    assert list(block.toggles.items()) == list(storage_toggles(counts).items())
    depth = math.ceil(math.log2(len(table))) if len(table) > 1 else 0
    assert list(block.path.items()) == ([("MUX2", depth)] if depth else [])


class TestMuxStoragePricing:
    """Pricing each distinct column once gives the per-column block exactly."""

    @given(
        st.integers(1, 12).flatmap(
            lambda n_words: st.lists(
                st.integers(1, 5).flatmap(
                    lambda width: st.tuples(
                        st.just(width),
                        st.lists(
                            st.integers(-(1 << (width - 1)), (1 << (width - 1)) - 1),
                            min_size=n_words,
                            max_size=n_words,
                        ),
                    )
                ),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_drawn_tables(self, columns):
        bits_per_value = [width for width, _ in columns]
        table = np.array([codes for _, codes in columns], dtype=np.int64).T
        _assert_priced_like_the_reference(table, bits_per_value)

    def test_fast_table1_designs(self):
        from repro.core.design_flow import fast_config, run_flow
        from repro.core.sequential_svm import SequentialSVMDesign

        for dataset in ("cardio", "dermatology", "pendigits", "redwine", "whitewine"):
            model = run_flow(dataset, "ours", fast_config()).design.model
            storage = SequentialSVMDesign(model, storage_style="mux").storage
            _assert_priced_like_the_reference(
                storage.coefficients, storage.bits_per_value
            )


class TestComparators:
    def test_magnitude_comparator_counts(self):
        block = magnitude_comparator(8, signed=False)
        assert block.counts["XNOR2"] == 8
        assert block.counts["AND2"] == 8

    def test_signed_comparator_has_sign_handling(self):
        signed = magnitude_comparator(8, signed=True)
        unsigned = magnitude_comparator(8, signed=False)
        assert signed.n_cells() > unsigned.n_cells()

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            magnitude_comparator(0)

    def test_argmax_tree_scales_with_classifiers(self):
        small = argmax_comparator_tree(3, 10, 2)
        large = argmax_comparator_tree(10, 10, 4)
        assert large.n_cells() > small.n_cells()

    def test_argmax_tree_single_value_free(self):
        assert argmax_comparator_tree(1, 10, 1).n_cells() == 0

    @pytest.mark.parametrize("width", [2, 3, 5])
    def test_gate_level_comparator_exhaustive(self, width):
        netlist = build_comparator_netlist(width)
        for a in range(1 << width):
            for b in range(1 << width):
                assert simulate_comparator(netlist, a, b, width) == (1 if a > b else 0)

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    @settings(max_examples=60, deadline=None)
    def test_gate_level_comparator_random_8bit(self, a, b):
        netlist = build_comparator_netlist(8)
        assert simulate_comparator(netlist, a, b, 8) == (1 if a > b else 0)


class TestRegistersAndCounters:
    def test_register_bank_counts(self):
        block = register_bank(10)
        assert block.counts["DFF"] == 10
        assert block.counts["MUX2"] == 10

    def test_register_without_enable(self):
        block = register_bank(10, with_enable=False)
        assert "MUX2" not in block.counts

    def test_counter_bits(self):
        assert counter_bits(1) == 1
        assert counter_bits(2) == 1
        assert counter_bits(3) == 2
        assert counter_bits(6) == 3
        assert counter_bits(10) == 4

    def test_counter_hardware_matches_bits(self):
        block = binary_counter(10)
        assert block.counts["DFF"] == 4

    def test_counter_is_tiny_compared_to_datapath(self):
        """The paper's control is a log2(n)-bit counter — a negligible block."""
        from repro.hw.rtl.multipliers import array_multiplier

        counter = binary_counter(10)
        one_multiplier = array_multiplier(4, 6)
        assert counter.n_cells() < one_multiplier.n_cells()

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            register_bank(0)
        with pytest.raises(ValueError):
            binary_counter(0)
        with pytest.raises(ValueError):
            counter_bits(0)
