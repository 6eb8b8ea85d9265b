"""The bit-parallel sequential engine: edge cases and oracle equivalence."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.hw.netlist import GateNetlist
from repro.hw.rtl.registers import build_counter_netlist
from repro.hw.rtl.svm_top import (
    build_sequential_svm_netlist,
    verify_sequential_svm_netlist,
)
from repro.hw.simulate import (
    SequentialDatapathSimulator,
    simulate_sequential_reference,
)
from repro.perf import engines
from repro.perf.bitsim import (
    BitParallelEvaluator,
    op_tuples,
    words_to_ints,
    words_to_signed_ints,
)
from repro.perf.seqsim import (
    SequentialEvaluator,
    compile_sequential,
    sequential_evaluator_for,
    simulate_sequential_batch,
)


def _shift_register(bits: int = 3) -> GateNetlist:
    """A serial-in shift register: input d, outputs every tap."""
    n = GateNetlist("shift")
    d = n.add_input("d")
    prev = d
    for i in range(bits):
        prev = n.add_dff(prev, f"t[{i}]", name=f"ff{i}")
        n.mark_output(prev)
    return n


class TestSequentialEngineBasics:
    def test_counter_counts_and_wraps(self):
        netlist = build_counter_netlist(3)
        trace = simulate_sequential_batch(netlist, np.zeros((2, 0)), cycles=20)
        values = [int(words_to_ints(trace[t], range(3))[0]) for t in range(20)]
        assert values == [t % 8 for t in range(20)]
        # Terminal count fires exactly at value 7.
        tc = [int(trace[t, 0, 3]) for t in range(20)]
        assert tc == [1 if t % 8 == 7 else 0 for t in range(20)]

    def test_shift_register_delays_input_stream(self):
        netlist = _shift_register(3)
        cycles, n_vectors = 10, 5
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 2, size=(cycles, n_vectors, 1))
        trace = simulate_sequential_batch(netlist, stream)
        for t in range(cycles):
            for tap in range(3):
                # Tap k shows the input from k+1 cycles ago (zeros before t=0).
                expected = (
                    stream[t - tap - 1, :, 0] if t - tap - 1 >= 0 else np.zeros(n_vectors)
                )
                assert np.array_equal(trace[t, :, tap], expected)

    def test_zero_cycle_run_returns_empty_trace(self):
        netlist = build_counter_netlist(2)
        trace = simulate_sequential_batch(netlist, np.zeros((4, 0)), cycles=0)
        assert trace.shape == (0, 4, 3)

    def test_empty_batch(self):
        netlist = _shift_register(2)
        trace = simulate_sequential_batch(
            netlist, np.zeros((0, 1), dtype=np.int64), cycles=6
        )
        assert trace.shape == (6, 0, 2)

    def test_negative_cycles_raise(self):
        netlist = build_counter_netlist(2)
        with pytest.raises(ValueError):
            simulate_sequential_batch(netlist, np.zeros((1, 0)), cycles=-1)

    def test_cycles_required_for_constant_inputs(self):
        netlist = _shift_register(2)
        with pytest.raises(ValueError):
            simulate_sequential_batch(netlist, np.zeros((1, 1)))

    def test_unbound_dff_raises(self):
        n = GateNetlist("open")
        n.declare_dff("q")
        n.mark_output("q")
        with pytest.raises(ValueError, match="unbound"):
            simulate_sequential_batch(n, np.zeros((1, 0)), cycles=1)


class TestDffInitAndReset:
    def test_declared_init_values_are_honoured(self):
        n = GateNetlist("init")
        q0 = n.declare_dff("q0", name="a", init=1)
        q1 = n.declare_dff("q1", name="b")  # powers on to 0
        n.bind_dff(q0, q0)  # hold registers
        n.bind_dff(q1, q1)
        n.mark_output(q0)
        n.mark_output(q1)
        trace = simulate_sequential_batch(n, np.zeros((3, 0)), cycles=4)
        assert np.array_equal(trace[:, :, 0], np.ones((4, 3)))
        assert np.array_equal(trace[:, :, 1], np.zeros((4, 3)))

    def test_init_override_by_name_net_vector_and_matrix(self):
        netlist = build_counter_netlist(3)
        start_5 = {"dff0": 1, "q[2]": 1}  # 0b101 via instance + Q-net keys
        trace = simulate_sequential_batch(
            netlist, np.zeros((1, 0)), cycles=3, init=start_5
        )
        assert [int(words_to_ints(trace[t], range(3))[0]) for t in range(3)] == [5, 6, 7]

        vec = simulate_sequential_batch(
            netlist, np.zeros((1, 0)), cycles=1, init=[0, 1, 1]
        )
        assert int(words_to_ints(vec[0], range(3))[0]) == 6

        per_vector = np.array([[1, 0, 0], [0, 0, 1]])
        both = simulate_sequential_batch(
            netlist, np.zeros((2, 0)), cycles=1, init=per_vector
        )
        assert list(words_to_ints(both[0], range(3))) == [1, 4]

    def test_unknown_init_key_raises(self):
        netlist = build_counter_netlist(2)
        with pytest.raises(KeyError):
            simulate_sequential_batch(
                netlist, np.zeros((1, 0)), cycles=1, init={"nope": 1}
            )

    def test_reference_walk_honours_init_too(self):
        netlist = build_counter_netlist(3)
        ref = simulate_sequential_reference(netlist, {}, 2, init={"dff1": 1})
        assert sum(int(ref[0][b]) << b for b in range(3)) == 2
        assert sum(int(ref[1][b]) << b for b in range(3)) == 3


def test_evaluator_construction_goes_through_the_engines_module(monkeypatch):
    """Building a SequentialEvaluator calls whatever
    ``repro.perf.engines.make_evaluator`` is at call time, so a wrapper
    installed there (a profiler, a span) sees the cone's kernel build."""
    calls = []
    original = engines.make_evaluator

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(engines, "make_evaluator", spy)
    SequentialEvaluator(compile_sequential(_shift_register()))
    assert len(calls) == 1


class TestFinalStateInputs:
    """``final_state`` checks its inputs exactly as ``run()`` does."""

    def _evaluator(self):
        return sequential_evaluator_for(_shift_register(2))  # 1 input, 2 flip-flops

    def test_stream_longer_than_cycles_raises(self):
        stream = np.zeros((5, 3, 1), dtype=np.int64)
        with pytest.raises(ValueError, match="provides 5 cycles, but cycles=3"):
            self._evaluator().final_state(stream, 3)

    def test_stream_shorter_than_cycles_raises(self):
        stream = np.zeros((2, 3, 1), dtype=np.int64)
        with pytest.raises(ValueError, match="provides 2 cycles, but cycles=4"):
            self._evaluator().final_state(stream, 4)

    def test_wrong_column_count_names_the_primary_inputs(self):
        with pytest.raises(ValueError, match=r"expected 1 input columns, got \(3, 2\)"):
            self._evaluator().final_state(np.zeros((3, 2), dtype=np.int64), 2)

    def test_negative_cycles_raise(self):
        with pytest.raises(ValueError, match="cycles must be >= 0"):
            self._evaluator().final_state(np.zeros((3, 1), dtype=np.int64), -1)

    def test_matching_stream_gives_the_last_taps(self):
        stream = np.array([[[1], [0]], [[0], [1]], [[1], [1]]])  # (3 cycles, 2, 1)
        state = self._evaluator().final_state(stream, 3)
        trace = self._evaluator().run(stream, cycles=3)
        # After three edges ff0 holds the last input and ff1 the one before.
        assert state.tolist() == [[1, 0], [1, 1]]
        assert np.array_equal(state[:, 1], trace[-1][:, 0])

    def test_netlist_without_flip_flops_has_an_empty_state(self):
        n = GateNetlist("comb")
        n.mark_output(n.add_gate("INV", [n.add_input("a")])[0])
        state = sequential_evaluator_for(n).final_state(np.ones((3, 1)), 2)
        assert state.shape == (3, 0)


class TestOnePassLowering:
    """At opt level 0 the clocked netlist is lowered directly, in one walk."""

    @staticmethod
    def _top():
        weights, biases, _ = TestSequentialSVMTop._model()
        return build_sequential_svm_netlist(weights, biases, input_bits=3)[0]

    def test_opt0_compile_builds_no_netlist_and_adds_no_gate(self, monkeypatch):
        top = self._top()
        built, added = [], []
        real_init, real_add = GateNetlist.__init__, GateNetlist.add_gate

        def init_spy(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        def add_spy(self, *args, **kwargs):
            added.append(1)
            return real_add(self, *args, **kwargs)

        monkeypatch.setattr(GateNetlist, "__init__", init_spy)
        monkeypatch.setattr(GateNetlist, "add_gate", add_spy)
        seq = compile_sequential(top, opt_level=0)
        assert built == [] and added == []
        assert seq.program.name == f"{top.name}__cone"
        # The optimizer's input is still a cone netlist: the spies see it.
        compile_sequential(top, opt_level=1)
        assert built and added

    def test_op_tuples_is_the_lowerers_list(self):
        program = compile_sequential(self._top()).program

        class NoReadBack(np.ndarray):
            def tolist(self):
                raise AssertionError("the op arrays were read back into tuples")

        spied = dataclasses.replace(
            program,
            opcodes=program.opcodes.view(NoReadBack),
            operands=program.operands.view(NoReadBack),
            dsts=program.dsts.view(NoReadBack),
        )
        assert op_tuples(spied) is program.ops
        BitParallelEvaluator(spied)  # builds its kernels from the same list
        assert program.ops == list(
            zip(
                program.opcodes.tolist(),
                *program.operands.T.tolist(),
                program.dsts.tolist(),
            )
        )

    def test_feedback_through_logic_raises(self):
        n = GateNetlist("loop")
        a = n.add_input("a")
        n.add_gate("INV", [a], outputs=["x"], name="g0")
        n.add_gate("BUF", ["x"], outputs=["y"], name="g1")
        n.mark_output("y")
        # Rewire g0 to read g1's output: a combinational loop no flip-flop cuts.
        n.gates[0].inputs = ("y",)
        n.note_structural_change()
        with pytest.raises(ValueError, match="no combinational driver"):
            compile_sequential(n)

    def test_multi_bit_flip_flop_is_not_supported(self):
        n = GateNetlist("wide")
        q = n.declare_dff("q", name="ff")
        n.bind_dff(q, n.add_input("d"))
        n.gates[0].inputs = ("d", "d")
        n.note_structural_change()
        with pytest.raises(NotImplementedError, match="1-bit D flip-flops"):
            compile_sequential(n)


class TestStructuralInvalidation:
    def test_mutation_recompiles_sequential_program(self):
        netlist = build_counter_netlist(2)
        first = compile_sequential(netlist)
        assert compile_sequential(netlist) is first  # cached
        evaluator = sequential_evaluator_for(netlist)
        assert sequential_evaluator_for(netlist) is evaluator

        # Append an observer gate: structure version moves, caches must miss.
        (inv,) = netlist.add_gate("INV", ["q[0]"], outputs=["nq0"])
        netlist.mark_output(inv)
        second = compile_sequential(netlist)
        assert second is not first
        assert sequential_evaluator_for(netlist) is not evaluator
        assert second.n_outputs == first.n_outputs + 1

    def test_note_structural_change_invalidates(self):
        netlist = build_counter_netlist(2)
        first = compile_sequential(netlist)
        netlist.note_structural_change()
        assert compile_sequential(netlist) is not first

    def test_bind_dff_moves_the_structure_version(self):
        n = GateNetlist("late")
        q = n.declare_dff("q")
        n.mark_output(q)
        before = n.structural_signature()
        n.bind_dff(q, GateNetlist.CONST_ONE)
        assert n.structural_signature() != before


class TestOracleEquivalence:
    @pytest.mark.parametrize("bits,cycles", [(1, 5), (4, 20)])
    def test_counter_matches_reference_per_cycle(self, bits, cycles):
        netlist = build_counter_netlist(bits)
        trace = simulate_sequential_batch(netlist, np.zeros((3, 0)), cycles=cycles)
        reference = simulate_sequential_reference(netlist, {}, cycles)
        for v in range(3):
            assert np.array_equal(trace[:, v, :], reference)

    def test_random_logic_matches_reference_per_cycle(self):
        rng = np.random.default_rng(7)
        netlist = _shift_register(4)
        vectors = rng.integers(0, 2, size=(70, 1))  # >64: spans two words
        trace = simulate_sequential_batch(netlist, vectors, cycles=6)
        for v in range(vectors.shape[0]):
            reference = simulate_sequential_reference(
                netlist, {"d": int(vectors[v, 0])}, 6
            )
            assert np.array_equal(trace[:, v, :], reference)

    def test_opt_level_is_cycle_exact(self):
        netlist = build_counter_netlist(4)
        raw = simulate_sequential_batch(netlist, np.zeros((2, 0)), cycles=18)
        opt = simulate_sequential_batch(
            netlist, np.zeros((2, 0)), cycles=18, opt_level=2
        )
        assert np.array_equal(raw, opt)


class TestSequentialSVMTop:
    @staticmethod
    def _model(seed: int = 3):
        """A 6-classifier, 5-feature model with 40 samples of 3-bit codes."""
        rng = np.random.default_rng(seed)
        weights = rng.integers(-15, 16, size=(6, 5))
        biases = rng.integers(-60, 61, size=6)
        codes = rng.integers(0, 8, size=(40, 5))
        return weights, biases, codes

    def test_gate_level_svm_matches_datapath_oracle_every_cycle(self):
        weights, biases, codes = self._model()
        top, ports = build_sequential_svm_netlist(weights, biases, input_bits=3)
        oracle = SequentialDatapathSimulator(weights, biases)
        assert verify_sequential_svm_netlist(top, ports, codes, oracle)
        assert verify_sequential_svm_netlist(top, ports, codes, oracle, opt_level=2)

    def test_oracle_of_another_class_count_is_rejected(self):
        weights = np.array([[1, -2], [3, 0], [-1, 1]])
        top, ports = build_sequential_svm_netlist(weights, np.zeros(3), input_bits=2)
        oracle = SequentialDatapathSimulator(weights[:2], np.zeros(2))
        with pytest.raises(ValueError, match="oracle has 2 classifiers"):
            verify_sequential_svm_netlist(top, ports, np.array([[1, 2]]), oracle)

    def test_predictions_match_run_batch(self):
        rng = np.random.default_rng(4)
        weights = rng.integers(-7, 8, size=(5, 3))
        biases = rng.integers(-20, 21, size=5)
        top, ports = build_sequential_svm_netlist(weights, biases, input_bits=2)
        codes = rng.integers(0, 4, size=(90, 3))
        trace = simulate_sequential_batch(
            top, ports.input_matrix(codes), cycles=ports.n_classifiers
        )
        predictions = words_to_ints(trace[-1], ports.pred_lanes())
        expected = SequentialDatapathSimulator(weights, biases).run_batch(codes)
        assert np.array_equal(predictions, expected)

    def test_signed_scores_decode_exactly(self):
        weights = np.array([[-3, 2], [1, -4]])
        biases = np.array([-5, 7])
        top, ports = build_sequential_svm_netlist(weights, biases, input_bits=2)
        codes = np.array([[3, 1], [0, 2]])
        trace = simulate_sequential_batch(
            top, ports.input_matrix(codes), cycles=2
        )
        oracle = SequentialDatapathSimulator(weights, biases)
        for s in range(codes.shape[0]):
            expected = [step.score for step in oracle.run(codes[s]).trace]
            got = [
                int(words_to_signed_ints(trace[t, s : s + 1], ports.score_lanes())[0])
                for t in range(2)
            ]
            assert got == expected

    def test_input_matrix_validates_range(self):
        top, ports = build_sequential_svm_netlist(
            np.array([[1, 1]]), np.array([0]), input_bits=2
        )
        with pytest.raises(ValueError):
            ports.input_matrix(np.array([[4, 0]]))  # 4 needs 3 bits
        with pytest.raises(ValueError):
            ports.input_matrix(np.array([[1, 2, 3]]))  # wrong feature count

    def test_oracle_with_a_higher_bias_is_caught(self):
        weights, biases, codes = self._model()
        top, ports = build_sequential_svm_netlist(weights, biases, input_bits=3)
        shifted = biases.copy()
        shifted[4] += 1
        oracle = SequentialDatapathSimulator(weights, shifted)
        assert not verify_sequential_svm_netlist(top, ports, codes, oracle)

    def test_oracle_with_swapped_weight_rows_is_caught(self):
        weights, biases, codes = self._model()
        assert not np.array_equal(weights[1], weights[2])
        top, ports = build_sequential_svm_netlist(weights, biases, input_bits=3)
        swapped = weights[[0, 2, 1, 3, 4, 5]]
        oracle = SequentialDatapathSimulator(swapped, biases)
        assert not verify_sequential_svm_netlist(top, ports, codes, oracle)

    def test_top_built_from_another_bias_is_caught(self):
        weights, biases, codes = self._model()
        other = biases.copy()
        other[2] -= 1
        top, ports = build_sequential_svm_netlist(weights, other, input_bits=3)
        oracle = SequentialDatapathSimulator(weights, biases)
        assert not verify_sequential_svm_netlist(top, ports, codes, oracle)
        assert not verify_sequential_svm_netlist(
            top, ports, codes, oracle, opt_level=2
        )

    def test_one_flipped_fired_bit_is_caught(self, monkeypatch):
        import repro.perf.seqsim as seqsim

        weights, biases, codes = self._model()
        top, ports = build_sequential_svm_netlist(weights, biases, input_bits=3)
        oracle = SequentialDatapathSimulator(weights, biases)
        assert verify_sequential_svm_netlist(top, ports, codes, oracle)
        real = seqsim.simulate_sequential_batch

        def one_bit_off(*args, **kwargs):
            trace = real(*args, **kwargs).copy()
            trace[3, 17, ports.fired_lane()] ^= 1
            return trace

        monkeypatch.setattr(seqsim, "simulate_sequential_batch", one_bit_off)
        assert not verify_sequential_svm_netlist(top, ports, codes, oracle)

    @pytest.mark.parametrize("engine", ["auto", "native"])
    def test_empty_batch_verifies(self, engine):
        weights, biases, codes = self._model()
        top, ports = build_sequential_svm_netlist(weights, biases, input_bits=3)
        assert ports.input_matrix(codes[:0]).shape == (0, 15)
        oracle = SequentialDatapathSimulator(weights, biases)
        assert verify_sequential_svm_netlist(
            top, ports, codes[:0], oracle, engine=engine
        )


class TestDesignIntegration:
    def test_design_gate_level_agrees_with_model(self):
        from repro.core.design_flow import fast_config, run_flow

        result = run_flow("redwine", "ours", fast_config(n_samples=150))
        design = result.design
        X = result.split.X_test[:25]
        assert design.verify_gate_level(X)
        gate_ids = design.simulate_gate_level(X)
        assert np.array_equal(gate_ids, design.simulate_batch(X))
        # The netlist is built once and cached on the design.
        assert design.gate_netlist()[0] is design.gate_netlist()[0]

    def test_verification_makes_no_scalar_run_call(
        self, sequential_design, small_split, monkeypatch
    ):
        calls = []
        real = SequentialDatapathSimulator.run

        def spy(self, input_codes):
            calls.append(1)
            return real(self, input_codes)

        monkeypatch.setattr(SequentialDatapathSimulator, "run", spy)
        assert sequential_design.verify_gate_level(small_split.X_test)
        assert calls == []

    @pytest.mark.parametrize("engine", ["auto", "native"])
    def test_empty_batch_verifies_and_simulates(
        self, sequential_design, small_split, engine
    ):
        empty = small_split.X_test[:0]
        assert sequential_design.verify_gate_level(empty, engine=engine)
        ids = sequential_design.simulate_gate_level(empty, engine=engine)
        assert ids.shape == (0,) and ids.dtype == np.int64
