"""The tiers of the ``auto`` engine: interpreted first, compiled once it pays.

``auto`` runs a slot tuple through :func:`~repro.perf.bitsim.interpret_kernel`
for its first :data:`~repro.perf.engines.TIER_UP_CALLS` bigint-domain calls
and compiles its kernel at the next one; a numpy-domain call compiles at
once.  The differential tests hold ``auto`` to the reference interpreter
(:class:`~repro.perf.bitsim.BitParallelEvaluator`) and to ``native`` on
every call from the first to two past the tier-up point, in both operand
domains, for the full state, for slot subsets, for per-cycle sequential
traces and after a structural mutation.  The spy tests pin down when a
kernel is compiled.

The hypothesis budget comes from the profile registered in
``tests/conftest.py``: small in tier-1, deeper under
``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import builtins

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.perf.engines as engines_mod
from repro.core.sequential_svm import SequentialSVMDesign
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
    interpret_kernel,
    op_tuples,
)
from repro.perf.compile import compile_netlist
from repro.perf.engines import (
    BIGINT_MAX_WORDS,
    TIER_UP_CALLS,
    available_engines,
    make_evaluator,
)
from repro.perf.seqsim import (
    SequentialEvaluator,
    compile_sequential,
    sequential_evaluator_for,
)
from test_engines import reference_sequential

#: Calls per differential run: two past the tier-up point.
CALLS = TIER_UP_CALLS + 2
#: One word, the widest bigint-domain row and the narrowest numpy-domain row.
WORDS = sorted({w for w in (1, BIGINT_MAX_WORDS, BIGINT_MAX_WORDS + 1) if w > 0})
#: The engines held to the reference interpreter (``native`` where a C
#: toolchain exists; its kernels compile once per structure and are cached).
ENGINE_NAMES = available_engines()


def _evaluators(program):
    """The reference interpreter (``"reference"``) and a fresh evaluator per engine."""
    return {
        "reference": BitParallelEvaluator(program),
        **{e: make_evaluator(program, e) for e in ENGINE_NAMES},
    }


def _sequential(seq, engine):
    """A sequential evaluator clocking ``seq`` on ``engine`` or the reference."""
    if engine == "reference":
        return reference_sequential(seq)
    return SequentialEvaluator(seq, engine)


def _shift_register() -> GateNetlist:
    shift = GateNetlist("shift")
    prev = shift.add_input("d")
    for i in range(3):
        prev = shift.add_dff(prev, f"t[{i}]", name=f"ff{i}")
        shift.mark_output(prev)
    return shift


def _svm_top() -> GateNetlist:
    rng = np.random.default_rng(11)
    weights = rng.integers(-7, 8, size=(4, 3))
    biases = rng.integers(-20, 21, size=4)
    return build_sequential_svm_netlist(weights, biases, input_bits=2)[0]


COMBINATIONAL = {
    "ripple_adder_cin": lambda: build_ripple_adder_netlist(4, with_carry_in=True),
    "array_multiplier_4x4": lambda: build_array_multiplier_netlist(4, 4),
    "mux_tree_8": lambda: build_mux_tree_netlist(8),
    "comparator_6b": lambda: build_comparator_netlist(6),
    "constant_mac": lambda: build_constant_mac_netlist([0, 3, 8, 5], 3),
}
SEQUENTIAL = {
    "counter_5b": lambda: build_counter_netlist(5),
    "shift_register_3": _shift_register,
    "svm_top_4x3": _svm_top,
}
#: Netlists the differential tests only read, built once per module.
_BUILT = {name: build() for name, build in {**COMBINATIONAL, **SEQUENTIAL}.items()}


def _random_words(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.integers(0, 2**64, size=shape, dtype=np.uint64)


def _compiled(evaluator, slots) -> bool:
    return tuple(int(s) for s in slots) in evaluator._kernels


def _assert_lockstep(evaluators, program, slots, rng, n_words, where):
    """CALLS calls on each evaluator, fresh inputs every call, equal rows.

    The full state (``evaluate_packed``) and a slot subset
    (``evaluate_packed_slots``) each cross ``auto``'s tier-up point; after
    every call ``auto`` has compiled a slot tuple exactly when it has run
    more than TIER_UP_CALLS bigint-domain calls, or any numpy-domain call.
    """
    auto = evaluators["auto"]
    full = tuple(range(program.n_slots))
    for call in range(1, CALLS + 1):
        packed = _random_words(rng, program.n_inputs, n_words)
        state = {e: ev.evaluate_packed(packed) for e, ev in evaluators.items()}
        rows = {e: ev.evaluate_packed_slots(packed, slots) for e, ev in evaluators.items()}
        for engine in ENGINE_NAMES:
            assert np.array_equal(state[engine], state["reference"]), (where, engine, call)
            assert np.array_equal(rows[engine], rows["reference"]), (where, engine, call)
        compiled = n_words > BIGINT_MAX_WORDS or call > TIER_UP_CALLS
        assert _compiled(auto, full) == compiled, (where, call)
        if tuple(slots) != full:
            assert _compiled(auto, slots) == compiled, (where, call)


class TestDifferential:
    @given(
        name=st.sampled_from(sorted(COMBINATIONAL)),
        opt_level=st.sampled_from([0, 2]),
        n_words=st.sampled_from(WORDS),
        data=st.data(),
    )
    def test_auto_matches_reference_interpreter_across_tier_up(
        self, name, opt_level, n_words, data
    ):
        program = compile_netlist(_BUILT[name], opt_level=opt_level)
        slots = data.draw(
            st.lists(st.integers(0, program.n_slots - 1), max_size=8), label="slots"
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        _assert_lockstep(_evaluators(program), program, slots, rng, n_words, name)

    @given(
        name=st.sampled_from(sorted(SEQUENTIAL)),
        opt_level=st.sampled_from([0, 2]),
        n_words=st.sampled_from(WORDS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_auto_sequential_trace_matches_every_cycle(
        self, name, opt_level, n_words, seed
    ):
        """One run clocks the cone CALLS times, so the trace crosses the
        tier-up point at cycle TIER_UP_CALLS + 1."""
        seq = compile_sequential(_BUILT[name], opt_level=opt_level)
        rng = np.random.default_rng(seed)
        stream = _random_words(rng, CALLS, seq.n_inputs, n_words)
        start = _random_words(rng, seq.n_state, n_words)
        runs = {
            e: _sequential(seq, e).run_packed(stream, CALLS, start)
            for e in ("reference", *ENGINE_NAMES)
        }
        trace, final = runs["reference"]
        for engine in ENGINE_NAMES:
            for cycle in range(CALLS):
                assert np.array_equal(runs[engine][0][cycle], trace[cycle]), (
                    name,
                    engine,
                    cycle,
                )
            assert np.array_equal(runs[engine][1], final), (name, engine)

    @given(
        name=st.sampled_from(sorted(COMBINATIONAL)),
        n_words=st.sampled_from(WORDS),
        data=st.data(),
    )
    def test_auto_after_structural_mutation(self, name, n_words, data):
        """A same-size in-place rewrite (one pin rewired to a primary input
        or a constant) retires the tiered evaluator; its replacement starts
        interpreted again and crosses the tier-up point bit-exact against
        the new structure."""
        netlist = COMBINATIONAL[name]()
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        before = {e: evaluator_for(netlist, engine=e) for e in ENGINE_NAMES}
        before["reference"] = BitParallelEvaluator(before["auto"].program)
        _assert_lockstep(before, before["auto"].program, [], rng, n_words, name)
        gate = data.draw(st.sampled_from(netlist.gates), label="gate")
        pin = data.draw(st.integers(0, len(gate.inputs) - 1), label="pin")
        sources = [*netlist.inputs, GateNetlist.CONST_ZERO, GateNetlist.CONST_ONE]
        net = data.draw(st.sampled_from(sources), label="net")
        gate.inputs = gate.inputs[:pin] + (net,) + gate.inputs[pin + 1 :]
        netlist.note_structural_change()
        after = {e: evaluator_for(netlist, engine=e) for e in ENGINE_NAMES}
        assert after["auto"] is not before["auto"]
        assert after["auto"]._kernels == {} and after["auto"]._interpreted == {}
        program = after["auto"].program
        after["reference"] = BitParallelEvaluator(program)
        _assert_lockstep(after, program, program.output_slots, rng, n_words, name)


def test_interpreted_kernel_is_domain_neutral():
    """The interpreted tier gives the compiled kernel's bits on whole-row
    bigints and on numpy rows alike, like the generated source."""
    seq = compile_sequential(_BUILT["svm_top_4x3"])
    program = seq.program
    slots = [*seq.output_slots.tolist(), *seq.next_state_slots.tolist()]
    interpreted = interpret_kernel(program, op_tuples(program), slots)
    compiled = make_evaluator(program, "auto")
    compiled._kernel_for(tuple(slots))
    kernel = compiled._kernels[tuple(slots)]
    rng = np.random.default_rng(5)
    rows = _random_words(rng, program.n_inputs, 3)
    ones = np.full(3, np.iinfo(np.uint64).max, dtype=np.uint64)
    zeros = np.zeros(3, dtype=np.uint64)
    numpy_out = interpreted(rows, zeros, ones)
    assert all(np.array_equal(x, y) for x, y in zip(numpy_out, kernel(rows, zeros, ones)))
    as_ints = [int.from_bytes(r.astype("<u8").tobytes(), "little") for r in rows]
    bigint_out = interpreted(as_ints, 0, (1 << 192) - 1)
    assert bigint_out == kernel(as_ints, 0, (1 << 192) - 1)
    assert [int.from_bytes(x.astype("<u8").tobytes(), "little") for x in numpy_out] == list(
        bigint_out
    )


class TestCompileSpies:
    @pytest.fixture()
    def compiles(self, monkeypatch):
        """Every ``compile()`` the engines module makes, by filename."""
        calls = []

        def spy(source, filename, *args, **kwargs):
            calls.append(filename)
            return builtins.compile(source, filename, *args, **kwargs)

        monkeypatch.setattr(engines_mod, "compile", spy, raising=False)
        return calls

    def test_tier_up_call_compiles_exactly_one_kernel(self, compiles):
        program = compile_netlist(build_array_multiplier_netlist(4, 4))
        auto = make_evaluator(program, "auto")
        packed = _random_words(np.random.default_rng(0), program.n_inputs, 2)
        slots = program.output_slots
        for _ in range(TIER_UP_CALLS):
            auto.evaluate_packed_slots(packed, slots)
        assert compiles == [] and auto._kernels == {}
        auto.evaluate_packed_slots(packed, slots)
        assert len(compiles) == 1 and list(auto._kernels) == [tuple(slots.tolist())]
        assert auto._interpreted == {} and auto._calls == {}
        for _ in range(3):
            auto.evaluate_packed_slots(packed, slots)
        assert len(compiles) == 1

    def test_kernel_source_compiles_at_first_use(self, compiles):
        program = compile_netlist(build_array_multiplier_netlist(4, 4))
        auto = make_evaluator(program, "auto")
        assert "def _kernel(" in auto.kernel_source(program.output_slots)
        assert len(compiles) == 1 and len(auto._kernels) == 1

    def test_numpy_domain_call_compiles_at_once(self, compiles):
        program = compile_netlist(build_array_multiplier_netlist(4, 4))
        auto = make_evaluator(program, "auto")
        wide = _random_words(np.random.default_rng(2), program.n_inputs, BIGINT_MAX_WORDS + 1)
        auto.evaluate_packed_slots(wide, program.output_slots)
        assert len(compiles) == 1 and len(auto._kernels) == 1

    def test_gate_level_verification_compiles_nothing(
        self, compiles, quantized_ovr, small_split
    ):
        design = SequentialSVMDesign(quantized_ovr, dataset="tiers")
        assert design.verify_gate_level(small_split.X_test, engine="auto")
        netlist, _ = design.gate_netlist()
        cone = sequential_evaluator_for(netlist, design.library, engine="auto")._cone
        assert compiles == []
        assert cone._kernels == {}
        assert list(cone._calls.values()) == [design.n_classifiers]
