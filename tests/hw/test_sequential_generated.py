"""The sequential engine on generated clocked netlists with DFF feedback.

Hypothesis draws clocked netlists over every combinational cell of the
generic cell set: flip-flops are declared among the gates (so logic reads
their Q nets before their D pins exist) and bound after all the logic, each
D pin to a gate output, a constant, a primary input or a Q net (its own Q
included); ``dff_init`` is random, and outputs may be constants, inputs or Q
nets.  The vectors enumerate every combination of input bits and power-on
state (repeated to 130, so every packed row spans three words), passed as a
per-vector ``init`` matrix.

The interpreted walk :func:`~repro.hw.simulate.simulate_sequential_reference`
is the oracle.  At opt levels 0-2, :func:`simulate_sequential_batch` must
match it on every cycle, with the per-vector ``init`` and with the netlist's
own ``dff_init``, and :meth:`~repro.perf.seqsim.SequentialEvaluator.final_state`
must equal the Q values the walk shows one cycle later.  The cone runs on
``auto`` on both sides of its tier-up point, in the numpy domain
(``BIGINT_MAX_WORDS`` lowered to 0) and on ``native`` where a C toolchain
exists.  At level 0 the one-pass program must equal, field for field, the
program of the cone netlist that level 1 and 2 optimize.

:func:`~repro.hw.opt.optimize` also runs on the clocked netlists themselves,
flip-flops and feedback included: at levels 1 and 2 the optimized netlist
keeps the port interface, matches the raw one cycle by cycle on random
vectors, and a second optimization removes no further gate.

The hypothesis budget comes from the profile registered in
``tests/conftest.py``: small in tier-1, deeper under
``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import copy
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.perf.engines as engines_mod
from repro.hw.netlist import GateNetlist
from repro.hw.opt import check_equivalence, optimize
from repro.hw.pdk import EGFET_PDK
from repro.hw.simulate import simulate_sequential_reference
from repro.perf.compile import compile_netlist
from repro.perf.seqsim import (
    SequentialEvaluator,
    _build_cone,
    compile_sequential,
    simulate_sequential_batch,
)
from repro.toolchain import native_available
from test_opt_generated import CELLS, CONSTANTS, assert_idempotent

N_VECTORS = 130


@st.composite
def clocked_netlists(draw) -> GateNetlist:
    """0-3 inputs, 1-4 flip-flops among 1-20 gates, 1-4 outputs."""
    netlist = GateNetlist("clocked")
    inputs = [netlist.add_input(f"i{k}") for k in range(draw(st.integers(0, 3)))]
    nets = list(inputs)
    qs = []
    steps = ["dff"] * draw(st.integers(1, 4)) + ["gate"] * draw(st.integers(1, 20))
    for step in draw(st.permutations(steps)):
        if step == "dff":
            k = len(qs)
            qs.append(
                netlist.declare_dff(f"q{k}", name=f"ff{k}", init=draw(st.integers(0, 1)))
            )
            nets.append(qs[-1])
            continue
        cell, n_inputs = draw(st.sampled_from(CELLS))
        pins = []
        for _ in range(n_inputs):
            source = draw(st.sampled_from(("net", "net", "constant", "repeat")))
            if source == "constant":
                pins.append(draw(st.sampled_from(CONSTANTS)))
            elif source == "repeat" and pins:
                pins.append(draw(st.sampled_from(pins)))
            else:
                pins.append(draw(st.sampled_from(nets or CONSTANTS)))
        nets.extend(netlist.add_gate(cell, pins))
    logic = [net for net in nets if net not in inputs and net not in qs]
    for q in qs:
        source = draw(st.sampled_from(("logic", "logic", "constant", "input", "q")))
        if source == "logic" and logic:
            d = draw(st.sampled_from(logic))
        elif source == "input" and inputs:
            d = draw(st.sampled_from(inputs))
        elif source == "q":
            d = draw(st.sampled_from(qs))
        else:
            d = draw(st.sampled_from(CONSTANTS))
        netlist.bind_dff(q, d)
    for net in draw(st.lists(st.sampled_from(nets + CONSTANTS), min_size=1, max_size=4)):
        netlist.mark_output(net)
    return netlist


def _fields(program):
    """Every field of a compiled program, arrays with their dtype and shape."""
    fields = dict(vars(program))
    for name in ("opcodes", "operands", "dsts", "input_slots", "output_slots"):
        array = fields[name]
        fields[name] = (array.dtype.str, array.shape, array.tolist())
    fields["net_slots"] = list(program.net_slots.items())
    return fields


@given(clocked_netlists(), st.integers(0, 5))
def test_sequential_engines_match_the_reference_walk(netlist, cycles):
    n_inputs = len(netlist.inputs)
    state_names = [g.name for g in netlist.sequential_gates()]
    q_nets = [g.outputs[0] for g in netlist.sequential_gates()]
    combos = np.array(
        list(itertools.product((0, 1), repeat=n_inputs + len(state_names))),
        dtype=np.int64,
    )
    picks = np.arange(N_VECTORS) % len(combos)
    inputs, init = combos[picks, :n_inputs], combos[picks, n_inputs:]

    # The walk, one cycle longer and with every Q net observable, so the
    # state after `cycles` edges is the Q values it shows in cycle `cycles`.
    observed = copy.deepcopy(netlist)
    for q in q_nets:
        observed.mark_output(q)
    out_cols = [observed.outputs.index(net) for net in netlist.outputs]
    q_cols = [observed.outputs.index(q) for q in q_nets]
    walks = [
        simulate_sequential_reference(
            observed,
            dict(zip(netlist.inputs, row[:n_inputs].tolist())),
            cycles + 1,
            init=dict(zip(state_names, row[n_inputs:].tolist())),
        )
        for row in combos
    ]
    expected_trace = np.stack([walk[:cycles, out_cols] for walk in walks])[picks]
    expected_state = np.stack([walk[cycles, q_cols] for walk in walks])[picks]
    expected_trace = expected_trace.transpose(1, 0, 2)
    input_combos = np.array(list(itertools.product((0, 1), repeat=n_inputs)))
    power_on = {
        tuple(row): simulate_sequential_reference(
            netlist, dict(zip(netlist.inputs, row)), cycles
        )
        for row in input_combos.tolist()
    }
    expected_power_on = np.stack(
        [power_on[tuple(row)] for row in inputs.tolist()], axis=1
    )

    for level in (0, 1, 2):
        seq = compile_sequential(netlist, opt_level=level)
        if level == 0:
            cone = compile_netlist(_build_cone(netlist, EGFET_PDK)[0])
            assert _fields(seq.program) == _fields(cone)

        def check(evaluator, where):
            trace = evaluator.run(inputs, cycles=cycles, init=init)
            assert np.array_equal(trace, expected_trace), (level, where)
            state = evaluator.final_state(inputs, cycles, init=init)
            assert np.array_equal(state, expected_state), (level, where)

        held = simulate_sequential_batch(netlist, inputs, cycles=cycles, opt_level=level)
        assert np.array_equal(held, expected_power_on), level

        # One cone call per cycle: a check's 2 * cycles calls stay below
        # the tier-up point, and the runs after it cross it.
        auto = SequentialEvaluator(seq, "auto")
        slots = auto._result_slots
        check(auto, "auto, interpreted")
        assert slots not in auto._cone._kernels, level
        if cycles:
            while slots not in auto._cone._kernels:
                auto.run(inputs, cycles=cycles, init=init)
            assert auto._cone._calls.get(slots) is None, level
            check(auto, "auto, compiled")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engines_mod, "BIGINT_MAX_WORDS", 0)
            check(SequentialEvaluator(seq, "auto"), "auto numpy domain")
        if native_available():
            check(SequentialEvaluator(seq, "native"), "native")


@given(clocked_netlists())
def test_optimizer_on_clocked_netlists(raw):
    for level in (1, 2):
        optimized = optimize(raw, level=level).netlist
        assert optimized.inputs == raw.inputs
        assert optimized.outputs == raw.outputs
        assert check_equivalence(raw, optimized), level
    assert_idempotent(raw)
