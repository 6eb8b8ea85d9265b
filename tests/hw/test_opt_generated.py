"""The optimizer on generated combinational netlists.

Hypothesis draws random netlists over every combinational cell of the
generic cell set, the opaque ``ADC1`` included (no ``DFF``).  A pin reads a
primary input, an earlier gate's output, a pin the gate already reads, or a
tied constant, so repeated nets and every constant-pin shape that constant
propagation folds occur; outputs may be constants or primary inputs.  At
levels 1 and 2 the optimized netlist must keep the port interface, keep every
``ADC1`` that drives a primary output, and match the raw netlist on random
vectors.  Optimizing it again must leave its gate count unchanged: one sweep
already reaches the fixpoint of its rewrites.

The hypothesis budget comes from the profile registered in
``tests/conftest.py``: small in tier-1, deeper under
``--hypothesis-profile=ci``.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.hw.cells import GENERIC_CELL_SET
from repro.hw.netlist import GateNetlist
from repro.hw.opt import check_equivalence, optimize

#: (name, n_inputs) of every combinational cell.
CELLS = sorted(
    (name, n_in)
    for name, (n_in, _, _, is_sequential, _) in GENERIC_CELL_SET.items()
    if not is_sequential
)
CONSTANTS = [GateNetlist.CONST_ZERO, GateNetlist.CONST_ONE]


@st.composite
def combinational_netlists(draw) -> GateNetlist:
    """A well-formed netlist of 1-4 inputs, 1-24 gates and 1-4 outputs."""
    netlist = GateNetlist("generated")
    nets = [netlist.add_input(f"i{k}") for k in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(1, 24))):
        cell, n_inputs = draw(st.sampled_from(CELLS))
        pins = []
        for _ in range(n_inputs):
            source = draw(st.sampled_from(("net", "net", "constant", "repeat")))
            if source == "constant":
                pins.append(draw(st.sampled_from(CONSTANTS)))
            elif source == "repeat" and pins:
                pins.append(draw(st.sampled_from(pins)))
            else:
                pins.append(draw(st.sampled_from(nets)))
        nets.extend(netlist.add_gate(cell, pins))
    for net in draw(st.lists(st.sampled_from(nets + CONSTANTS), min_size=1, max_size=4)):
        netlist.mark_output(net)
    return netlist


@given(combinational_netlists())
def test_optimized_netlist_is_equivalent(raw):
    observed_adcs = {
        gate.name
        for gate in raw.gates
        if gate.cell == "ADC1" and gate.outputs[0] in raw.outputs
    }
    for level in (1, 2):
        optimized = optimize(raw, level=level).netlist
        assert optimized.inputs == raw.inputs
        assert optimized.outputs == raw.outputs
        assert observed_adcs <= {
            gate.name for gate in optimized.gates if gate.cell == "ADC1"
        }
        assert check_equivalence(raw, optimized)


def assert_idempotent(raw: GateNetlist) -> None:
    """At levels 1 and 2, a second optimization removes no further gate."""
    for level in (1, 2):
        optimized = optimize(raw, level=level).netlist
        again = optimize(optimized, level=level).stats
        assert again.gates_after == optimized.n_gates(), level


@given(combinational_netlists())
def test_a_second_optimization_changes_nothing(raw):
    assert_idempotent(raw)
