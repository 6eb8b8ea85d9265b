"""Contract 3 on generated netlists: the gate walk is the oracle.

Every netlist drawn by the combinational strategy of
``tests/hw/test_opt_generated.py`` (every non-sequential generic cell, tied
constants, repeated pins, constant and input outputs) is walked gate by gate
with :func:`~repro.hw.simulate.simulate_combinational_reference` over every
input combination.  At opt levels 0-2 its compiled program must give the
walk's bits on:

* the reference interpreter, packed and one vector at a time
  (:meth:`~repro.perf.bitsim.BitParallelEvaluator.evaluate_single`);
* ``auto`` on both sides of its tier-up point, in the bigint domain;
* ``auto`` in the numpy domain (``BIGINT_MAX_WORDS`` lowered to 0);
* ``native`` where a C toolchain exists.

At level 0 every named net is compared, so a wrong op shows even where it
does not reach a port; the optimized levels compare the ports, which keep
their names.  The vectors repeat the input combinations to 130, so every
packed row spans three words with a ragged tail.  The hypothesis budget
comes from the profile registered in ``tests/conftest.py``: small in
tier-1, deeper under ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given

import repro.perf.engines as engines_mod
from repro.hw.simulate import simulate_combinational_reference
from repro.perf.bitsim import BitParallelEvaluator, pack_vectors, unpack_vectors
from repro.perf.compile import compile_netlist
from repro.perf.engines import TIER_UP_CALLS, make_evaluator
from repro.toolchain import native_available
from test_opt_generated import combinational_netlists

N_VECTORS = 130


@given(combinational_netlists())
def test_engines_match_the_gate_walk(raw):
    combos = np.array(list(itertools.product((0, 1), repeat=len(raw.inputs))))
    walks = [
        simulate_combinational_reference(raw, dict(zip(raw.inputs, row.tolist())))
        for row in combos
    ]
    picks = np.arange(N_VECTORS) % len(combos)
    packed, _ = pack_vectors(combos[picks])
    for level in (0, 1, 2):
        program = compile_netlist(raw, opt_level=level)
        nets = list(program.net_slots) if level == 0 else list(raw.outputs)
        slots = tuple(program.net_slots[net] for net in nets)
        expected = np.array([[walk[net] for net in nets] for walk in walks])[picks]

        def check(evaluator, where):
            rows = evaluator.evaluate_packed_slots(packed, slots)
            assert np.array_equal(unpack_vectors(rows, N_VECTORS), expected), (
                level,
                where,
            )

        reference = BitParallelEvaluator(program)
        check(reference, "reference")
        for row, walk in zip(combos, walks):
            state = reference.evaluate_single(row.tolist())
            assert [state[s] for s in slots] == [walk[n] for n in nets], (level, row)

        auto = make_evaluator(program, "auto")
        for call in range(1, TIER_UP_CALLS + 2):
            check(auto, f"auto call {call}")
            assert (slots in auto._kernels) == (call > TIER_UP_CALLS), (level, call)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engines_mod, "BIGINT_MAX_WORDS", 0)
            numpy_domain = make_evaluator(program, "auto")
            check(numpy_domain, "auto numpy domain")
            assert slots in numpy_domain._kernels, level
        if native_available():
            check(make_evaluator(program, "native"), "native")
