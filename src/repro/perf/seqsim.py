"""Bit-parallel *sequential* (multi-cycle) simulation of clocked netlists.

The combinational engine (:mod:`repro.perf.compile` / :mod:`repro.perf.bitsim`)
lowers a netlist once into a flat numpy program and evaluates 64 packed test
vectors per ``uint64`` word.  This module extends that strategy to netlists
with real D flip-flops (built through the
:meth:`~repro.hw.netlist.GateNetlist.declare_dff` /
:meth:`~repro.hw.netlist.GateNetlist.bind_dff` feedback API):

1. **Register-boundary split** — :func:`compile_sequential` cuts the gate
   graph at the flip-flops into one purely combinational *cone* program:
   every Q output becomes an extra input, every D input an extra output.
   At ``opt_level=0`` the shared lowerer
   (:func:`~repro.perf.compile.lower_gates`) builds that program in one
   walk over the clocked netlist's gates, skipping the flip-flops; at
   ``opt_level > 0`` the logic is first copied into a cone netlist, so the
   :mod:`repro.hw.opt` optimizer works on exactly the combinational regions
   between register barriers.
2. **Stateful evaluation** — :class:`SequentialEvaluator` keeps one packed
   ``uint64`` word row per flip-flop and clocks all 64 vectors per word
   through ``N`` cycles: each cycle is one call of the cone's engine for
   the output and next-state slots, followed by a vectorized state update
   ``Q <- D``.  Power-on values come from
   :attr:`~repro.hw.netlist.GateNetlist.dff_init` (overridable per run,
   even per vector).

Cycle semantics match the interpreted oracle
(:func:`repro.hw.simulate.simulate_sequential_reference`): the outputs
recorded for cycle ``t`` are the combinational values seen *during* that
cycle (computed from the state after ``t`` clock edges), and the state
update happens at the end of the cycle.

Typical use::

    netlist = build_counter_netlist(4)
    trace = simulate_sequential_batch(netlist, inputs, cycles=10)
    trace.shape                         # (10, n_vectors, n_outputs)

Programs are cached on the netlist per (library, structure version,
opt level) exactly like the combinational ones, so any structural mutation
— growth, :meth:`~repro.hw.netlist.GateNetlist.bind_dff`, or an in-place
rewrite announced via
:meth:`~repro.hw.netlist.GateNetlist.note_structural_change` — recompiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.hw.cells import CellLibrary
from repro.hw.netlist import GateNetlist
from repro.hw.pdk import EGFET_PDK
from repro.perf.bitsim import pack_vectors, unpack_vectors
from repro.perf.compile import CompiledProgram, compile_netlist, lower_gates
from repro.perf import engines
from repro.perf.engines import resolve_engine


@dataclass
class SequentialProgram:
    """A clocked netlist split at its registers and lowered to one cone program.

    Attributes
    ----------
    name:
        Name of the source netlist.
    program:
        The compiled combinational cone: inputs are the primary inputs
        followed by one Q net per flip-flop, outputs the primary outputs.
    input_names / output_names:
        The *primary* ports of the source netlist (the cone's extra state
        ports are internal to the engine).
    state_names:
        Flip-flop instance names, in declaration order — the state vector
        layout every ``init`` argument and state array uses.
    q_nets / d_nets:
        The Q output net and (resolved) D input net of each flip-flop.
    state_slots / next_state_slots:
        Cone-program slots holding each flip-flop's current value (a cone
        input) and next value (the net feeding its D pin).
    init_bits:
        Power-on value per flip-flop from the netlist's ``dff_init``.

    Example::

        seq = compile_sequential(build_counter_netlist(3))
        seq.n_state, seq.program.n_ops      # 3 flip-flops, flat op count
    """

    name: str
    program: CompiledProgram
    input_names: List[str]
    output_names: List[str]
    state_names: List[str]
    q_nets: List[str]
    d_nets: List[str]
    state_slots: np.ndarray
    next_state_slots: np.ndarray
    output_slots: np.ndarray
    init_bits: np.ndarray

    @property
    def n_state(self) -> int:
        return len(self.state_names)

    @property
    def n_inputs(self) -> int:
        return len(self.input_names)

    @property
    def n_outputs(self) -> int:
        return len(self.output_names)


def _split_registers(
    netlist: GateNetlist, library: CellLibrary
) -> "tuple[list, list, list]":
    """The flip-flops of a clocked netlist: ``(state_names, q_nets, d_nets)``.

    In declaration order.  Raises if a flip-flop is unbound or is not a
    1-bit D flip-flop.
    """
    sequential = netlist.sequential_gates(library)
    unbound = [g.name for g in sequential if not g.inputs]
    if unbound:
        raise ValueError(
            f"netlist {netlist.name!r} has unbound flip-flops {unbound}; "
            "call bind_dff before simulating"
        )
    for gate in sequential:
        if len(gate.inputs) != 1 or len(gate.outputs) != 1:
            raise NotImplementedError(
                f"sequential cell {gate.cell!r} with {len(gate.inputs)} inputs "
                "is not supported; only 1-bit D flip-flops clock state"
            )
    return (
        [g.name for g in sequential],
        [g.outputs[0] for g in sequential],
        [g.inputs[0] for g in sequential],
    )


def _cone_outputs(
    netlist: GateNetlist, q_nets: List[str], d_nets: List[str]
) -> List[str]:
    """The cone's outputs: the primary outputs, then every D net fed by logic.

    D nets fed by combinational logic must be observable cone outputs so
    the optimizer cannot fold them away; constants, primary inputs and Q
    nets always keep a slot of their own.
    """
    outputs = list(dict.fromkeys(netlist.outputs))
    own_slot = {GateNetlist.CONST_ZERO, GateNetlist.CONST_ONE}
    own_slot.update(netlist.inputs, q_nets, outputs)
    for d in d_nets:
        if d not in own_slot:
            outputs.append(d)
            own_slot.add(d)
    return outputs


def _build_cone(
    netlist: GateNetlist, library: CellLibrary
) -> "tuple[GateNetlist, list, list, list]":
    """Copy a clocked netlist's logic into a combinational cone netlist.

    Returns ``(cone, state_names, q_nets, d_nets)``.  The cone's inputs are
    the primary inputs plus every Q net; its outputs the primary outputs
    plus every internally-driven D net (so the D slots survive the
    optimizer, which preserves primary ports by name).  Only
    ``opt_level > 0`` builds it, as the optimizer's input: at level 0
    :func:`compile_sequential` lowers the same cone straight from the
    clocked netlist.
    """
    state_names, q_nets, d_nets = _split_registers(netlist, library)
    cone = GateNetlist(name=f"{netlist.name}__cone")
    for net in [*netlist.inputs, *q_nets]:
        cone.add_input(net)
    for gate in netlist.gates:
        if not library[gate.cell].is_sequential:
            cone.add_gate(gate.cell, gate.inputs, outputs=gate.outputs, name=gate.name)
    for net in _cone_outputs(netlist, q_nets, d_nets):
        cone.mark_output(net)
    return cone, state_names, q_nets, d_nets


def compile_sequential(
    netlist: GateNetlist,
    library: Optional[CellLibrary] = None,
    opt_level: int = 0,
) -> SequentialProgram:
    """Compile a clocked netlist into a :class:`SequentialProgram` (cached).

    The cache lives on the netlist instance, keyed like the combinational
    compile cache (library identity, structural signature, ``opt_level``),
    so growing the netlist, binding a flip-flop or announcing an in-place
    rewrite recompiles automatically.

    At ``opt_level=0`` the netlist is lowered in one walk over its gates
    (:func:`~repro.perf.compile.lower_gates` with ``clocked=True``):
    flip-flops are skipped and their Q nets take the input slots right after
    the primary inputs, so no cone netlist is built.  ``opt_level > 0``
    copies the logic into a cone netlist (:func:`_build_cone`) and runs the
    :mod:`repro.hw.opt` optimizer over it, the combinational regions
    between the register barriers (the registers themselves are never
    touched).  Both give the program the name ``<netlist>__cone``.

    Example::

        seq = compile_sequential(build_counter_netlist(4), opt_level=2)
        SequentialEvaluator(seq).run(np.zeros((1, 0), dtype=np.int64), 5)
    """
    library = library or EGFET_PDK
    signature = netlist.structural_signature()
    cache = getattr(netlist, "_seqsim_program_cache", None)
    if cache is None:
        cache = {}
        netlist._seqsim_program_cache = cache
    key = (id(library), signature, int(opt_level))
    cached = cache.get(key)
    if cached is not None and cached[0] is library:
        return cached[1]

    if opt_level > 0:
        cone, state_names, q_nets, d_nets = _build_cone(netlist, library)
        program = compile_netlist(cone, library, opt_level=opt_level)
    else:
        state_names, q_nets, d_nets = _split_registers(netlist, library)
        program = lower_gates(
            f"{netlist.name}__cone",
            [*netlist.inputs, *q_nets],
            netlist.gates,
            _cone_outputs(netlist, q_nets, d_nets),
            library,
            clocked=True,
        )
    slots = program.net_slots
    seq = SequentialProgram(
        name=netlist.name,
        program=program,
        input_names=list(netlist.inputs),
        output_names=list(netlist.outputs),
        state_names=state_names,
        q_nets=q_nets,
        d_nets=d_nets,
        state_slots=np.asarray([slots[q] for q in q_nets], dtype=np.int64),
        next_state_slots=np.asarray([slots[d] for d in d_nets], dtype=np.int64),
        output_slots=np.asarray([slots[n] for n in netlist.outputs], dtype=np.int64),
        init_bits=np.asarray(
            [int(netlist.dff_init.get(name, 0)) & 1 for name in state_names],
            dtype=np.uint64,
        ),
    )
    for stale in [k for k in cache if k[1] != signature]:
        del cache[stale]
    cache[key] = (library, seq)
    return seq


InitSpec = Union[None, Dict[str, int], Sequence[int], np.ndarray]


class SequentialEvaluator:
    """Clocks a :class:`SequentialProgram` over packed ``uint64`` vector words.

    ``engine`` selects the execution backend for the per-cycle cone
    (:mod:`repro.perf.engines`); under ``'auto'`` the cone runs interpreted
    for its first calls and is compiled once it has clocked enough cycles
    to pay for the compile — a verification's few cycles never do.

    Example::

        evaluator = sequential_evaluator_for(netlist)
        trace = evaluator.run(input_bits, cycles=8)   # (8, n_vectors, n_outputs)
    """

    def __init__(self, seq: SequentialProgram, engine: str = "auto") -> None:
        self.seq = seq
        # Looked up through the module at call time, so a wrapper on
        # engines.make_evaluator sees every evaluator built here.
        self._cone = engines.make_evaluator(seq.program, engine)
        self.engine = self._cone.engine
        # One kernel request per cycle: outputs and next state together.
        self._result_slots = tuple(
            int(s) for s in np.concatenate([seq.output_slots, seq.next_state_slots])
        )

    # ------------------------------------------------------------------ #
    def _init_words(self, init: InitSpec, n_vectors: int, n_words: int) -> np.ndarray:
        """Packed ``(n_state, n_words)`` power-on state for a run."""
        seq = self.seq
        bits = seq.init_bits.copy()
        if isinstance(init, dict):
            by_q = dict(zip(seq.q_nets, range(seq.n_state)))
            by_name = dict(zip(seq.state_names, range(seq.n_state)))
            for key, value in init.items():
                index = by_name.get(key, by_q.get(key))
                if index is None:
                    raise KeyError(
                        f"unknown flip-flop {key!r}; use an instance name "
                        f"{seq.state_names} or a Q net {seq.q_nets}"
                    )
                bits[index] = int(value) & 1
        elif init is not None:
            array = np.asarray(init)
            if array.shape == (n_vectors, seq.n_state):
                packed, _ = pack_vectors(array)
                return packed
            if array.shape != (seq.n_state,):
                raise ValueError(
                    f"init must be a dict, a ({seq.n_state},) vector or a "
                    f"({n_vectors}, {seq.n_state}) matrix, got {array.shape}"
                )
            bits = (array != 0).astype(np.uint64)
        # Broadcast one bit per flip-flop across every packed vector lane.
        words = np.zeros((seq.n_state, n_words), dtype=np.uint64)
        words[bits != 0] = np.uint64(0xFFFFFFFFFFFFFFFF)
        return words

    # ------------------------------------------------------------------ #
    def run_packed(
        self,
        packed_inputs: np.ndarray,
        cycles: int,
        state_words: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Clock ``cycles`` cycles over packed words; the workhorse kernel.

        ``packed_inputs`` is ``(n_inputs, n_words)`` (held constant over the
        run) or ``(cycles, n_inputs, n_words)`` (a per-cycle stream);
        ``state_words`` is the ``(n_state, n_words)`` starting state.
        Returns ``(trace, final_state)`` where ``trace`` has shape
        ``(cycles, n_outputs, n_words)``.
        """
        seq = self.seq
        packed_inputs = np.asarray(packed_inputs, dtype=np.uint64)
        streamed = packed_inputs.ndim == 3
        n_words = state_words.shape[1] if seq.n_state else packed_inputs.shape[-1]
        trace = np.empty((int(cycles), seq.n_outputs, n_words), dtype=np.uint64)
        state = np.asarray(state_words, dtype=np.uint64)
        n_outputs = seq.n_outputs
        for t in range(int(cycles)):
            rows = packed_inputs[t] if streamed else packed_inputs
            cone_in = np.concatenate([rows, state], axis=0)
            # One engine call per cycle computing outputs and next state
            # together — every engine runs a dedicated kernel for exactly
            # this slot tuple (dead cone logic never executes).
            result = self._cone.evaluate_packed_slots(cone_in, self._result_slots)
            trace[t] = result[:n_outputs]
            state = result[n_outputs:]
        return trace, state

    def _clock(
        self, input_bits: np.ndarray, cycles: Optional[int], init: InitSpec
    ) -> "tuple[np.ndarray, np.ndarray, int]":
        """Check and pack a run's inputs, then clock it.

        Shared by :meth:`run` and :meth:`final_state`, so both accept and
        reject the same inputs.  Returns ``(trace, final_state, n_vectors)``
        in the packed layout of :meth:`run_packed`.
        """
        seq = self.seq
        input_bits = np.asarray(input_bits)
        if input_bits.ndim == 2:
            if cycles is None:
                raise ValueError("cycles is required when inputs are held constant")
        elif input_bits.ndim == 3:
            if cycles is None:
                cycles = input_bits.shape[0]
            if input_bits.shape[0] != cycles:
                raise ValueError(
                    f"input stream provides {input_bits.shape[0]} cycles, "
                    f"but cycles={cycles} was requested"
                )
        else:
            raise ValueError(
                "input_bits must be (n_vectors, n_inputs) or "
                f"(cycles, n_vectors, n_inputs), got shape {input_bits.shape}"
            )
        if cycles < 0:
            raise ValueError("cycles must be >= 0")
        if input_bits.shape[-1] != seq.n_inputs:
            raise ValueError(
                f"expected {seq.n_inputs} input columns, got {input_bits.shape}"
            )
        n_vectors = input_bits.shape[-2]
        n_words = max((n_vectors + 63) // 64, 1)
        if input_bits.ndim == 2:
            packed, _ = pack_vectors(input_bits)
        elif cycles:
            packed = np.stack([pack_vectors(frame)[0] for frame in input_bits])
        else:
            packed = np.zeros((0, seq.n_inputs, n_words), dtype=np.uint64)
        state = self._init_words(init, n_vectors, n_words)
        trace, state = self.run_packed(packed, int(cycles), state)
        return trace, state, n_vectors

    def run(
        self,
        input_bits: np.ndarray,
        cycles: Optional[int] = None,
        init: InitSpec = None,
    ) -> np.ndarray:
        """Clock a batch of vectors; returns ``(cycles, n_vectors, n_outputs)``.

        ``input_bits`` is either ``(n_vectors, n_inputs)`` — the same input
        vector held on the pins for the whole run, the sequential-SVM usage —
        or ``(cycles, n_vectors, n_inputs)`` for per-cycle input streams.
        ``cycles`` is mandatory for 2-D inputs and must match (or be omitted)
        for 3-D streams.  ``cycles=0`` returns an empty, well-shaped trace.
        """
        trace, _, n_vectors = self._clock(input_bits, cycles, init)
        cycles, n_outputs, n_words = trace.shape
        flat = trace.reshape(cycles * n_outputs, n_words)
        bits = unpack_vectors(flat, n_vectors)  # (n_vectors, cycles*n_outputs)
        return (
            bits.T.reshape(cycles, n_outputs, n_vectors)
            .transpose(0, 2, 1)
            .astype(np.int64)
        )

    def final_state(
        self,
        input_bits: np.ndarray,
        cycles: int,
        init: InitSpec = None,
    ) -> np.ndarray:
        """Flip-flop values after ``cycles`` clock edges: ``(n_vectors, n_state)``.

        Takes the inputs :meth:`run` takes and checks them the same way.

        Example::

            state = evaluator.final_state(inputs, cycles=5)
            dict(zip(evaluator.seq.state_names, state[0]))
        """
        _, state, n_vectors = self._clock(input_bits, cycles, init)
        return unpack_vectors(state, n_vectors)


def sequential_evaluator_for(
    netlist: GateNetlist,
    library: Optional[CellLibrary] = None,
    opt_level: int = 0,
    engine: str = "auto",
) -> SequentialEvaluator:
    """Compile (cached) and wrap a clocked netlist for sequential evaluation.

    ``engine`` selects the per-cycle cone's execution backend; evaluators
    are cached per (library, structure version, opt level, resolved engine)
    so mutation invalidates compiled cone kernels along with the program.

    Example::

        evaluator = sequential_evaluator_for(netlist, opt_level=2)
        trace = evaluator.run(vectors, cycles=n_classes)
    """
    library = library or EGFET_PDK
    seq = compile_sequential(netlist, library, opt_level=opt_level)
    resolved = resolve_engine(engine)
    cache = getattr(netlist, "_seqsim_evaluator_cache", None)
    if not isinstance(cache, dict):
        cache = {}
        netlist._seqsim_evaluator_cache = cache
    signature = netlist.structural_signature()
    key = (id(library), signature, int(opt_level), resolved)
    cached = cache.get(key)
    if cached is not None and cached[0] is seq:
        return cached[1]
    evaluator = SequentialEvaluator(seq, engine=resolved)
    for stale in [k for k in cache if k[1] != signature]:
        del cache[stale]
    cache[key] = (seq, evaluator)
    return evaluator


def simulate_sequential_batch(
    netlist: GateNetlist,
    input_bits: np.ndarray,
    cycles: Optional[int] = None,
    init: InitSpec = None,
    library: Optional[CellLibrary] = None,
    opt_level: int = 0,
    engine: str = "auto",
) -> np.ndarray:
    """Bit-parallel multi-cycle sweep of a clocked netlist.

    The sequential counterpart of
    :func:`~repro.perf.bitsim.simulate_netlist_batch`: ``input_bits`` is a
    ``(n_vectors, n_inputs)`` matrix held constant over the run (or a
    ``(cycles, n_vectors, n_inputs)`` per-cycle stream), ``init`` overrides
    the netlist's flip-flop power-on values (dict by instance/Q-net name,
    per-flip-flop vector, or per-vector matrix) and the result has shape
    ``(cycles, n_vectors, n_outputs)`` with the cycle-``t`` plane holding
    the combinational output values seen during cycle ``t`` — bit-identical
    to :func:`repro.hw.simulate.simulate_sequential_reference` per cycle.

    Example::

        trace = simulate_sequential_batch(netlist, vectors, cycles=8)
        trace[-1]        # outputs during the final cycle, (n_vectors, n_outputs)
    """
    evaluator = sequential_evaluator_for(
        netlist, library, opt_level=opt_level, engine=engine
    )
    return evaluator.run(input_bits, cycles=cycles, init=init)
