"""Netlist compiler: lower a :class:`GateNetlist` into a flat bit-op program.

The interpreted gate-level simulator walks a netlist gate by gate through
``Dict[str, int]`` lookups — fine for one vector, hopeless for sweeps.  This
module compiles a netlist *once* into a :class:`CompiledProgram`: a flat,
topologically-ordered sequence of primitive bitwise operations over an array
of *net slots*, expressed as parallel numpy arrays (opcode, operand slot
indices, destination slot).  The program contains no string lookups and no
per-gate cell dispatch; the bit-parallel evaluator
(:mod:`repro.perf.bitsim`) executes it on packed ``uint64`` words, 64 test
vectors at a time.

Lowering rules
--------------
* Simple cells (INV, BUF, AND2, OR2, XOR2, NAND2, NOR2, XNOR2, AND3, OR3,
  MUX2) map to one primitive op each.
* Multi-output arithmetic cells expand into primitive ops: ``HA`` becomes
  XOR + AND, ``FA`` becomes the standard 5-op sum/majority decomposition
  (sharing the ``a ^ b`` term).
* ``DFF`` and ``ADC1`` follow the library's combinationally-transparent
  simulation models (a buffer), matching :func:`simulate_combinational`;
  a clocked lowering skips flip-flops instead (their Q nets are inputs).
* Any other cell that declares a boolean ``function`` is lowered through its
  truth table (sum of minterms over scratch slots), so custom libraries keep
  working without touching the compiler.

:func:`lower_gates` does the lowering in one walk over the gates, appending
plain-int op tuples that the program keeps (``ops``) beside the numpy arrays
built once from them; :func:`compile_netlist` and the clocked-netlist
compiler of :mod:`repro.perf.seqsim` both call it.

Programs are cached on the netlist instance per (library, structure version,
opt level) and invalidated by any structural mutation — growth through the
builder API or an in-place rewrite announced via
:meth:`~repro.hw.netlist.GateNetlist.note_structural_change` — so repeated
sweeps over the same netlist compile only once.  ``opt_level > 0`` runs the
:mod:`repro.hw.opt` optimizer before lowering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.hw.cells import CellLibrary, cell_matches_canonical
from repro.hw.netlist import GateInstance, GateNetlist, output_count_error
from repro.hw.pdk import EGFET_PDK

# --------------------------------------------------------------------------- #
# Primitive opcodes
# --------------------------------------------------------------------------- #
OP_BUF = 0   # dst = a
OP_NOT = 1   # dst = ~a
OP_AND2 = 2  # dst = a & b
OP_OR2 = 3   # dst = a | b
OP_XOR2 = 4  # dst = a ^ b
OP_NAND2 = 5  # dst = ~(a & b)
OP_NOR2 = 6   # dst = ~(a | b)
OP_XNOR2 = 7  # dst = ~(a ^ b)
OP_AND3 = 8   # dst = a & b & c
OP_OR3 = 9    # dst = a | b | c
OP_MUX2 = 10  # dst = c ? b : a

OPCODE_NAMES = {
    OP_BUF: "BUF",
    OP_NOT: "NOT",
    OP_AND2: "AND2",
    OP_OR2: "OR2",
    OP_XOR2: "XOR2",
    OP_NAND2: "NAND2",
    OP_NOR2: "NOR2",
    OP_XNOR2: "XNOR2",
    OP_AND3: "AND3",
    OP_OR3: "OR3",
    OP_MUX2: "MUX2",
}

#: Number of operand slots each primitive op actually reads (trailing unused
#: operand columns are always 0 / ``SLOT_ZERO``).  The liveness pass of the
#: code-generating engines and the disassembler consult this instead of
#: guessing from the operand columns.
OP_ARITY = {
    OP_BUF: 1,
    OP_NOT: 1,
    OP_AND2: 2,
    OP_OR2: 2,
    OP_XOR2: 2,
    OP_NAND2: 2,
    OP_NOR2: 2,
    OP_XNOR2: 2,
    OP_AND3: 3,
    OP_OR3: 3,
    OP_MUX2: 3,
}

#: Cells that lower to exactly one primitive op (operand order preserved).
_DIRECT_LOWERING = {
    "INV": OP_NOT,
    "BUF": OP_BUF,
    "AND2": OP_AND2,
    "OR2": OP_OR2,
    "XOR2": OP_XOR2,
    "NAND2": OP_NAND2,
    "NOR2": OP_NOR2,
    "XNOR2": OP_XNOR2,
    "AND3": OP_AND3,
    "OR3": OP_OR3,
    "MUX2": OP_MUX2,
    # Combinationally-transparent models (see repro.hw.cells).
    "DFF": OP_BUF,
    "ADC1": OP_BUF,
}

#: Slot indices reserved for the constant nets.
SLOT_ZERO = 0
SLOT_ONE = 1

#: One primitive op as plain ints: ``(opcode, a, b, c, dst)``.
OpTuple = Tuple[int, int, int, int, int]


@dataclass
class CompiledProgram:
    """A netlist lowered to a flat topological program of primitive bit ops.

    Attributes
    ----------
    name:
        Name of the source netlist.
    n_slots:
        Number of value slots the evaluator must allocate (slot 0 is the
        constant 0, slot 1 the constant 1; primary inputs follow; the rest
        are gate outputs and compiler scratch).
    opcodes / operands / dsts:
        Parallel arrays describing the ops: ``opcodes[k]`` is one of the
        ``OP_*`` constants, ``operands[k]`` the three operand slot indices
        (unused trailing operands are 0) and ``dsts[k]`` the destination
        slot.  Ops are in topological order.
    input_names / input_slots:
        Primary inputs in declaration order and their slots.
    output_names / output_slots:
        Primary outputs in declaration order and their slots.
    net_slots:
        Slot of every *named* net (constants, inputs and gate outputs);
        scratch slots carry no name.
    ops:
        The same op stream as plain-int ``(opcode, a, b, c, dst)`` tuples:
        the list the lowerer appended to, from which the arrays were built.
        Every Python-level walk of the program reads it
        (:func:`repro.perf.bitsim.op_tuples`).

    Example::

        program = compile_netlist(build_ripple_adder_netlist(8))
        program.n_ops, program.n_inputs      # flat op count, port count
        BitParallelEvaluator(program)        # ready for packed evaluation
    """

    name: str
    n_slots: int
    opcodes: np.ndarray
    operands: np.ndarray
    dsts: np.ndarray
    input_names: List[str]
    input_slots: np.ndarray
    output_names: List[str]
    output_slots: np.ndarray
    net_slots: Dict[str, int]
    ops: List[OpTuple] = field(repr=False)

    @property
    def n_ops(self) -> int:
        return int(self.opcodes.shape[0])

    @property
    def n_inputs(self) -> int:
        return len(self.input_names)

    def op_listing(self) -> List[str]:
        """Readable disassembly of the program.

        Arity-aware: each line shows only the operand slots its opcode
        actually reads (``NOT(s5)``, not ``NOT(s5, s0, s0)``), so lowered
        programs disassemble without phantom operands.

        Example::

            compile_netlist(netlist).op_listing()[:2]
            # ['s3 = NOT(s2)', 's4 = AND2(s2, s3)']
        """
        lines = []
        for k in range(self.n_ops):
            opcode = int(self.opcodes[k])
            operands = ", ".join(
                f"s{int(self.operands[k, i])}" for i in range(OP_ARITY[opcode])
            )
            lines.append(
                f"s{int(self.dsts[k])} = {OPCODE_NAMES[opcode]}({operands})"
            )
        return lines


def _lower_truth_table(
    ops: List[OpTuple],
    n_slots: int,
    cell,
    in_slots: Sequence[int],
    out_slots: Sequence[int],
) -> int:
    """Lower an arbitrary cell through its truth table (sum of minterms).

    Appends the ops to ``ops``, allocates scratch slots from ``n_slots`` on
    and returns the next free slot.
    """
    n = cell.n_inputs
    if n > 10:
        raise NotImplementedError(
            f"cell {cell.name} has {n} inputs; truth-table lowering is "
            "limited to 10 inputs"
        )
    # Pre-invert each input once; minterm ANDs reuse these literals.
    inv_slots = list(range(n_slots, n_slots + len(in_slots)))
    n_slots += len(in_slots)
    ops.extend((OP_NOT, s, 0, 0, inv) for s, inv in zip(in_slots, inv_slots))
    minterms: List[List[int]] = [[] for _ in range(cell.n_outputs)]
    for assignment in range(1 << n):
        bits = tuple((assignment >> i) & 1 for i in range(n))
        outs = cell.evaluate(bits)
        for j, val in enumerate(outs):
            if val:
                minterms[j].append(assignment)
    for j, terms in enumerate(minterms):
        if not terms:
            ops.append((OP_BUF, SLOT_ZERO, 0, 0, out_slots[j]))
            continue
        if len(terms) == 1 << n:
            ops.append((OP_BUF, SLOT_ONE, 0, 0, out_slots[j]))
            continue
        term_slots: List[int] = []
        for assignment in terms:
            literals = [
                in_slots[i] if (assignment >> i) & 1 else inv_slots[i]
                for i in range(n)
            ]
            acc = literals[0]
            for lit in literals[1:]:
                ops.append((OP_AND2, acc, lit, 0, n_slots))
                acc = n_slots
                n_slots += 1
            term_slots.append(acc)
        acc = term_slots[0]
        for term in term_slots[1:-1]:
            ops.append((OP_OR2, acc, term, 0, n_slots))
            acc = n_slots
            n_slots += 1
        if len(term_slots) > 1:
            ops.append((OP_OR2, acc, term_slots[-1], 0, out_slots[j]))
        else:
            ops.append((OP_BUF, acc, 0, 0, out_slots[j]))
    return n_slots


# How a cell's gates lower (see :func:`_lowering_kind`): an ``OP_*`` opcode
# (>= 0) for a one-op cell, or one of these.
_SKIP = -1  # a flip-flop of a clocked netlist: its Q net is a cone input
_HA = -2
_FA = -3
_TRUTH_TABLE = -4


def _lowering_kind(cell) -> int:
    """How gates of ``cell`` lower: a direct opcode, ``_HA``, ``_FA`` or the truth table.

    A cell whose declared function differs from the canonical meaning of its
    name (:func:`cell_matches_canonical`) lowers through its truth table.
    """
    if not cell_matches_canonical(cell):
        return _TRUTH_TABLE
    opcode = _DIRECT_LOWERING.get(cell.name)
    if opcode is not None:
        return opcode
    return {"HA": _HA, "FA": _FA}.get(cell.name, _TRUTH_TABLE)


def lower_gates(
    name: str,
    inputs: Sequence[str],
    gates: Iterable[GateInstance],
    outputs: Sequence[str],
    library: CellLibrary,
    clocked: bool = False,
) -> CompiledProgram:
    """Lower gates to a :class:`CompiledProgram` in one walk: the one lowerer.

    Slots 0 and 1 hold the constants and ``inputs`` take the next ones in
    order; then each gate, in list order, takes one slot per output net
    followed by whatever scratch slots its lowering needs, and its ops are
    appended as ``(opcode, a, b, c, dst)`` tuples.  The numpy arrays are
    built once from that list, which the program keeps as ``ops``.

    With ``clocked=True`` sequential cells are skipped: the caller lists
    their Q nets among ``inputs`` (see
    :func:`repro.perf.seqsim.compile_sequential`).  Otherwise a flip-flop
    lowers as the library's transparent buffer model, and an unbound one
    raises.  A gate reading a net with no earlier driver raises
    ``ValueError``: the gates hold a combinational loop, or a clocked
    netlist is being compiled as a combinational one.
    """
    ops: List[OpTuple] = []
    append = ops.append
    net_slots: Dict[str, int] = {
        GateNetlist.CONST_ZERO: SLOT_ZERO,
        GateNetlist.CONST_ONE: SLOT_ONE,
    }
    slot_of = net_slots.__getitem__
    n_slots = 2
    for net in inputs:
        net_slots[net] = n_slots
        n_slots += 1

    # Cell name -> (how its gates lower, its output count), decided at the
    # cell's first gate.
    cells: Dict[str, Tuple[int, int]] = {}
    for gate in gates:
        entry = cells.get(gate.cell)
        if entry is None:
            cell = library[gate.cell]
            if clocked and cell.is_sequential:
                entry = (_SKIP, 0)
            elif cell.function is None:
                raise NotImplementedError(f"cell {cell.name} has no simulation model")
            else:
                entry = (_lowering_kind(cell), cell.n_outputs)
            cells[gate.cell] = entry
        kind, n_outputs = entry
        if kind == _SKIP:
            continue
        if len(gate.outputs) != n_outputs:
            raise output_count_error(gate, library[gate.cell])
        try:
            in_slots = list(map(slot_of, gate.inputs))
        except KeyError:
            in_slots = None
        if in_slots is None or (not gate.inputs and library[gate.cell].is_sequential):
            # A pin driven only later in the gate list (or an unbound DFF)
            # means the netlist has sequential feedback: it cannot be lowered
            # as a combinational cone.
            missing = [pin for pin in gate.inputs if pin not in net_slots]
            raise ValueError(
                f"gate {gate.name!r} of {name!r} reads nets with no "
                f"combinational driver yet ({missing or 'unbound flip-flop'}); "
                "clocked netlists must be compiled with "
                "repro.perf.seqsim.compile_sequential"
            )
        out_slots = range(n_slots, n_slots + len(gate.outputs))
        for net, slot in zip(gate.outputs, out_slots):
            net_slots[net] = slot
        n_slots = out_slots.stop

        if kind >= 0:
            n_in = len(in_slots)
            append((
                kind,
                in_slots[0],
                in_slots[1] if n_in > 1 else 0,
                in_slots[2] if n_in > 2 else 0,
                out_slots[0],
            ))
        elif kind == _FA:
            a, b, cin = in_slots
            axb, ab, c_axb = n_slots, n_slots + 1, n_slots + 2
            n_slots += 3
            append((OP_XOR2, a, b, 0, axb))
            append((OP_XOR2, axb, cin, 0, out_slots[0]))
            append((OP_AND2, a, b, 0, ab))
            append((OP_AND2, cin, axb, 0, c_axb))
            append((OP_OR2, ab, c_axb, 0, out_slots[1]))
        elif kind == _HA:
            a, b = in_slots[0], in_slots[1]
            append((OP_XOR2, a, b, 0, out_slots[0]))
            append((OP_AND2, a, b, 0, out_slots[1]))
        else:
            n_slots = _lower_truth_table(
                ops, n_slots, library[gate.cell], in_slots, out_slots
            )

    table = np.fromiter(
        itertools.chain.from_iterable(ops), dtype=np.int32, count=5 * len(ops)
    ).reshape(-1, 5)
    return CompiledProgram(
        name=name,
        n_slots=n_slots,
        opcodes=table[:, 0].astype(np.int16),
        operands=np.ascontiguousarray(table[:, 1:4]),
        dsts=np.ascontiguousarray(table[:, 4]),
        input_names=list(inputs),
        input_slots=np.asarray([net_slots[n] for n in inputs], dtype=np.int32),
        output_names=list(outputs),
        output_slots=np.asarray([net_slots[n] for n in outputs], dtype=np.int32),
        net_slots=net_slots,
        ops=ops,
    )


def compile_netlist(
    netlist: GateNetlist,
    library: Optional[CellLibrary] = None,
    opt_level: int = 0,
) -> CompiledProgram:
    """Compile a netlist into a :class:`CompiledProgram` (cached per netlist).

    The cache lives on the netlist instance and is keyed by the library
    *object*, the netlist's structural signature (mutation version plus
    gate / input / output counts) and ``opt_level``, so growing the netlist,
    rewriting it in place (via
    :meth:`~repro.hw.netlist.GateNetlist.note_structural_change`) or
    switching libraries recompiles automatically.

    ``opt_level > 0`` runs the :mod:`repro.hw.opt` optimizer first and
    compiles the optimized netlist: the program computes the same primary
    outputs from fewer ops, but internal nets the optimizer folded away no
    longer appear in ``net_slots``.  The default (``0``) compiles the raw
    netlist verbatim and remains the oracle the optimized path is checked
    against.  Either way the gates are lowered by :func:`lower_gates`, the
    lowerer :func:`repro.perf.seqsim.compile_sequential` shares.

    Example::

        netlist = build_constant_mac_netlist([0, 2, 5], 4)
        raw = compile_netlist(netlist)                 # the oracle program
        opt = compile_netlist(netlist, opt_level=2)    # same outputs, fewer ops
        assert opt.n_ops <= raw.n_ops
    """
    library = library or EGFET_PDK
    signature = netlist.structural_signature()
    cache = getattr(netlist, "_compiled_program_cache", None)
    if cache is None:
        cache = {}
        netlist._compiled_program_cache = cache
    # Key on library *identity*: two libraries may share a name but differ in
    # cell functions, so name equality is not enough to reuse a program.  The
    # library object is kept in the value so its id() cannot be recycled.
    key = (id(library), signature, int(opt_level))
    cached = cache.get(key)
    if cached is not None and cached[0] is library:
        return cached[1]

    source = netlist
    if opt_level > 0:
        from repro.hw.opt import optimize

        source = optimize(netlist, level=opt_level, library=library).netlist

    program = lower_gates(
        source.name, source.inputs, source.gates, source.outputs, library
    )
    # Programs compiled for older structures can never be served again (the
    # version only moves forward), so evict them: the cache holds one entry
    # per (library, opt_level) of the *current* structure.
    for stale in [k for k in cache if k[1] != signature]:
        del cache[stale]
    cache[key] = (library, program)
    return program
