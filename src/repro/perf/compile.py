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
  simulation models (a buffer), matching :func:`simulate_combinational`.
* Any other cell that declares a boolean ``function`` is lowered through its
  truth table (sum of minterms over scratch slots), so custom libraries keep
  working without touching the compiler.

Programs are cached on the netlist instance per (library, structure version,
opt level) and invalidated by any structural mutation — growth through the
builder API or an in-place rewrite announced via
:meth:`~repro.hw.netlist.GateNetlist.note_structural_change` — so repeated
sweeps over the same netlist compile only once.  ``opt_level > 0`` runs the
:mod:`repro.hw.opt` pass pipeline before lowering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.hw.cells import CellLibrary
from repro.hw.netlist import GateNetlist
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

#: Canonical boolean behaviour each named lowering assumes.  Before a cell is
#: direct-lowered, its declared ``function`` is checked against this over the
#: full truth table; a library that redefines a standard name with different
#: logic falls back to truth-table lowering instead of being miscompiled.
#: The optimization passes (:mod:`repro.hw.opt`) share this table when
#: matching folded truth tables back onto library cells.
CANONICAL_SEMANTICS = {
    "INV": lambda b: (1 - b[0],),
    "BUF": lambda b: (b[0],),
    "AND2": lambda b: (b[0] & b[1],),
    "OR2": lambda b: (b[0] | b[1],),
    "XOR2": lambda b: (b[0] ^ b[1],),
    "NAND2": lambda b: (1 - (b[0] & b[1]),),
    "NOR2": lambda b: (1 - (b[0] | b[1]),),
    "XNOR2": lambda b: (1 - (b[0] ^ b[1]),),
    "AND3": lambda b: (b[0] & b[1] & b[2],),
    "OR3": lambda b: (b[0] | b[1] | b[2],),
    "MUX2": lambda b: (b[1] if b[2] else b[0],),
    "DFF": lambda b: (b[0],),
    "ADC1": lambda b: (b[0],),
    "HA": lambda b: (b[0] ^ b[1], b[0] & b[1]),
    "FA": lambda b: (
        b[0] ^ b[1] ^ b[2],
        (b[0] & b[1]) | (b[2] & (b[0] ^ b[1])),
    ),
}


def cell_matches_canonical(cell) -> bool:
    """True when the cell's declared function equals the canonical lowering."""
    canonical = CANONICAL_SEMANTICS.get(cell.name)
    if canonical is None:
        return False
    for assignment in range(1 << cell.n_inputs):
        bits = tuple((assignment >> i) & 1 for i in range(cell.n_inputs))
        if tuple(cell.evaluate(bits)) != tuple(canonical(bits)):
            return False
    return True


#: Slot indices reserved for the constant nets.
SLOT_ZERO = 0
SLOT_ONE = 1


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


class _ProgramBuilder:
    """Accumulates primitive ops and allocates slots during lowering."""

    def __init__(self) -> None:
        self.opcodes: List[int] = []
        self.operands: List[Tuple[int, int, int]] = []
        self.dsts: List[int] = []
        self.n_slots = 2  # constants occupy slots 0 and 1

    def new_slot(self) -> int:
        slot = self.n_slots
        self.n_slots += 1
        return slot

    def emit(self, opcode: int, a: int, b: int = 0, c: int = 0, dst: Optional[int] = None) -> int:
        if dst is None:
            dst = self.new_slot()
        self.opcodes.append(opcode)
        self.operands.append((a, b, c))
        self.dsts.append(dst)
        return dst


def _lower_truth_table(
    builder: _ProgramBuilder,
    cell,
    in_slots: List[int],
    out_slots: List[int],
) -> None:
    """Lower an arbitrary cell through its truth table (sum of minterms)."""
    n = cell.n_inputs
    if n > 10:
        raise NotImplementedError(
            f"cell {cell.name} has {n} inputs; truth-table lowering is "
            "limited to 10 inputs"
        )
    # Pre-invert each input once; minterm ANDs reuse these literals.
    inv_slots = [builder.emit(OP_NOT, s) for s in in_slots]
    minterms: List[List[int]] = [[] for _ in range(cell.n_outputs)]
    for assignment in range(1 << n):
        bits = tuple((assignment >> i) & 1 for i in range(n))
        outs = cell.evaluate(bits)
        for j, val in enumerate(outs):
            if val:
                minterms[j].append(assignment)
    for j, terms in enumerate(minterms):
        if not terms:
            builder.emit(OP_BUF, SLOT_ZERO, dst=out_slots[j])
            continue
        if len(terms) == 1 << n:
            builder.emit(OP_BUF, SLOT_ONE, dst=out_slots[j])
            continue
        term_slots: List[int] = []
        for assignment in terms:
            literals = [
                in_slots[i] if (assignment >> i) & 1 else inv_slots[i]
                for i in range(n)
            ]
            acc = literals[0]
            for lit in literals[1:]:
                acc = builder.emit(OP_AND2, acc, lit)
            term_slots.append(acc)
        acc = term_slots[0]
        for term in term_slots[1:-1]:
            acc = builder.emit(OP_OR2, acc, term)
        if len(term_slots) > 1:
            builder.emit(OP_OR2, acc, term_slots[-1], dst=out_slots[j])
        else:
            builder.emit(OP_BUF, acc, dst=out_slots[j])


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

    ``opt_level > 0`` runs the :mod:`repro.hw.opt` pass pipeline first and
    compiles the optimized netlist: the program computes the same primary
    outputs from fewer ops, but internal nets folded away by the passes no
    longer appear in ``net_slots``.  The default (``0``) compiles the raw
    netlist verbatim and remains the oracle the optimized path is checked
    against.

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
        from repro.hw.opt.pipeline import optimize

        source = optimize(netlist, level=opt_level, library=library).netlist

    builder = _ProgramBuilder()
    net_slots: Dict[str, int] = {
        GateNetlist.CONST_ZERO: SLOT_ZERO,
        GateNetlist.CONST_ONE: SLOT_ONE,
    }
    for net in source.inputs:
        net_slots[net] = builder.new_slot()

    canonical_cells: Dict[str, bool] = {}
    for gate in source.gates:
        cell = library[gate.cell]
        if cell.function is None:
            raise NotImplementedError(f"cell {cell.name} has no simulation model")
        missing = [pin for pin in gate.inputs if pin not in net_slots]
        if missing or (cell.is_sequential and not gate.inputs):
            # A pin driven only later in the gate list (or an unbound DFF)
            # means the netlist has sequential feedback: it cannot be lowered
            # as a combinational cone.
            raise ValueError(
                f"gate {gate.name!r} of {netlist.name!r} reads nets with no "
                f"combinational driver yet ({missing or 'unbound flip-flop'}); "
                "clocked netlists must be compiled with "
                "repro.perf.seqsim.compile_sequential"
            )
        in_slots = [net_slots[pin] for pin in gate.inputs]
        out_slots = [builder.new_slot() for _ in gate.outputs]
        for net, slot in zip(gate.outputs, out_slots):
            net_slots[net] = slot

        if gate.cell not in canonical_cells:
            canonical_cells[gate.cell] = cell_matches_canonical(cell)
        if not canonical_cells[gate.cell]:
            _lower_truth_table(builder, cell, in_slots, out_slots)
            continue
        opcode = _DIRECT_LOWERING.get(gate.cell)
        if opcode is not None:
            a = in_slots[0]
            b = in_slots[1] if len(in_slots) > 1 else 0
            c = in_slots[2] if len(in_slots) > 2 else 0
            builder.emit(opcode, a, b, c, dst=out_slots[0])
        elif gate.cell == "HA":
            builder.emit(OP_XOR2, in_slots[0], in_slots[1], dst=out_slots[0])
            builder.emit(OP_AND2, in_slots[0], in_slots[1], dst=out_slots[1])
        elif gate.cell == "FA":
            a, b, cin = in_slots
            axb = builder.emit(OP_XOR2, a, b)
            builder.emit(OP_XOR2, axb, cin, dst=out_slots[0])
            ab = builder.emit(OP_AND2, a, b)
            c_axb = builder.emit(OP_AND2, cin, axb)
            builder.emit(OP_OR2, ab, c_axb, dst=out_slots[1])
        else:
            _lower_truth_table(builder, cell, in_slots, out_slots)

    program = CompiledProgram(
        name=source.name,
        n_slots=builder.n_slots,
        opcodes=np.asarray(builder.opcodes, dtype=np.int16),
        operands=np.asarray(builder.operands, dtype=np.int32).reshape(-1, 3),
        dsts=np.asarray(builder.dsts, dtype=np.int32),
        input_names=list(source.inputs),
        input_slots=np.asarray(
            [net_slots[n] for n in source.inputs], dtype=np.int32
        ),
        output_names=list(source.outputs),
        output_slots=np.asarray(
            [net_slots[n] for n in source.outputs], dtype=np.int32
        ),
        net_slots=net_slots,
    )
    # Programs compiled for older structures can never be served again (the
    # version only moves forward), so evict them: the cache holds one entry
    # per (library, opt_level) of the *current* structure.
    for stale in [k for k in cache if k[1] != signature]:
        del cache[stale]
    cache[key] = (library, program)
    return program
