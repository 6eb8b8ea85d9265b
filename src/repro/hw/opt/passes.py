"""The netlist optimization passes.

Every pass has the same shape: ``pass_fn(ctx, ir) -> int`` where ``ctx`` is a
:class:`PassContext` (library + per-cell memos), ``ir`` the mutable
:class:`~repro.hw.opt.ir.IRNetlist`, and the return value the number of gates
the pass rewrote or removed (0 = fixpoint reached for this pass).

* **constant propagation** — for every gate fed by tied-off constants (or
  duplicate nets), restrict the cell's truth table to its live support and
  fold the gate: each output becomes a constant, a wire, or a strictly
  smaller library cell (``AND2(a, 1)`` -> wire, ``FA(a, b, 0)`` -> ``HA``,
  ``MUX2(d, d, s)`` -> wire, ...).  The fold depends only on the cell and
  its *pin shape* — which pins are tied to 0 or 1 and which pins share a
  net — so each (cell, shape) is folded once per :class:`PassContext` and
  every later gate of that shape reuses the plan.
* **buffer collapse** — ``BUF`` gates and double-inverter chains become net
  aliases.
* **structural hashing** — classic CSE: gates with the same cell type and
  the same (resolved) input nets are merged, with input order canonicalised
  for commutative cells.
* **dead-gate elimination** — reverse reachability from the primary outputs;
  everything unreachable is dropped.

Sequential cells, cells without a simulation model and the caller's *opaque*
cells (physical primitives such as the ADC slice whose logic function is a
stand-in, not an identity to optimize through) are never folded, collapsed or
merged — only dead-gate elimination may remove them, and only when nothing
observable depends on them.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.hw.cells import CellLibrary
from repro.hw.opt.ir import CONST_ONE, CONST_ZERO, IRGate, IRNetlist
from repro.perf.compile import CANONICAL_SEMANTICS, cell_matches_canonical

#: Cells whose output is invariant under any permutation of their inputs
#: (``FA`` is fully symmetric: sum = parity, carry = majority).
COMMUTATIVE_CELLS = frozenset(
    {"AND2", "OR2", "XOR2", "XNOR2", "NAND2", "NOR2", "AND3", "OR3", "HA", "FA"}
)

#: Cells constant folding may *instantiate*, by (n_inputs, n_outputs).
_REWRITE_CANDIDATES: Dict[Tuple[int, int], Tuple[str, ...]] = {
    (2, 1): ("AND2", "OR2", "XOR2", "XNOR2", "NAND2", "NOR2"),
    (3, 1): ("AND3", "OR3", "MUX2"),
    (2, 2): ("HA",),
    (3, 2): ("FA",),
}

#: Cells treated as opaque physical primitives by default: their ``function``
#: exists only so the logic simulator can pass values through, it does not
#: license replacing the cell with wiring.
DEFAULT_OPAQUE_CELLS = frozenset({"ADC1"})


class PassContext:
    """Shared pass state: the cell library plus memoized per-cell facts.

    ``protected_nets`` holds nets the passes must never alias away (their
    driving gate must survive).  The pipeline protects the primary outputs
    with it when the library has no canonical ``BUF`` cell, because
    reconstructing an aliased-away output then has no port buffer to fall
    back on.

    The memos are only valid for the library, opaque set and protected set
    the context was built with, which is why the pipeline builds one context
    per :func:`~repro.hw.opt.pipeline.optimize` run.

    Example::

        ctx = PassContext(EGFET_PDK, opaque_cells=DEFAULT_OPAQUE_CELLS)
        removed = constant_propagation(ctx, ir)   # passes share one context
    """

    def __init__(
        self,
        library: CellLibrary,
        opaque_cells: Iterable[str] = DEFAULT_OPAQUE_CELLS,
        protected_nets: Iterable[str] = (),
    ) -> None:
        self.library = library
        self.opaque = frozenset(opaque_cells)
        self.protected = frozenset(protected_nets)
        self._canonical: Dict[str, bool] = {}
        self._rewritable: Dict[str, bool] = {}
        # Fold plans by (cell name, pin shape), None included; filled by
        # constant_propagation.
        self._fold_plans: Dict[Tuple[str, Tuple[int, ...]], Optional[list]] = {}

    def is_canonical(self, cell_name: str) -> bool:
        """Whether the library has ``cell_name`` with its canonical function."""
        memo = self._canonical.get(cell_name)
        if memo is None:
            memo = cell_name in self.library and cell_matches_canonical(
                self.library[cell_name]
            )
            self._canonical[cell_name] = memo
        return memo

    def is_rewritable(self, cell_name: str) -> bool:
        """Whether a pass may fold/merge/collapse gates of this cell type."""
        memo = self._rewritable.get(cell_name)
        if memo is None:
            if cell_name in self.opaque:
                memo = False
            else:
                cell = self.library[cell_name]
                memo = not cell.is_sequential and cell.function is not None
            self._rewritable[cell_name] = memo
        return memo


# --------------------------------------------------------------------------- #
# Constant propagation
# --------------------------------------------------------------------------- #
def _support_of(table: Sequence[int], n_vars: int) -> List[int]:
    """Variables the truth table actually depends on."""
    support = []
    for v in range(n_vars):
        bit = 1 << v
        if any(table[a] != table[a ^ bit] for a in range(1 << n_vars)):
            support.append(v)
    return support


def _restrict_table(table: Sequence[int], support: Sequence[int]) -> List[int]:
    """Project a truth table onto its support variables (others held at 0)."""
    reduced = []
    for a in range(1 << len(support)):
        full = 0
        for i, v in enumerate(support):
            full |= ((a >> i) & 1) << v
        reduced.append(table[full])
    return reduced


def _match_cell_order(
    tables: Sequence[Sequence[int]], n_vars: int, function, n_outputs: int
) -> Optional[Tuple[int, ...]]:
    """Input ordering under which ``function`` reproduces ``tables``, if any.

    Returns a tuple ``order`` such that wiring candidate input pin ``i`` to
    variable ``order[i]`` makes the candidate compute every output table.
    """
    for order in permutations(range(n_vars)):
        for a in range(1 << n_vars):
            bits = tuple((a >> order[i]) & 1 for i in range(n_vars))
            out = function(bits)
            if any(out[j] != tables[j][a] for j in range(n_outputs)):
                break
        else:
            return order
    return None


def _classify_output(
    ctx: PassContext, table: Sequence[int], n_vars: int
) -> Optional[tuple]:
    """Fold one output truth table to a constant, a wire or a smaller cell.

    Returns ``("const", net)``, ``("wire", var)``, ``("gate", cell, vars)``
    or None when the function stays too complex to re-express; ``var`` and
    ``vars`` index the table's variables.
    """
    support = _support_of(table, n_vars)
    reduced = _restrict_table(table, support)
    m = len(support)
    if m == 0:
        return ("const", CONST_ONE if reduced[0] else CONST_ZERO)
    if m == 1:
        if reduced == [0, 1]:
            return ("wire", support[0])
        if ctx.is_canonical("INV"):
            return ("gate", "INV", (support[0],))
        return None
    for name in _REWRITE_CANDIDATES.get((m, 1), ()):
        if not ctx.is_canonical(name):
            continue
        order = _match_cell_order([reduced], m, CANONICAL_SEMANTICS[name], 1)
        if order is not None:
            return ("gate", name, tuple(support[i] for i in order))
    return None


#: Pin-shape codes of a pin tied to constant 0 and to constant 1.  Any other
#: pin's code is the index of its net among the gate's distinct live nets,
#: numbered in pin order: ``FA(x, 1'b0, y)`` has shape ``(0, -1, 1)`` and
#: ``MUX2(d, d, s)`` has shape ``(0, 0, 1)``.
TIED_ZERO = -1
TIED_ONE = -2
_TIED_VALUE = {TIED_ZERO: 0, TIED_ONE: 1}


def _fold_plan(ctx: PassContext, cell, shape: Tuple[int, ...]) -> Optional[list]:
    """Compute the replacement plan for one gate pin shape (None = keep).

    Variable ``k`` of the truth tables is the gate's ``k``-th distinct live
    net, so every wire and pin of the plan is such an index; the caller maps
    them back to the gate's nets.
    """
    n = max(max(shape) + 1, 0)  # distinct live nets (0 when every pin is tied)
    if n > 6:
        return None
    tables: List[List[int]] = [[0] * (1 << n) for _ in range(cell.n_outputs)]
    for assignment in range(1 << n):
        bits = tuple(
            (assignment >> k) & 1 if k >= 0 else _TIED_VALUE[k] for k in shape
        )
        outs = cell.evaluate(bits)
        for j, v in enumerate(outs):
            tables[j][assignment] = v

    # Whole-gate match first: e.g. FA with a tied carry-in is exactly a HA.
    if cell.n_outputs > 1:
        union: List[int] = sorted(
            {v for table in tables for v in _support_of(table, n)}
        )
        m = len(union)
        reduced = [_restrict_table(table, union) for table in tables]
        for name in _REWRITE_CANDIDATES.get((m, cell.n_outputs), ()):
            if not ctx.is_canonical(name):
                continue
            order = _match_cell_order(
                reduced, m, CANONICAL_SEMANTICS[name], cell.n_outputs
            )
            if order is not None:
                return [("multi", name, tuple(union[i] for i in order))]

    plan = []
    for table in tables:
        action = _classify_output(ctx, table, n)
        if action is None:
            return None
        plan.append(action)
    return plan


def constant_propagation(ctx: PassContext, ir: IRNetlist) -> int:
    """Fold gates fed by constants (or duplicate nets) through truth tables.

    The fold of a gate is computed once per (cell, pin shape) and memoized
    in ``ctx``, so a netlist with thousands of tied gates enumerates only a
    handful of truth tables.  Returns the net number of gates removed
    (a fold that decomposes a cell into smaller ones can make this negative
    for a single call).

    Example::

        # AND2(a, 0) folds to constant 0; FA(a, b, 0) shrinks to HA(a, b).
        changed = constant_propagation(ctx, IRNetlist.from_netlist(netlist))
    """
    changes = 0
    kept: List[IRGate] = []
    plans = ctx._fold_plans
    resolve = ir.resolve
    for gate in ir.gates:
        if not ctx.is_rewritable(gate.cell):
            kept.append(gate)
            continue
        nets: List[str] = []  # distinct live nets, in pin order
        shape: List[int] = []
        for pin in gate.inputs:
            net = resolve(pin)
            if net == CONST_ZERO:
                shape.append(TIED_ZERO)
            elif net == CONST_ONE:
                shape.append(TIED_ONE)
            elif net in nets:
                shape.append(nets.index(net))
            else:
                shape.append(len(nets))
                nets.append(net)
        if len(nets) == len(shape):
            kept.append(gate)  # no tied pin and no repeated net: nothing folds
            continue
        key = (gate.cell, tuple(shape))
        if key in plans:
            plan = plans[key]
        else:
            plan = plans[key] = _fold_plan(ctx, ctx.library[gate.cell], key[1])
        if plan is None:
            kept.append(gate)
            continue
        if ctx.protected and plan[0][0] != "multi" and any(
            action in ("const", "wire") and gate.outputs[j] in ctx.protected
            for j, (action, *_) in enumerate(plan)
        ):
            kept.append(gate)  # aliasing a protected output is not allowed
            continue
        changes += 1
        if plan[0][0] == "multi":
            _, name, pins = plan[0]
            kept.append(
                IRGate(
                    name=gate.name,
                    cell=name,
                    inputs=[nets[k] for k in pins],
                    outputs=list(gate.outputs),
                )
            )
            continue
        for j, (action, *detail) in enumerate(plan):
            out_net = gate.outputs[j]
            if action == "const":
                ir.add_alias(out_net, detail[0])
            elif action == "wire":
                ir.add_alias(out_net, nets[detail[0]])
            else:  # ("gate", cell, pins)
                name, pins = detail
                kept.append(
                    IRGate(
                        name=f"{gate.name}__cp{j}",
                        cell=name,
                        inputs=[nets[k] for k in pins],
                        outputs=[out_net],
                    )
                )
    ir.gates = kept
    return changes


# --------------------------------------------------------------------------- #
# Buffer / double-inverter collapsing
# --------------------------------------------------------------------------- #
def buffer_collapse(ctx: PassContext, ir: IRNetlist) -> int:
    """Alias away BUF gates and the second inverter of INV-INV chains.

    Returns the number of gates removed.

    Example::

        # y = BUF(x) disappears; INV(INV(x)) rewires consumers back to x.
        removed = buffer_collapse(ctx, ir)
    """
    changes = 0
    kept: List[IRGate] = []
    drivers = ir.driver_map()
    for gate in ir.gates:
        if gate.outputs[0] in ctx.protected:
            kept.append(gate)
            continue
        if gate.cell == "BUF" and ctx.is_canonical("BUF") and ctx.is_rewritable("BUF"):
            ir.add_alias(gate.outputs[0], ir.resolve(gate.inputs[0]))
            changes += 1
            continue
        if gate.cell == "INV" and ctx.is_canonical("INV") and ctx.is_rewritable("INV"):
            # resolve() never returns an aliased-away net, so a hit in the
            # start-of-pass driver map is always a still-alive inverter.
            source = ir.resolve(gate.inputs[0])
            driver = drivers.get(source)
            if driver is not None and driver.cell == "INV":
                ir.add_alias(gate.outputs[0], ir.resolve(driver.inputs[0]))
                changes += 1
                continue
        kept.append(gate)
    ir.gates = kept
    return changes


# --------------------------------------------------------------------------- #
# Structural hashing (common-subexpression elimination)
# --------------------------------------------------------------------------- #
def structural_hashing(ctx: PassContext, ir: IRNetlist) -> int:
    """Merge gates with identical cell type and (resolved) input nets.

    Commutative cells (:data:`COMMUTATIVE_CELLS`) canonicalise their input
    order first, so ``AND2(a, b)`` and ``AND2(b, a)`` merge.  Returns the
    number of gates removed.

    Example::

        removed = structural_hashing(ctx, ir)   # classic CSE over the IR
    """
    changes = 0
    kept: List[IRGate] = []
    seen: Dict[tuple, IRGate] = {}
    for gate in ir.gates:
        if not ctx.is_rewritable(gate.cell) or any(
            net in ctx.protected for net in gate.outputs
        ):
            kept.append(gate)
            continue
        pins = tuple(ir.resolved_inputs(gate))
        if gate.cell in COMMUTATIVE_CELLS and ctx.is_canonical(gate.cell):
            key = (gate.cell, tuple(sorted(pins)))
        else:
            key = (gate.cell, pins)
        representative = seen.get(key)
        if representative is None:
            seen[key] = gate
            kept.append(gate)
            continue
        for mine, theirs in zip(gate.outputs, representative.outputs):
            ir.add_alias(mine, theirs)
        changes += 1
    ir.gates = kept
    return changes


# --------------------------------------------------------------------------- #
# Dead-gate elimination
# --------------------------------------------------------------------------- #
def dead_gate_elimination(ctx: PassContext, ir: IRNetlist) -> int:
    """Drop every gate not reverse-reachable from a primary output.

    Liveness is computed with a worklist over the driver map rather than a
    single reverse sweep, so the result is independent of gate order — in a
    clocked netlist a flip-flop legally *precedes* the logic driving its D
    pin (feedback), and a live register must keep its whole next-state cone
    alive.  Returns the number of gates removed.

    Example::

        removed = dead_gate_elimination(ctx, ir)   # run last in every level
    """
    drivers = ir.driver_map()
    live_nets = {ir.resolve(out) for out in ir.outputs}
    live_gates: set = set()
    worklist = list(live_nets)
    while worklist:
        net = worklist.pop()
        gate = drivers.get(net)
        if gate is None or id(gate) in live_gates:
            continue
        live_gates.add(id(gate))
        for pin in gate.inputs:
            resolved = ir.resolve(pin)
            if resolved not in live_nets:
                live_nets.add(resolved)
                worklist.append(resolved)
    kept = [gate for gate in ir.gates if id(gate) in live_gates]
    changes = len(ir.gates) - len(kept)
    ir.gates = kept
    return changes


#: Registry used by the pass manager; insertion order is the run order.
PASS_FUNCTIONS = {
    "const_prop": constant_propagation,
    "buffer_collapse": buffer_collapse,
    "structural_hash": structural_hashing,
    "dead_gate": dead_gate_elimination,
}
