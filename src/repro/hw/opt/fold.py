"""Constant folding of one gate through its cell's truth table.

A gate fed by tied-off constants (or reading one net on several pins)
computes a smaller function than its cell: ``AND2(a, 1)`` is a wire,
``FA(a, b, 0)`` is a half adder, ``MUX2(d, d, s)`` is ``d``.  That function
depends only on the cell and the gate's *pin shape*, one code per pin:

* :data:`TIED_ZERO` / :data:`TIED_ONE` for a pin tied to a constant;
* ``k`` for a pin on the gate's ``k``-th distinct live net, counted in pin
  order: ``FA(x, 1'b0, y)`` has shape ``(0, -1, 1)`` and ``MUX2(d, d, s)``
  has ``(0, 0, 1)``.

:func:`fold_plan` enumerates the truth table of one (cell, shape) and
re-expresses each output as a constant, a wire or a strictly smaller library
cell whose declared function matches its canonical one
(:func:`repro.hw.cells.cell_matches_canonical`).  The sweep of
:mod:`repro.hw.opt.sweep` memoizes the plan per (cell, shape), so a netlist
with thousands of tied gates enumerates only a handful of truth tables.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.hw.cells import CANONICAL_SEMANTICS, CellType
from repro.hw.netlist import GateNetlist

#: Pin-shape codes of a pin tied to constant 0 and to constant 1.
TIED_ZERO = -1
TIED_ONE = -2
_TIED_VALUE = {TIED_ZERO: 0, TIED_ONE: 1}

#: Cells a fold may *instantiate*, by (n_inputs, n_outputs).
_REWRITE_CANDIDATES: Dict[Tuple[int, int], Tuple[str, ...]] = {
    (2, 1): ("AND2", "OR2", "XOR2", "XNOR2", "NAND2", "NOR2"),
    (3, 1): ("AND3", "OR3", "MUX2"),
    (2, 2): ("HA",),
    (3, 2): ("FA",),
}


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


def _match_candidate(
    tables: Sequence[Sequence[int]],
    support: Sequence[int],
    n_outputs: int,
    canonical: Callable[[str], bool],
) -> Optional[Tuple[str, Tuple[int, ...]]]:
    """The first canonical library cell computing ``tables`` over ``support``."""
    m = len(support)
    for name in _REWRITE_CANDIDATES.get((m, n_outputs), ()):
        if not canonical(name):
            continue
        order = _match_cell_order(tables, m, CANONICAL_SEMANTICS[name], n_outputs)
        if order is not None:
            return name, tuple(support[i] for i in order)
    return None


def _classify_output(
    table: Sequence[int], n_vars: int, canonical: Callable[[str], bool]
) -> Optional[tuple]:
    """Fold one output truth table to a constant, a wire or a smaller cell."""
    support = _support_of(table, n_vars)
    reduced = _restrict_table(table, support)
    if not support:
        return ("const", GateNetlist.CONST_ONE if reduced[0] else GateNetlist.CONST_ZERO)
    if len(support) == 1:
        if reduced == [0, 1]:
            return ("wire", support[0])
        return ("gate", "INV", (support[0],)) if canonical("INV") else None
    match = _match_candidate([reduced], support, 1, canonical)
    return None if match is None else ("gate", *match)


def fold_plan(
    cell: CellType, shape: Tuple[int, ...], canonical: Callable[[str], bool]
) -> Optional[List[tuple]]:
    """The replacement plan of a gate of ``cell`` with pin shape ``shape``.

    The plan is one ``("const", net)``, ``("wire", var)`` or ``("gate",
    cell, vars)`` step per output, or a single ``("multi", cell, vars)`` step
    that replaces the whole gate; ``var`` and ``vars`` index the gate's
    distinct live nets.  ``canonical(name)`` says whether the library holds
    ``name`` with its canonical function, i.e. whether the fold may
    instantiate it.  None means the gate stays as it is (its function is too
    complex to re-express with the library's cells).

    Example::

        fold_plan(EGFET_PDK["FA"], (0, 1, TIED_ZERO), canonical)
        # [("multi", "HA", (0, 1))]: FA(a, b, 0) is HA(a, b)
    """
    n = max(max(shape) + 1, 0)  # distinct live nets (0 when every pin is tied)
    if n > 6:
        return None
    tables: List[List[int]] = [[0] * (1 << n) for _ in range(cell.n_outputs)]
    for assignment in range(1 << n):
        bits = tuple(
            (assignment >> k) & 1 if k >= 0 else _TIED_VALUE[k] for k in shape
        )
        for j, v in enumerate(cell.evaluate(bits)):
            tables[j][assignment] = v

    # Whole-gate match first: e.g. FA with a tied carry-in is exactly a HA.
    if cell.n_outputs > 1:
        union = sorted({v for table in tables for v in _support_of(table, n)})
        reduced = [_restrict_table(table, union) for table in tables]
        match = _match_candidate(reduced, union, cell.n_outputs, canonical)
        if match is not None:
            return [("multi", *match)]

    plan = []
    for table in tables:
        step = _classify_output(table, n, canonical)
        if step is None:
            return None
        plan.append(step)
    return plan
