"""Multiplexer-based bespoke storage.

The paper stores the support-vector coefficients in "bespoke MUX-based
storage units, i.e. the inputs of the MUX (excluding the control signal) are
hardwired to the parameters of the support vectors", selected by the control
counter.  Because the data inputs are constants, synthesis collapses large
parts of the MUX tree:

* a bit column whose value is identical for every word needs *no* logic;
* a column equal to (the complement of) a select bit collapses to a wire
  (an inverter);
* only columns that genuinely depend on several select bits keep MUX cells.

:func:`constant_mux_storage` performs that collapse column by column on the
actual hardwired coefficient table, so the storage cost is data dependent —
exactly the property that makes bespoke printed storage so much cheaper than
a generic ROM/crossbar.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Sequence

import numpy as np

from repro.hw.activity import storage_toggles
from repro.hw.netlist import GateNetlist, HardwareBlock


def mux_tree(n_inputs: int, width: int = 1, name: str = "mux") -> HardwareBlock:
    """A generic (non-hardwired) ``n_inputs``-to-1 MUX for ``width``-bit words.

    Built as a binary tree of 2:1 MUX cells: ``n_inputs - 1`` cells per bit,
    with a depth of ``ceil(log2(n_inputs))`` levels.
    """
    if n_inputs < 1 or width < 1:
        raise ValueError("invalid mux shape")
    if n_inputs == 1:
        return HardwareBlock(name=name)
    counts = Counter({"MUX2": (n_inputs - 1) * width})
    depth = int(math.ceil(math.log2(n_inputs)))
    path = Counter({"MUX2": depth})
    return HardwareBlock(
        name=name,
        counts=counts,
        path=path,
        toggles=storage_toggles(counts),
    )


# --------------------------------------------------------------------------- #
# Hardwired-constant storage with column-wise logic collapse
# --------------------------------------------------------------------------- #
def _column_cost(column: Sequence[int]) -> Counter:
    """Cells needed to produce one output bit from hardwired constants.

    ``column[w]`` is the bit value stored for select value ``w``.  The cost
    is computed by recursively building a 2:1-MUX tree over the constants and
    simplifying:

    * both halves constant and equal -> constant (no cells);
    * halves are constant 0/1 -> the select bit itself or its inverse
      (at most one inverter);
    * one half constant -> the MUX degenerates to an AND/OR with the
      recursive result;
    * otherwise -> a MUX2 plus the cost of both halves.

    The recursion returns the kind of a sub-tree ("const0", "const1",
    "wire" or "logic") and adds the cells it needs to one dict; only the
    cells matter to the caller.
    """
    cells: Dict[str, int] = {}

    def add(*names: str) -> None:
        for cell in names:
            cells[cell] = cells.get(cell, 0) + 1

    def reduce(bits: tuple) -> str:
        # A node adds its cells after both halves have added theirs, so the
        # keys keep one fixed order, which the library's float sums over a
        # block's counts and toggles follow.
        if 1 not in bits:
            return "const0"
        if 0 not in bits:
            return "const1"
        n = len(bits)
        if n == 2:
            # Depends on exactly one select bit: a wire or an inverter.
            if bits != (0, 1):
                add("INV")
            return "wire"
        half = 1 << ((n - 1).bit_length() - 1)
        lo_kind = reduce(bits[:half])
        hi_kind = reduce(bits[half:] + (0,) * (2 * half - n))
        kinds = {lo_kind, hi_kind}
        if kinds == {"const0"}:
            return "const0"
        if kinds == {"const1"}:
            return "const1"
        if kinds <= {"const0", "const1"}:
            # Output equals (possibly inverted) top select bit.
            if lo_kind == "const1":
                add("INV")
            return "wire"
        if lo_kind == "const0":
            add("AND2")
        elif hi_kind == "const0":
            add("AND2", "INV")
        elif lo_kind == "const1":
            add("OR2", "INV")
        elif hi_kind == "const1":
            add("OR2")
        else:
            add("MUX2")
        return "logic"

    reduce(tuple(int(b) & 1 for b in column))
    return Counter(cells)


def storage_table_bits(coefficients: np.ndarray, bits_per_value: Sequence[int]) -> np.ndarray:
    """Expand a table of signed integer codes into a bit matrix.

    ``coefficients`` has shape ``(n_words, n_values)``; column ``v`` of every
    word is stored with ``bits_per_value[v]`` bits (two's complement).  The
    result has shape ``(n_words, sum(bits_per_value))`` with LSB-first bit
    ordering per value.
    """
    coefficients = np.asarray(coefficients, dtype=np.int64)
    if coefficients.ndim != 2:
        raise ValueError("coefficient table must be 2-D")
    n_words, n_values = coefficients.shape
    if len(bits_per_value) != n_values:
        raise ValueError("bits_per_value length must match the number of columns")
    columns: List[np.ndarray] = []
    for v in range(n_values):
        width = int(bits_per_value[v])
        if width < 1:
            raise ValueError("every stored value needs at least one bit")
        codes = coefficients[:, v]
        lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
        if np.any(codes < lo) or np.any(codes > hi):
            raise ValueError(
                f"column {v}: code out of range for {width}-bit two's complement"
            )
        unsigned = np.where(codes < 0, codes + (1 << width), codes)
        for bit in range(width):
            columns.append(((unsigned >> bit) & 1).astype(np.int8))
    return np.column_stack(columns)


def constant_mux_storage(
    coefficients: np.ndarray,
    bits_per_value: Sequence[int],
    name: str = "mux_storage",
) -> HardwareBlock:
    """Bespoke MUX storage for a hardwired coefficient table.

    Parameters
    ----------
    coefficients:
        Integer codes of shape ``(n_words, n_values)`` — one word per support
        vector, one value per coefficient (weights and bias).
    bits_per_value:
        Storage width of each value column.

    The cell cost is obtained by collapsing every output-bit column against
    the constants actually stored (see module docstring), so sparse or
    repetitive coefficient tables genuinely cost less — the property bespoke
    printed classifiers exploit.
    """
    coefficients = np.asarray(coefficients, dtype=np.int64)
    n_words = coefficients.shape[0]
    bit_matrix = storage_table_bits(coefficients, bits_per_value)
    # Equal columns cost the same, so each distinct column is priced once.
    # Pricing them in order of first appearance gives ``counts`` the key
    # order of pricing every column in turn.
    columns = Counter(map(tuple, bit_matrix.T.tolist()))
    counts: Counter = Counter()
    for column, repeats in columns.items():
        for cell, n in _column_cost(column).items():
            counts[cell] += n * repeats

    if n_words <= 1:
        depth_levels = 0
        path: Counter = Counter()
    else:
        depth_levels = int(math.ceil(math.log2(n_words)))
        path = Counter({"MUX2": depth_levels})
    return HardwareBlock(
        name=name,
        counts=counts,
        path=path,
        toggles=storage_toggles(counts),
    )


def build_mux_tree_netlist(n_inputs: int, name: str = "mux") -> GateNetlist:
    """Explicit 1-bit ``n_inputs``-to-1 MUX tree netlist (for verification).

    Primary inputs: ``d[n_inputs]`` and ``sel[ceil(log2 n_inputs)]``.
    Primary output: ``y``.
    """
    if n_inputs < 2:
        raise ValueError("mux needs at least two inputs")
    n_sel = int(math.ceil(math.log2(n_inputs)))
    netlist = GateNetlist(name=name)
    data = netlist.add_inputs("d", n_inputs)
    sel = netlist.add_inputs("sel", n_sel)

    level_nets = list(data)
    for level in range(n_sel):
        next_nets: List[str] = []
        for i in range(0, len(level_nets), 2):
            if i + 1 < len(level_nets):
                out = netlist.add_gate(
                    "MUX2",
                    [level_nets[i], level_nets[i + 1], sel[level]],
                    outputs=[f"m{level}_{i // 2}"],
                )[0]
            else:
                out = level_nets[i]
            next_nets.append(out)
        level_nets = next_nets
    if level_nets[0] in (GateNetlist.CONST_ZERO, GateNetlist.CONST_ONE):
        level_nets[0] = netlist.add_gate("BUF", [level_nets[0]], outputs=["y"])[0]
    netlist.mark_output(level_nets[0])
    return netlist
