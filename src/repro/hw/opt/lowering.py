"""Lowering an explicit netlist to a priced :class:`HardwareBlock`.

:func:`netlist_to_block` is the bridge between the optimizer and the
cost-estimation flow: it collapses a (optionally optimized) gate-level
netlist into a :class:`~repro.hw.netlist.HardwareBlock` with *exact* per-cell
counts and a longest-path-extracted critical path, so
:mod:`repro.hw.area` / :mod:`repro.hw.power` / :mod:`repro.hw.timing` can
price the optimized structure right next to their formula-based estimates.
"""

from __future__ import annotations

from typing import Optional

from repro.hw.cells import CellLibrary
from repro.hw.netlist import GateNetlist, HardwareBlock
from repro.hw.opt.sweep import optimize


def netlist_to_block(
    netlist: GateNetlist,
    name: Optional[str] = None,
    library: Optional[CellLibrary] = None,
    level: Optional[int] = None,
) -> HardwareBlock:
    """Collapse a netlist into a :class:`HardwareBlock` with exact gate counts.

    ``level`` optionally runs :func:`~repro.hw.opt.sweep.optimize` first
    (None/0 = price the raw netlist).  The critical path is extracted by
    longest-path analysis over the gate graph; activity defaults to 0.5
    toggles per gate per evaluation (the same convention as
    :meth:`GateNetlist.to_block`), which the caller may override.

    Example::

        block = netlist_to_block(netlist, level=2)     # exact optimized counts
        area = AreaAnalyzer(EGFET_PDK).analyze(block)  # priced like any block
    """
    from repro.hw.timing import longest_path_cells

    if level:
        netlist = optimize(netlist, level=level, library=library).netlist
    counts = netlist.cell_counts()
    path = longest_path_cells(netlist, library)
    toggles = {cell: 0.5 * n for cell, n in counts.items()}
    return HardwareBlock(
        name=name or netlist.name, counts=counts, path=path, toggles=toggles
    )
