"""Static timing analysis for printed designs.

Two entry points:

* :func:`longest_path_cells` — topological longest-path extraction over an
  explicit :class:`~repro.hw.netlist.GateNetlist`; returns the multiset of
  cell types along the critical path so the delay can be priced with any
  cell library.
* :class:`TimingAnalyzer` / :func:`analyze_timing` — computes the critical
  path delay, the guard-banded clock period and the resulting operating
  frequency of a :class:`~repro.hw.netlist.HardwareBlock`, mirroring what
  PrimeTime reports for the paper's circuits (frequencies in the Hz range).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional

from repro.hw.cells import CellLibrary
from repro.hw.netlist import GateNetlist, HardwareBlock
from repro.hw.pdk import DEFAULT_PDK_PARAMETERS, EGFET_PDK, PDKParameters


def longest_path_cells(netlist: GateNetlist, library: Optional[CellLibrary] = None) -> Counter:
    """Cells along the delay-critical path of a netlist.

    Combinational netlists are traversed in topological order (gates are
    stored in creation order, and the :class:`GateNetlist` builder only
    allows reading already-driven nets, so creation order *is* a topological
    order).  For each net we track the accumulated worst delay and the cell
    multiset that produced it; the result is the multiset of the overall
    worst output.

    Clocked netlists (any sequential cell present) get the register-aware
    analysis instead: every flip-flop Q output is a *launch* point (arrival
    zero — the clock-to-Q/setup overhead is priced separately by
    :class:`TimingAnalyzer`), every flip-flop D input and every primary
    output is a *capture* point, and the result is the cell multiset of the
    critical register-to-register (or input-to-register / register-to-output)
    path — the path that actually limits the clock of the multi-cycle
    architecture.
    """
    library = library or EGFET_PDK
    sequential = netlist.sequential_gates(library)
    sequential_ids = {id(g) for g in sequential}
    # arrival[net] = (delay_ms, Counter of cells along the path)
    arrival: Dict[str, tuple] = {}
    for net in netlist.inputs:
        arrival[net] = (0.0, Counter())
    arrival[GateNetlist.CONST_ZERO] = (0.0, Counter())
    arrival[GateNetlist.CONST_ONE] = (0.0, Counter())
    for gate in sequential:
        # Q launches a fresh path at the clock edge.
        for out in gate.outputs:
            arrival[out] = (0.0, Counter())

    worst_delay = 0.0
    worst_cells: Counter = Counter()
    for gate in netlist.gates:
        if id(gate) in sequential_ids:
            continue
        in_delay = 0.0
        in_cells: Counter = Counter()
        for pin in gate.inputs:
            delay, cells = arrival.get(pin, (0.0, Counter()))
            if delay >= in_delay:
                in_delay = delay
                in_cells = cells
        cell_delay = library[gate.cell].delay_ms
        out_delay = in_delay + cell_delay
        out_cells = in_cells + Counter({gate.cell: 1})
        for out in gate.outputs:
            arrival[out] = (out_delay, out_cells)
        if out_delay > worst_delay:
            worst_delay = out_delay
            worst_cells = out_cells
    # Capture points: the D pin of every register ends a path there.
    for gate in sequential:
        for pin in gate.inputs:
            delay, cells = arrival.get(pin, (0.0, Counter()))
            if delay > worst_delay:
                worst_delay = delay
                worst_cells = cells
    return worst_cells


@dataclass
class TimingReport:
    """Result of static timing analysis on one design."""

    critical_path_ms: float
    clock_period_ms: float
    frequency_hz: float
    logic_depth: int
    limited_by: str = "datapath"

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        return (
            f"critical path {self.critical_path_ms:.2f} ms, "
            f"clock {self.clock_period_ms:.2f} ms ({self.frequency_hz:.1f} Hz), "
            f"depth {self.logic_depth} ({self.limited_by})"
        )


class TimingAnalyzer:
    """Static timing analysis of :class:`HardwareBlock` designs.

    The operating frequency is ``1 / (critical path * (1 + margin))`` with a
    register overhead (clock-to-Q plus setup of the printed flip-flops) added
    for sequential designs.
    """

    def __init__(
        self,
        library: Optional[CellLibrary] = None,
        params: Optional[PDKParameters] = None,
    ) -> None:
        self.library = library or EGFET_PDK
        self.params = params or DEFAULT_PDK_PARAMETERS

    def analyze(
        self,
        block: HardwareBlock,
        sequential: bool = True,
        min_period_ms: float = 0.0,
    ) -> TimingReport:
        """Compute the timing report of a design.

        Parameters
        ----------
        block:
            The design to analyse (its ``path`` holds the critical path cells).
        sequential:
            Whether the design is clocked.  Clocked designs pay one register
            clock-to-Q + setup on top of the combinational path; purely
            combinational designs (the parallel baselines) are "clocked" at
            their evaluation rate, i.e. the period is simply the path delay.
        min_period_ms:
            Optional lower bound on the clock period (e.g. imposed by an
            external sensor interface).
        """
        path_delay = block.critical_path_delay_ms(self.library)
        # Printed wiring spans the full physical extent of the design, so the
        # RC load on the critical path grows with the printed area (this is
        # what pushes very large fully-parallel designs to single-digit Hz).
        area_factor = 1.0 + self.params.area_wire_delay_per_cm2 * block.area_cm2(
            self.library
        )
        path_delay = path_delay * area_factor
        register_overhead = self.library["DFF"].delay_ms if sequential else 0.0
        raw_period = path_delay + register_overhead
        period = raw_period * (1.0 + self.params.timing_margin)
        limited_by = "datapath"
        if period < min_period_ms:
            period = min_period_ms
            limited_by = "external-constraint"
        if period <= 0.0:
            raise ValueError("design has an empty critical path; cannot derive a clock")
        frequency_hz = 1000.0 / period
        return TimingReport(
            critical_path_ms=path_delay,
            clock_period_ms=period,
            frequency_hz=frequency_hz,
            logic_depth=block.logic_depth(),
            limited_by=limited_by,
        )


def analyze_timing(
    block: HardwareBlock,
    sequential: bool = True,
    library: Optional[CellLibrary] = None,
) -> TimingReport:
    """Convenience wrapper around :class:`TimingAnalyzer`."""
    return TimingAnalyzer(library=library).analyze(block, sequential=sequential)


def analyze_netlist_timing(
    netlist: GateNetlist,
    sequential: Optional[bool] = None,
    library: Optional[CellLibrary] = None,
    params: Optional[PDKParameters] = None,
    opt_level: Optional[int] = None,
) -> TimingReport:
    """Static timing analysis straight from an explicit gate-level netlist.

    The netlist is lowered to a :class:`HardwareBlock` with exact cell counts
    and a longest-path-extracted critical path
    (:func:`repro.hw.opt.netlist_to_block`); ``opt_level`` optionally runs
    the :mod:`repro.hw.opt` optimizer first, so the report prices the
    *optimized* structure.  ``sequential`` defaults to auto-detection: a
    netlist containing flip-flops is clocked — its critical path is the
    register-to-register path :func:`longest_path_cells` extracts, and the
    clock period pays the flip-flop overhead on top — while the purely
    combinational netlists of :mod:`repro.hw.rtl` are priced at their
    evaluation rate.
    """
    from repro.hw.opt.lowering import netlist_to_block

    if sequential is None:
        resolved = library or EGFET_PDK
        sequential = bool(netlist.sequential_gates(resolved))
    block = netlist_to_block(netlist, library=library, level=opt_level)
    return TimingAnalyzer(library=library, params=params).analyze(
        block, sequential=sequential
    )
