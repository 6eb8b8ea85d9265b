"""Area estimation and printed-area feasibility checks.

Printed classifiers must fit on the flexible substrate of the target
application (labels, smart packaging, wearables).  The paper states that its
designs, "despite showing small area overheads in some cases ... manage to
stay within acceptable area ranges, satisfying the constraints of typical
printed applications" — the commonly used bound in the printed-ML literature
is on the order of 100 cm^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.hw.cells import CellLibrary
from repro.hw.netlist import GateNetlist, HardwareBlock
from repro.hw.pdk import EGFET_PDK

#: Area bound (cm^2) commonly assumed for printed classifier substrates.
TYPICAL_PRINTED_AREA_LIMIT_CM2 = 100.0


@dataclass
class AreaReport:
    """Total area and per-child breakdown of a design."""

    total_cm2: float
    breakdown_cm2: Dict[str, float]
    n_cells: int
    limit_cm2: float = TYPICAL_PRINTED_AREA_LIMIT_CM2

    @property
    def within_limit(self) -> bool:
        """Whether the design fits the typical printed-substrate area budget."""
        return self.total_cm2 <= self.limit_cm2

    @property
    def utilization(self) -> float:
        """Fraction of the area budget the design consumes."""
        return self.total_cm2 / self.limit_cm2

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        parts = ", ".join(f"{k}: {v:.2f}" for k, v in self.breakdown_cm2.items())
        return f"area {self.total_cm2:.2f} cm^2 ({parts})"


class AreaAnalyzer:
    """Roll up the printed area of a design and its major sub-blocks."""

    def __init__(
        self,
        library: Optional[CellLibrary] = None,
        limit_cm2: float = TYPICAL_PRINTED_AREA_LIMIT_CM2,
    ) -> None:
        self.library = library or EGFET_PDK
        self.limit_cm2 = float(limit_cm2)

    def analyze(self, block: HardwareBlock) -> AreaReport:
        """Compute the area report of a design."""
        total = block.area_cm2(self.library)
        breakdown = {
            child.name: child.area_cm2(self.library) for child in block.children
        }
        return AreaReport(
            total_cm2=total,
            breakdown_cm2=breakdown,
            n_cells=block.n_cells(),
            limit_cm2=self.limit_cm2,
        )


def analyze_area(block: HardwareBlock, library: Optional[CellLibrary] = None) -> AreaReport:
    """Convenience wrapper around :class:`AreaAnalyzer`."""
    return AreaAnalyzer(library=library).analyze(block)


def analyze_netlist_area(
    netlist: GateNetlist,
    library: Optional[CellLibrary] = None,
    opt_level: Optional[int] = None,
    limit_cm2: float = TYPICAL_PRINTED_AREA_LIMIT_CM2,
) -> AreaReport:
    """Area report computed from exact gate counts of an explicit netlist.

    ``opt_level`` optionally runs the :mod:`repro.hw.opt` optimizer
    first, so the report prices the optimized structure — the exact-count
    companion to the formula-based :func:`analyze_area` estimates.
    """
    from repro.hw.opt.lowering import netlist_to_block

    block = netlist_to_block(netlist, library=library, level=opt_level)
    return AreaAnalyzer(library=library, limit_cm2=limit_cm2).analyze(block)
