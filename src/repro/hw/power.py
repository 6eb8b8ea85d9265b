"""Power and energy estimation for printed designs.

Printed EGFET logic draws a steady cross-current, so *static* power scales
with the cell inventory and dominates for small or mostly-idle designs (such
as hardwired MUX storage).  *Dynamic* power is the switching energy spent per
evaluation times the evaluation rate; for the deep fully-parallel baselines
this component is substantial because every multiplier and adder toggles (and
glitches) on every evaluation, while the folded sequential design only
activates one classifier's worth of arithmetic per cycle.

The total power and the per-classification energy computed here are the
quantities reported in the paper's Table I (Power in mW, Energy in mJ).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hw.cells import CellLibrary
from repro.hw.netlist import GateNetlist, HardwareBlock
from repro.hw.pdk import EGFET_PDK


@dataclass
class PowerReport:
    """Breakdown of a design's power and per-classification energy."""

    static_mw: float
    dynamic_mw: float
    frequency_hz: float
    cycles_per_classification: int
    switching_energy_per_cycle_mj: float

    @property
    def total_mw(self) -> float:
        """Total average power (what Table I reports as "Power")."""
        return self.static_mw + self.dynamic_mw

    @property
    def latency_ms(self) -> float:
        """Time to produce one classification."""
        return 1000.0 * self.cycles_per_classification / self.frequency_hz

    @property
    def energy_per_classification_mj(self) -> float:
        """Energy per classification (what Table I reports as "Energy")."""
        return self.total_mw * self.latency_ms / 1000.0

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        return (
            f"power {self.total_mw:.2f} mW "
            f"(static {self.static_mw:.2f} + dynamic {self.dynamic_mw:.2f}), "
            f"latency {self.latency_ms:.1f} ms, "
            f"energy {self.energy_per_classification_mj:.3f} mJ"
        )


class PowerAnalyzer:
    """Estimate power and per-classification energy of a design."""

    def __init__(self, library: Optional[CellLibrary] = None) -> None:
        self.library = library or EGFET_PDK

    def analyze(
        self,
        block: HardwareBlock,
        frequency_hz: float,
        cycles_per_classification: int = 1,
        duty_cycle: float = 1.0,
    ) -> PowerReport:
        """Compute the power report of a design.

        Parameters
        ----------
        block:
            The design; its ``toggles`` field holds the expected output
            transitions per cycle, per cell type.
        frequency_hz:
            Clock (or evaluation) frequency from the timing analysis.
        cycles_per_classification:
            Number of cycles a classification takes: 1 for the fully-parallel
            baselines, ``n_classifiers`` for the sequential architecture.
        duty_cycle:
            Fraction of time the circuit is active.  The paper reports power
            while classifying continuously (duty cycle 1.0); the battery-life
            example explores lower duty cycles.
        """
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        if cycles_per_classification < 1:
            raise ValueError("cycles_per_classification must be >= 1")
        if not 0.0 < duty_cycle <= 1.0:
            raise ValueError("duty_cycle must be in (0, 1]")

        static_mw = block.static_power_mw(self.library)
        energy_per_cycle_mj = block.switching_energy_mj(self.library)
        # mJ per cycle * cycles per second = mW
        dynamic_mw = energy_per_cycle_mj * frequency_hz * duty_cycle
        return PowerReport(
            static_mw=static_mw,
            dynamic_mw=dynamic_mw,
            frequency_hz=frequency_hz,
            cycles_per_classification=cycles_per_classification,
            switching_energy_per_cycle_mj=energy_per_cycle_mj,
        )


def analyze_power(
    block: HardwareBlock,
    frequency_hz: float,
    cycles_per_classification: int = 1,
    library: Optional[CellLibrary] = None,
) -> PowerReport:
    """Convenience wrapper around :class:`PowerAnalyzer`."""
    return PowerAnalyzer(library=library).analyze(
        block, frequency_hz, cycles_per_classification
    )


def analyze_netlist_power(
    netlist: GateNetlist,
    frequency_hz: float,
    cycles_per_classification: int = 1,
    library: Optional[CellLibrary] = None,
    opt_level: Optional[int] = None,
) -> PowerReport:
    """Power report computed from exact gate counts of an explicit netlist.

    ``opt_level`` optionally runs the :mod:`repro.hw.opt` optimizer
    first, so static power and switching energy reflect the optimized cell
    inventory — the exact-count companion to the formula-based
    :func:`analyze_power` estimates.
    """
    from repro.hw.opt.lowering import netlist_to_block

    block = netlist_to_block(netlist, library=library, level=opt_level)
    return PowerAnalyzer(library=library).analyze(
        block, frequency_hz, cycles_per_classification
    )
