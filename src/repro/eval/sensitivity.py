"""PDK-sensitivity analysis: do the paper's conclusions survive calibration error?

The hardware numbers in this reproduction rest on a calibrated stand-in for
the EGFET PDK (DESIGN.md, "Calibration policy").  A fair question is whether
the qualitative conclusions — the sequential design wins energy, fits the
printed battery, clocks faster — depend on the precise calibration values.

:func:`sweep_pdk_parameters` re-prices already-generated designs under
perturbed cell libraries (scaled area, static power, switching energy and
delay) *without retraining anything*, and reports whether each conclusion
holds at every perturbation.  This is the printed-electronics equivalent of
corner analysis: if a conclusion only holds at the nominal corner it is not
a robust conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.parallel_mlp import ParallelMLPDesign
from repro.core.parallel_svm import ParallelSVMDesign
from repro.core.report import ClassifierHardwareReport
from repro.core.sequential_svm import SequentialSVMDesign
from repro.hw.pdk import DEFAULT_PDK_PARAMETERS, PDKParameters, build_printed_library


@dataclass(frozen=True)
class PDKCorner:
    """One perturbed calibration point (multiplicative scale factors)."""

    name: str
    area_scale: float = 1.0
    static_power_scale: float = 1.0
    switch_energy_scale: float = 1.0
    delay_scale: float = 1.0

    def apply(self, base: PDKParameters = DEFAULT_PDK_PARAMETERS) -> PDKParameters:
        """Scaled PDK parameters for this corner."""
        for factor in (
            self.area_scale,
            self.static_power_scale,
            self.switch_energy_scale,
            self.delay_scale,
        ):
            if factor <= 0:
                raise ValueError("corner scale factors must be positive")
        return replace(
            base,
            nand2_area_cm2=base.nand2_area_cm2 * self.area_scale,
            nand2_static_power_mw=base.nand2_static_power_mw * self.static_power_scale,
            nand2_switch_energy_mj=base.nand2_switch_energy_mj * self.switch_energy_scale,
        )

    @property
    def delay_factor(self) -> float:
        """Delay scaling is applied through the library's cell delays."""
        return self.delay_scale


#: Default corner set: nominal, each parameter +/-30 %, and combined corners.
DEFAULT_CORNERS: tuple = (
    PDKCorner("nominal"),
    PDKCorner("area+30%", area_scale=1.3),
    PDKCorner("area-30%", area_scale=0.7),
    PDKCorner("static+30%", static_power_scale=1.3),
    PDKCorner("static-30%", static_power_scale=0.7),
    PDKCorner("switch+30%", switch_energy_scale=1.3),
    PDKCorner("switch-30%", switch_energy_scale=0.7),
    PDKCorner("delay+30%", delay_scale=1.3),
    PDKCorner("delay-30%", delay_scale=0.7),
    PDKCorner("slow-hungry", static_power_scale=1.3, switch_energy_scale=1.3, delay_scale=1.3),
    PDKCorner("fast-frugal", static_power_scale=0.7, switch_energy_scale=0.7, delay_scale=0.7),
)


def build_corner_library(corner: PDKCorner):
    """Cell library for a corner (delay scaling applied per cell)."""
    params = corner.apply()
    library = build_printed_library(params, name=f"EGFET[{corner.name}]")
    if corner.delay_factor != 1.0:
        # Rebuild with scaled delays: CellType is frozen, so construct a new
        # library with every cell's delay scaled.
        from repro.hw.cells import CellLibrary, CellType

        scaled_cells = [
            CellType(
                name=cell.name,
                n_inputs=cell.n_inputs,
                n_outputs=cell.n_outputs,
                area_cm2=cell.area_cm2,
                static_power_mw=cell.static_power_mw,
                switch_energy_mj=cell.switch_energy_mj,
                delay_ms=cell.delay_ms * corner.delay_factor,
                is_sequential=cell.is_sequential,
                description=cell.description,
                function=cell.function,
            )
            for cell in (library[name] for name in library.cell_names())
        ]
        library = CellLibrary(
            name=library.name,
            cells=scaled_cells,
            supply_voltage=library.supply_voltage,
            clock_power_overhead=library.clock_power_overhead,
            wire_delay_factor=library.wire_delay_factor,
            description=library.description,
        )
    return library


@dataclass
class CornerResult:
    """Reports of every design of one dataset under one PDK corner."""

    corner: PDKCorner
    dataset: str
    reports: Dict[str, ClassifierHardwareReport]

    def conclusion_energy_win(self) -> bool:
        """Proposed design uses less energy than both parallel SVM baselines."""
        ours = self.reports["ours"]
        return all(
            ours.energy_mj < self.reports[kind].energy_mj
            for kind in ("svm_parallel_exact", "svm_parallel_approx")
            if kind in self.reports
        )

    def conclusion_battery_fit(self, budget_mw: float = 30.0) -> bool:
        """Proposed design stays within the printed-battery power budget."""
        return self.reports["ours"].power_mw <= budget_mw

    def conclusion_faster_clock(self) -> bool:
        """Proposed design clocks faster than the exact parallel baseline."""
        if "svm_parallel_exact" not in self.reports:
            return True
        return (
            self.reports["ours"].frequency_hz
            > self.reports["svm_parallel_exact"].frequency_hz
        )


@dataclass
class SensitivityReport:
    """Outcome of the full corner sweep for one dataset."""

    dataset: str
    corners: List[CornerResult] = field(default_factory=list)

    def conclusion_holds_everywhere(self, conclusion: str, **kwargs) -> bool:
        """Whether a named conclusion holds at every swept corner."""
        checker = {
            "energy_win": lambda c: c.conclusion_energy_win(),
            "battery_fit": lambda c: c.conclusion_battery_fit(**kwargs),
            "faster_clock": lambda c: c.conclusion_faster_clock(),
        }[conclusion]
        return all(checker(corner) for corner in self.corners)

    def energy_improvement_range(self) -> tuple:
        """(min, max) energy improvement vs the exact parallel SVM across corners."""
        ratios = []
        for corner in self.corners:
            if "svm_parallel_exact" not in corner.reports:
                continue
            ratios.append(
                corner.reports["svm_parallel_exact"].energy_mj
                / corner.reports["ours"].energy_mj
            )
        if not ratios:
            raise ValueError("no exact-baseline reports in the sweep")
        return (min(ratios), max(ratios))

    def summary(self) -> str:
        """Readable per-corner summary."""
        lines = [f"PDK sensitivity sweep for {self.dataset}:"]
        for corner in self.corners:
            ours = corner.reports["ours"]
            lines.append(
                f"  {corner.corner.name:14s} ours: {ours.power_mw:6.1f} mW, "
                f"{ours.energy_mj:6.3f} mJ  "
                f"energy-win={corner.conclusion_energy_win()}  "
                f"battery-fit={corner.conclusion_battery_fit()}"
            )
        return "\n".join(lines)


def _rebuild_design(flow_result, library):
    """Re-instantiate a flow result's design against a different library."""
    kind = flow_result.kind
    design = flow_result.design
    if kind == "ours":
        return SequentialSVMDesign(
            design.model,
            storage_style=design.storage_style,
            library=library,
            dataset=flow_result.dataset,
        )
    if kind in ("svm_parallel_exact", "svm_parallel_approx"):
        rebuilt = ParallelSVMDesign(
            design.model,
            style=design.style,
            approx_drop_bits=0,  # the stored model is already truncated
            library=library,
            dataset=flow_result.dataset,
        )
        return rebuilt
    return ParallelMLPDesign(design.model, library=library, dataset=flow_result.dataset)


def _price_corner(
    flow_results: Sequence, corner: PDKCorner
) -> Dict[str, ClassifierHardwareReport]:
    """Re-price every design of one dataset under one corner."""
    library = build_corner_library(corner)
    reports: Dict[str, ClassifierHardwareReport] = {}
    for flow_result in flow_results:
        design = _rebuild_design(flow_result, library)
        reports[flow_result.kind] = design.evaluate(
            flow_result.split.X_test, flow_result.split.y_test
        )
    return reports


def sweep_pdk_parameters(
    flow_results: Sequence,
    corners: Iterable[PDKCorner] = DEFAULT_CORNERS,
    dataset: Optional[str] = None,
) -> SensitivityReport:
    """Re-price a dataset's designs under every PDK corner.

    Parameters
    ----------
    flow_results:
        The :class:`~repro.core.design_flow.FlowResult` objects of one dataset
        (any subset of the four model kinds; must include ``"ours"``).
    corners:
        The PDK corners to sweep (defaults to +/-30 % single- and
        multi-parameter corners).
    dataset:
        Dataset name for the report (inferred from the first result if omitted).
    """
    flow_results = list(flow_results)
    if not flow_results:
        raise ValueError("no flow results given")
    if not any(r.kind == "ours" for r in flow_results):
        raise ValueError("the sweep needs the proposed design ('ours') to compare against")
    dataset = dataset or flow_results[0].dataset
    report = SensitivityReport(dataset=dataset)
    for corner in corners:
        report.corners.append(
            CornerResult(
                corner=corner,
                dataset=dataset,
                reports=_price_corner(flow_results, corner),
            )
        )
    return report
