"""Standard-cell abstraction for the printed (EGFET) technology library.

A :class:`CellType` carries everything the estimation flow needs to know
about one library cell:

* ``area_cm2`` — printed cells are measured in square *centimetres*, not
  square microns; feature sizes of inkjet-printed EGFETs are tens to
  hundreds of micrometres.
* ``static_power_mw`` — printed resistor-load / EGFET logic draws a steady
  cross-current, which dominates total power at the Hz-range operating
  frequencies typical of printed applications.
* ``switch_energy_mj`` — energy drawn per output transition (charging the
  very large gate/wire capacitances of printed nets).
* ``delay_ms`` — propagation delay; printed gates switch in the
  sub-millisecond range, which is why printed classifiers run at a few Hz.
* ``function`` — a boolean function used by the gate-level logic simulator
  to verify generated netlists against the integer behavioural model.

A :class:`CellLibrary` is a named collection of cell types plus a handful of
technology-level constants (supply voltage, clock-tree overhead factors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

#: Type of a cell's boolean function: maps an input-bit tuple to output bits.
CellFunction = Callable[[Tuple[int, ...]], Tuple[int, ...]]


@dataclass(frozen=True)
class CellType:
    """One cell of the printed standard-cell library."""

    name: str
    n_inputs: int
    n_outputs: int
    area_cm2: float
    static_power_mw: float
    switch_energy_mj: float
    delay_ms: float
    is_sequential: bool = False
    description: str = ""
    function: Optional[CellFunction] = None

    def __post_init__(self) -> None:
        if self.n_inputs < 0 or self.n_outputs < 1:
            raise ValueError(f"cell {self.name}: invalid pin counts")
        if self.area_cm2 < 0 or self.static_power_mw < 0:
            raise ValueError(f"cell {self.name}: negative physical quantity")
        if self.switch_energy_mj < 0 or self.delay_ms < 0:
            raise ValueError(f"cell {self.name}: negative physical quantity")

    def evaluate(self, inputs: Sequence[int]) -> Tuple[int, ...]:
        """Evaluate the cell's boolean function on 0/1 inputs."""
        if self.function is None:
            raise NotImplementedError(f"cell {self.name} has no simulation model")
        if len(inputs) != self.n_inputs:
            raise ValueError(
                f"cell {self.name} expects {self.n_inputs} inputs, got {len(inputs)}"
            )
        bits = tuple(1 if b else 0 for b in inputs)
        out = self.function(bits)
        if len(out) != self.n_outputs:
            raise RuntimeError(
                f"cell {self.name} simulation model returned {len(out)} outputs, "
                f"expected {self.n_outputs}"
            )
        return tuple(1 if b else 0 for b in out)


class CellLibrary:
    """A collection of :class:`CellType` plus technology constants."""

    def __init__(
        self,
        name: str,
        cells: Iterable[CellType],
        supply_voltage: float = 1.0,
        clock_power_overhead: float = 0.05,
        wire_delay_factor: float = 0.0,
        description: str = "",
    ) -> None:
        self.name = name
        self.supply_voltage = float(supply_voltage)
        #: Fraction of sequential-cell power added to account for the clock network.
        self.clock_power_overhead = float(clock_power_overhead)
        #: Extra delay per logic level as a fraction of the cell delay, modelling
        #: the long printed wires of large designs.
        self.wire_delay_factor = float(wire_delay_factor)
        self.description = description
        self._cells: Dict[str, CellType] = {}
        for cell in cells:
            self.add_cell(cell)

    # ------------------------------------------------------------------ #
    def add_cell(self, cell: CellType) -> None:
        if cell.name in self._cells:
            raise ValueError(f"duplicate cell {cell.name!r} in library {self.name!r}")
        self._cells[cell.name] = cell

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __getitem__(self, name: str) -> CellType:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(
                f"cell {name!r} not in library {self.name!r}; "
                f"available: {sorted(self._cells)}"
            ) from None

    def get(self, name: str) -> CellType:
        """Alias of ``__getitem__`` for call sites that prefer a method."""
        return self[name]

    def cell_names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._cells))

    def __len__(self) -> int:
        return len(self._cells)

    # -- aggregate lookups used by area/power/timing roll-ups ------------- #
    def area_of(self, counts: Dict[str, int]) -> float:
        """Total area (cm^2) of a bag of cells."""
        return sum(self[name].area_cm2 * count for name, count in counts.items())

    def static_power_of(self, counts: Dict[str, int]) -> float:
        """Total static power (mW) of a bag of cells, incl. clock overhead."""
        total = 0.0
        for name, count in counts.items():
            cell = self[name]
            power = cell.static_power_mw * count
            if cell.is_sequential:
                power *= 1.0 + self.clock_power_overhead
            total += power
        return total

    def delay_of_path(self, path_counts: Dict[str, int]) -> float:
        """Delay (ms) of a path described as cell-type counts along it."""
        raw = sum(self[name].delay_ms * count for name, count in path_counts.items())
        levels = sum(path_counts.values())
        return raw * (1.0 + self.wire_delay_factor) + 0.0 * levels

    def switch_energy_of(self, toggle_counts: Dict[str, float]) -> float:
        """Energy (mJ) of a bag of expected output toggles per cell type."""
        return sum(
            self[name].switch_energy_mj * toggles
            for name, toggles in toggle_counts.items()
        )


# --------------------------------------------------------------------------- #
# Boolean functions for the generic cell set
# --------------------------------------------------------------------------- #
def _f_inv(b: Tuple[int, ...]) -> Tuple[int, ...]:
    return (1 - b[0],)


def _f_buf(b: Tuple[int, ...]) -> Tuple[int, ...]:
    return (b[0],)


def _f_nand2(b: Tuple[int, ...]) -> Tuple[int, ...]:
    return (1 - (b[0] & b[1]),)


def _f_nor2(b: Tuple[int, ...]) -> Tuple[int, ...]:
    return (1 - (b[0] | b[1]),)


def _f_and2(b: Tuple[int, ...]) -> Tuple[int, ...]:
    return (b[0] & b[1],)


def _f_or2(b: Tuple[int, ...]) -> Tuple[int, ...]:
    return (b[0] | b[1],)


def _f_xor2(b: Tuple[int, ...]) -> Tuple[int, ...]:
    return (b[0] ^ b[1],)


def _f_xnor2(b: Tuple[int, ...]) -> Tuple[int, ...]:
    return (1 - (b[0] ^ b[1]),)


def _f_and3(b: Tuple[int, ...]) -> Tuple[int, ...]:
    return (b[0] & b[1] & b[2],)


def _f_or3(b: Tuple[int, ...]) -> Tuple[int, ...]:
    return (b[0] | b[1] | b[2],)


def _f_mux2(b: Tuple[int, ...]) -> Tuple[int, ...]:
    # inputs: (d0, d1, sel)
    return (b[1] if b[2] else b[0],)


def _f_ha(b: Tuple[int, ...]) -> Tuple[int, ...]:
    # inputs: (a, b) -> (sum, carry)
    return (b[0] ^ b[1], b[0] & b[1])


def _f_fa(b: Tuple[int, ...]) -> Tuple[int, ...]:
    # inputs: (a, b, cin) -> (sum, carry)
    s = b[0] ^ b[1] ^ b[2]
    c = (b[0] & b[1]) | (b[2] & (b[0] ^ b[1]))
    return (s, c)


def _f_dff(b: Tuple[int, ...]) -> Tuple[int, ...]:
    # Combinationally transparent model used only by the zero-delay checker;
    # real sequential behaviour is handled by the cycle-accurate simulator.
    return (b[0],)


#: Name -> (n_inputs, n_outputs, function, is_sequential, description)
GENERIC_CELL_SET: Dict[str, Tuple[int, int, CellFunction, bool, str]] = {
    "INV": (1, 1, _f_inv, False, "inverter"),
    "BUF": (1, 1, _f_buf, False, "buffer"),
    "NAND2": (2, 1, _f_nand2, False, "2-input NAND"),
    "NOR2": (2, 1, _f_nor2, False, "2-input NOR"),
    "AND2": (2, 1, _f_and2, False, "2-input AND"),
    "OR2": (2, 1, _f_or2, False, "2-input OR"),
    "XOR2": (2, 1, _f_xor2, False, "2-input XOR"),
    "XNOR2": (2, 1, _f_xnor2, False, "2-input XNOR"),
    "AND3": (3, 1, _f_and3, False, "3-input AND"),
    "OR3": (3, 1, _f_or3, False, "3-input OR"),
    "MUX2": (3, 1, _f_mux2, False, "2-to-1 multiplexer (d0, d1, sel)"),
    "HA": (2, 2, _f_ha, False, "half adder (sum, carry)"),
    "FA": (3, 2, _f_fa, False, "full adder (sum, carry)"),
    "DFF": (1, 1, _f_dff, True, "D flip-flop"),
    "ADC1": (1, 1, _f_buf, False, "per-column analog-to-digital converter slice"),
}


#: Canonical boolean behaviour of each generic cell name, read from
#: :data:`GENERIC_CELL_SET`.  The compiler direct-lowers a cell only when its
#: declared ``function`` matches this table over the full truth table (a
#: library that redefines a standard name falls back to truth-table lowering),
#: and the optimizer instantiates only library cells that match it.
CANONICAL_SEMANTICS: Dict[str, CellFunction] = {
    name: function for name, (_, _, function, _, _) in GENERIC_CELL_SET.items()
}


def cell_matches_canonical(cell: CellType) -> bool:
    """True when the cell's declared function equals its name's canonical one."""
    canonical = CANONICAL_SEMANTICS.get(cell.name)
    if canonical is None:
        return False
    for assignment in range(1 << cell.n_inputs):
        bits = tuple((assignment >> i) & 1 for i in range(cell.n_inputs))
        if tuple(cell.evaluate(bits)) != tuple(canonical(bits)):
            return False
    return True
