"""Netlist abstractions for the printed-hardware estimation flow.

Two levels of structural detail coexist:

* :class:`HardwareBlock` — the workhorse of the cost-estimation flow.  A
  block is characterised by its cell inventory (``counts``), the cell types
  along its critical path (``path``) and its expected switching activity per
  evaluation (``toggles``).  Blocks compose hierarchically (series /
  parallel), so a whole classifier design is itself one block whose area,
  delay and energy roll up from its children.  This keeps cost estimation of
  designs with 10^5 cells instantaneous while remaining faithful to the
  structural description (exact per-cell-type counts derived from the
  generator formulas).

* :class:`GateNetlist` — an explicit gate-level netlist (cells + nets with
  full connectivity).  The RTL generators can emit these for concrete
  instances; they are used by the gate-level logic simulator
  (:mod:`repro.hw.simulate`) to verify generated arithmetic against the
  integer behavioural model, and by the Verilog writer
  (:mod:`repro.hw.verilog`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.hw.cells import CellLibrary, CellType


# --------------------------------------------------------------------------- #
# Aggregate (macro) hardware blocks
# --------------------------------------------------------------------------- #
class HardwareBlock:
    """A hardware component characterised by counts, critical path and activity.

    Parameters
    ----------
    name:
        Hierarchical instance name (used in reports).
    counts:
        Total number of cells per cell type in the block.
    path:
        Number of cells of each type along the block's critical path.  The
        block delay is the sum of those cells' delays.
    toggles:
        Expected number of output transitions per *evaluation* of the block,
        per cell type (fractional values allowed — they are expectations).
        Includes glitching.
    children:
        Sub-blocks this block was composed from (kept for reporting).
    """

    def __init__(
        self,
        name: str,
        counts: Optional[Dict[str, int]] = None,
        path: Optional[Dict[str, int]] = None,
        toggles: Optional[Dict[str, float]] = None,
        children: Optional[Sequence["HardwareBlock"]] = None,
    ) -> None:
        self.name = name
        self.counts: Counter = Counter(counts or {})
        self.path: Counter = Counter(path or {})
        self.toggles: Dict[str, float] = dict(toggles or {})
        self.children: List[HardwareBlock] = list(children or [])

    # -- composition ------------------------------------------------------ #
    def add(self, other: "HardwareBlock", in_series: bool = False) -> "HardwareBlock":
        """Merge ``other`` into this block.

        ``in_series=True`` means ``other`` is on the same combinational path
        (its path cells extend this block's critical path); ``False`` means
        it operates in parallel (the critical path is the longer of the two).
        """
        self.counts.update(other.counts)
        for cell, t in other.toggles.items():
            self.toggles[cell] = self.toggles.get(cell, 0.0) + t
        if in_series:
            self.path.update(other.path)
        else:
            # Parallel composition: keep whichever path is worse.  Delay
            # comparison needs a library, so approximate with the FA-heavy
            # heuristic: compare weighted level counts.  The precise delay is
            # always recomputed from `path` with the library at report time,
            # so only the *choice* of the representative path is heuristic.
            if _path_weight(other.path) > _path_weight(self.path):
                self.path = Counter(other.path)
        self.children.append(other)
        return self

    def scaled(self, factor: int, name: Optional[str] = None) -> "HardwareBlock":
        """Return ``factor`` parallel copies of this block as a new block."""
        if factor < 1:
            raise ValueError("factor must be >= 1")
        counts = Counter({c: n * factor for c, n in self.counts.items()})
        toggles = {c: t * factor for c, t in self.toggles.items()}
        return HardwareBlock(
            name=name or f"{self.name}_x{factor}",
            counts=counts,
            path=Counter(self.path),
            toggles=toggles,
            children=[self],
        )

    # -- physical roll-ups ------------------------------------------------ #
    def n_cells(self) -> int:
        """Total number of cells in the block."""
        return int(sum(self.counts.values()))

    def area_cm2(self, library: CellLibrary) -> float:
        """Total printed area of the block."""
        return library.area_of(self.counts)

    def static_power_mw(self, library: CellLibrary) -> float:
        """Static (cross-current) power of the block."""
        return library.static_power_of(self.counts)

    def critical_path_delay_ms(self, library: CellLibrary) -> float:
        """Delay along the recorded critical path."""
        return library.delay_of_path(self.path)

    def logic_depth(self) -> int:
        """Number of cells along the critical path."""
        return int(sum(self.path.values()))

    def switching_energy_mj(self, library: CellLibrary) -> float:
        """Expected switching energy per evaluation of the block."""
        return library.switch_energy_of(self.toggles)

    # -- reporting --------------------------------------------------------- #
    def cell_report(self) -> Dict[str, int]:
        """Cell inventory as a plain dictionary (sorted by cell name)."""
        return {name: int(self.counts[name]) for name in sorted(self.counts)}

    def hierarchy_report(self, library: CellLibrary, indent: int = 0) -> str:
        """Readable area/cell breakdown of the block hierarchy."""
        pad = "  " * indent
        lines = [
            f"{pad}{self.name}: {self.n_cells()} cells, "
            f"{self.area_cm2(library):.3f} cm^2, depth {self.logic_depth()}"
        ]
        for child in self.children:
            lines.append(child.hierarchy_report(library, indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HardwareBlock({self.name!r}, cells={self.n_cells()})"


def _path_weight(path: Counter) -> float:
    """Heuristic path weight used only to pick the longer of two paths."""
    # FA and DFF are the slowest common cells; weight by typical delay ratios.
    weights = {"FA": 3.2, "DFF": 4.0, "XOR2": 1.9, "XNOR2": 1.9, "HA": 2.0, "ADC1": 53.0}
    return sum(weights.get(cell, 1.0) * n for cell, n in path.items())


def series(name: str, blocks: Iterable[HardwareBlock]) -> HardwareBlock:
    """Compose blocks whose critical paths are concatenated (cascade)."""
    result = HardwareBlock(name)
    for block in blocks:
        result.add(block, in_series=True)
    return result


def parallel(name: str, blocks: Iterable[HardwareBlock]) -> HardwareBlock:
    """Compose blocks that operate side by side (critical path = worst child)."""
    result = HardwareBlock(name)
    for block in blocks:
        result.add(block, in_series=False)
    return result


def empty_block(name: str = "empty") -> HardwareBlock:
    """A block with no hardware (used as a neutral element in folds)."""
    return HardwareBlock(name)


# --------------------------------------------------------------------------- #
# Explicit gate-level netlists
# --------------------------------------------------------------------------- #
@dataclass
class GateInstance:
    """One cell instance in a :class:`GateNetlist`."""

    name: str
    cell: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]


def output_count_error(gate: GateInstance, cell: CellType) -> ValueError:
    """The error for a gate whose output-net count differs from its cell's.

    Raised by every walk that evaluates gates (the compiler's lowerer and
    the interpreted reference simulators) instead of indexing past the
    gate's nets or dropping the cell's extra outputs.
    """
    return ValueError(
        f"gate {gate.name!r} has {len(gate.outputs)} output nets but its cell "
        f"{cell.name} has {cell.n_outputs} outputs"
    )


@dataclass
class GateNetlist:
    """An explicit structural netlist of library cells.

    Nets are identified by string names.  Primary inputs/outputs are declared
    explicitly; constant nets ``"1'b0"`` and ``"1'b1"`` are always available.

    Clocked netlists use the two-phase flip-flop API: :meth:`declare_dff`
    announces a register output (so combinational logic may read it before
    the data input exists) and :meth:`bind_dff` closes the feedback loop —
    the only way to express e.g. a counter whose increment logic reads its
    own state.  Power-on values live in :attr:`dff_init` (per instance,
    default 0); the sequential engine (:mod:`repro.perf.seqsim`) and the
    interpreted reference walk both honour them.
    """

    name: str
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    gates: List[GateInstance] = field(default_factory=list)
    #: Power-on value (0/1) of each flip-flop, keyed by instance name.
    #: Instances absent from the map reset to 0.
    dff_init: Dict[str, int] = field(default_factory=dict)
    _net_drivers: Dict[str, str] = field(default_factory=dict)
    #: Every instance by name, kept current by the builder and by
    #: :meth:`note_structural_change`, so :meth:`bind_dff` and
    #: :meth:`driver_of` find a gate without rebuilding anything.
    _gate_by_name: Dict[str, GateInstance] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Lazily-built (signature, fanout counter) cache so fanout_of is O(1)
    #: instead of scanning every gate.
    _index_cache: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Monotonic counter bumped by every structural mutation.  Derived caches
    #: (the index maps here, the compiled programs of :mod:`repro.perf` and
    #: the optimized netlists of :mod:`repro.hw.opt`) key on it, so *any*
    #: rewrite — not just growth — invalidates them.
    _structure_version: int = field(default=0, init=False, repr=False, compare=False)

    CONST_ZERO = "1'b0"
    CONST_ONE = "1'b1"

    # -- construction ------------------------------------------------------ #
    def add_input(self, net: str) -> str:
        if net in self.inputs:
            raise ValueError(f"duplicate primary input {net!r}")
        if net in self._net_drivers:
            raise ValueError(f"net {net!r} already driven by {self._net_drivers[net]!r}")
        self.inputs.append(net)
        self._net_drivers[net] = "<primary-input>"
        self._structure_version += 1
        return net

    def add_inputs(self, prefix: str, width: int) -> List[str]:
        """Declare a bus of primary inputs ``prefix[0] .. prefix[width-1]``."""
        return [self.add_input(f"{prefix}[{i}]") for i in range(width)]

    def mark_output(self, net: str) -> None:
        if net not in self._net_drivers and net not in (self.CONST_ZERO, self.CONST_ONE):
            raise ValueError(f"cannot mark undriven net {net!r} as output")
        if net not in self.outputs:
            self.outputs.append(net)
            self._structure_version += 1

    def add_gate(
        self,
        cell: str,
        inputs: Sequence[str],
        outputs: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
    ) -> Tuple[str, ...]:
        """Instantiate a cell; returns the names of its output nets."""
        index = len(self.gates)
        inst_name = name or f"u{index}"
        if inst_name in self._gate_by_name:
            raise ValueError(f"duplicate instance name {inst_name!r}")
        for net in inputs:
            if net not in self._net_drivers and net not in (
                self.CONST_ZERO,
                self.CONST_ONE,
            ):
                raise ValueError(f"gate {inst_name!r} reads undriven net {net!r}")
        if outputs is None:
            outputs = [f"{inst_name}_o{k}" for k in range(self._n_outputs_of(cell))]
        for net in outputs:
            if net in self._net_drivers:
                raise ValueError(
                    f"net {net!r} already driven by {self._net_drivers[net]!r}"
                )
            self._net_drivers[net] = inst_name
        gate = GateInstance(
            name=inst_name, cell=cell, inputs=tuple(inputs), outputs=tuple(outputs)
        )
        self.gates.append(gate)
        self._gate_by_name[inst_name] = gate
        self._structure_version += 1
        return gate.outputs

    # -- sequential construction ------------------------------------------- #
    def declare_dff(
        self,
        q: str,
        name: Optional[str] = None,
        cell: str = "DFF",
        init: int = 0,
    ) -> str:
        """Declare a flip-flop output ``q`` with its data input still open.

        The returned net is immediately readable by combinational logic,
        which is what makes feedback loops (counter increment, accumulator
        update) expressible in the append-only builder.  The instance stays
        *unbound* until :meth:`bind_dff` connects its D pin; compiling or
        simulating a netlist with unbound flip-flops raises.
        """
        index = len(self.gates)
        inst_name = name or f"u{index}"
        if inst_name in self._gate_by_name:
            raise ValueError(f"duplicate instance name {inst_name!r}")
        if q in self._net_drivers:
            raise ValueError(f"net {q!r} already driven by {self._net_drivers[q]!r}")
        self._net_drivers[q] = inst_name
        gate = GateInstance(name=inst_name, cell=cell, inputs=(), outputs=(q,))
        self.gates.append(gate)
        self._gate_by_name[inst_name] = gate
        if init:
            self.dff_init[inst_name] = 1
        self._structure_version += 1
        return q

    def bind_dff(self, q: str, d: str) -> None:
        """Connect the data input of the flip-flop driving ``q`` to net ``d``."""
        driver = self._net_drivers.get(q)
        if driver in (None, "<primary-input>"):
            raise ValueError(f"net {q!r} is not driven by a flip-flop")
        gate = self._gate_by_name[driver]
        if gate.inputs:
            raise ValueError(f"flip-flop {gate.name!r} is already bound")
        if d not in self._net_drivers and d not in (self.CONST_ZERO, self.CONST_ONE):
            raise ValueError(f"flip-flop {gate.name!r} reads undriven net {d!r}")
        gate.inputs = (d,)
        self._structure_version += 1

    def add_dff(
        self, d: str, q: str, name: Optional[str] = None, init: int = 0
    ) -> str:
        """One-call flip-flop for the feed-forward case (``d`` already driven)."""
        self.declare_dff(q, name=name, init=init)
        self.bind_dff(q, d)
        return q

    def sequential_gates(self, library: Optional[CellLibrary] = None) -> List[GateInstance]:
        """Flip-flop instances, in declaration order.

        With a library, any cell whose :attr:`~repro.hw.cells.CellType.is_sequential`
        flag is set counts; without one, the generic ``DFF`` name is used.
        """
        if library is None:
            return [g for g in self.gates if g.cell == "DFF"]
        return [g for g in self.gates if library[g.cell].is_sequential]

    def unbound_dffs(self) -> List[str]:
        """Names of flip-flops declared but never bound (must be empty to run)."""
        return [g.name for g in self.gates if not g.inputs and g.cell == "DFF"]

    def note_structural_change(self) -> None:
        """Declare an in-place structural rewrite of the netlist.

        The builder API only ever appends, but optimization passes (and any
        external tooling) may rewrite ``gates`` / ``outputs`` directly —
        replacing a gate's cell, rewiring pins, dropping gates.  Calling this
        afterwards rebuilds the derived driver/instance maps from the current
        structure and bumps the structure version, which invalidates every
        version-keyed cache (the fanout map, compiled programs, optimized
        netlists) even when the mutation left all the counts unchanged.
        """
        self._structure_version += 1
        drivers: Dict[str, str] = {net: "<primary-input>" for net in self.inputs}
        for gate in self.gates:
            for net in gate.outputs:
                drivers[net] = gate.name
        self._net_drivers = drivers
        self._gate_by_name = {gate.name: gate for gate in self.gates}

    @staticmethod
    def _n_outputs_of(cell: str) -> int:
        # HA/FA produce (sum, carry); everything else in the generic set is 1-output.
        return 2 if cell in ("HA", "FA") else 1

    # -- queries ----------------------------------------------------------- #
    def cell_counts(self) -> Counter:
        """Number of instances per cell type."""
        return Counter(g.cell for g in self.gates)

    def n_gates(self) -> int:
        return len(self.gates)

    def nets(self) -> List[str]:
        """All declared nets (inputs plus every gate output)."""
        nets = list(self.inputs)
        for gate in self.gates:
            nets.extend(gate.outputs)
        return nets

    def structural_signature(self) -> tuple:
        """Cheap signature identifying the current netlist structure.

        Combines the mutation version with the gate/input/output counts:
        growth through the builder API and in-place rewrites announced via
        :meth:`note_structural_change` both change it, so any cache keyed on
        it is invalidated by every structural mutation.
        """
        return (
            self._structure_version,
            len(self.gates),
            len(self.inputs),
            len(self.outputs),
        )

    def _indices(self) -> Counter:
        """Precomputed fanout-count map, version-invalidated."""
        signature = self.structural_signature()
        if self._index_cache is not None and self._index_cache[0] == signature:
            return self._index_cache[1]
        fanout: Counter = Counter()
        for gate in self.gates:
            fanout.update(gate.inputs)
        for net in self.outputs:
            fanout[net] += 1
        self._index_cache = (signature, fanout)
        return fanout

    def driver_of(self, net: str) -> Optional[GateInstance]:
        """The gate driving ``net`` (None for primary inputs / constants)."""
        driver = self._net_drivers.get(net)
        if driver in (None, "<primary-input>"):
            return None
        return self._gate_by_name.get(driver)

    def fanout_of(self, net: str) -> int:
        """Number of gate inputs the net drives (plus 1 if it is an output)."""
        return int(self._indices().get(net, 0))

    def to_block(self, name: Optional[str] = None, library: Optional[CellLibrary] = None) -> HardwareBlock:
        """Collapse the explicit netlist into a :class:`HardwareBlock`.

        The critical path is extracted by longest-path analysis over the
        gate graph (unit = one cell of the gate's type); activity defaults to
        0.5 toggles per gate per evaluation, which the caller may override.
        :func:`repro.hw.opt.netlist_to_block` is the same lowering with an
        optional optimization level applied first.
        """
        from repro.hw.opt.lowering import netlist_to_block

        return netlist_to_block(self, name=name, library=library)
