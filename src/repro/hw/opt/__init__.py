"""Netlist optimization: one sweep over explicit gate-level netlists.

The RTL generators emit netlists verbatim — including logic whose inputs are
tied-off constants (hardwired-coefficient multipliers with zero or
power-of-two weights being the canonical case).  This package optimizes such
netlists before any downstream layer consumes them:

* :func:`optimize` — constant folding, buffer/double-inverter collapsing and
  structural hashing in one forward sweep over the gates, then dead-gate
  removal in one liveness walk (:mod:`repro.hw.opt.sweep`); returns an
  :class:`OptResult` (optimized :class:`~repro.hw.netlist.GateNetlist` +
  :class:`OptStats` with removal counts per kind of rewrite).
* :func:`~repro.hw.opt.fold.fold_plan` — what a gate with tied or repeated
  pins becomes, from its cell's truth table (:mod:`repro.hw.opt.fold`).
* :func:`check_equivalence` — random-vector bit-parallel equivalence of raw
  vs optimized netlists (the correctness contract of the whole package).
* :func:`netlist_to_block` — lower a (optionally optimized) netlist to a
  priced :class:`~repro.hw.netlist.HardwareBlock` for exact area / power /
  timing next to the formula-based estimates.

Consumers: ``compile_netlist(..., opt_level=...)`` (compiled simulation),
``netlist_to_verilog(..., opt_level=...)`` (export),
``analyze_netlist_timing`` / ``analyze_netlist_area`` /
``analyze_netlist_power`` (pricing) and the Table I ``--opt-level`` report.
"""

from repro.hw.opt.lowering import netlist_to_block
from repro.hw.opt.sweep import (
    COMMUTATIVE_CELLS,
    DEFAULT_OPAQUE_CELLS,
    MAX_OPT_LEVEL,
    OptimizationError,
    OptResult,
    OptStats,
    check_equivalence,
    optimize,
)

__all__ = [
    "netlist_to_block",
    "COMMUTATIVE_CELLS",
    "DEFAULT_OPAQUE_CELLS",
    "MAX_OPT_LEVEL",
    "OptimizationError",
    "OptResult",
    "OptStats",
    "check_equivalence",
    "optimize",
]
