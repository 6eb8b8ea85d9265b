"""Pass manager: run the optimization passes to a fixpoint.

:func:`optimize` is the single entry point every consumer uses — the netlist
compiler (``compile_netlist(..., opt_level=...)``), the Verilog writer, the
timing/area/power netlist lowerings and the Table I reporting all sit on top
of it.  Results are cached on the netlist instance per (library, structural
signature, level), so a netlist is optimized at most once per structure.

Levels
------
* ``0`` — no optimization; the raw netlist is returned untouched.  This is
  the oracle every higher level is checked against.
* ``1`` — constant propagation + dead-gate elimination (the tied-off-logic
  cleanup ROADMAP.md named).
* ``2`` (default, and the maximum) — adds buffer/double-inverter collapsing
  and structural hashing, iterating all four passes until none changes
  anything.

Correctness
-----------
The optimized netlist preserves the primary input *and* output names and
order, so it is a drop-in replacement.  :func:`check_equivalence` sweeps raw
and optimized netlists with random vectors through the bit-parallel engine
(:mod:`repro.perf.bitsim`) and compares all outputs bit-exactly;
``optimize(..., verify=True)`` runs it inline and raises
:class:`OptimizationError` on any mismatch.  The test suite enforces it for
every RTL generator family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.hw.cells import CellLibrary
from repro.hw.netlist import GateNetlist
from repro.hw.opt.ir import IRNetlist
from repro.hw.opt.passes import DEFAULT_OPAQUE_CELLS, PASS_FUNCTIONS, PassContext
from repro.hw.pdk import EGFET_PDK

#: Pass schedule per optimization level (insertion order = run order).
LEVEL_PASSES: Dict[int, Tuple[str, ...]] = {
    0: (),
    1: ("const_prop", "dead_gate"),
    2: ("const_prop", "buffer_collapse", "structural_hash", "dead_gate"),
}

#: Highest distinct level; higher requested levels clamp to it.
MAX_OPT_LEVEL = 2

#: Safety bound on the fixpoint iteration (each iteration runs every pass of
#: the level once; convergence typically takes 2-3 iterations).
MAX_ITERATIONS = 10


class OptimizationError(RuntimeError):
    """The optimized netlist failed the random-vector equivalence check.

    Example::

        try:
            optimize(netlist, level=2, verify=True)
        except OptimizationError:
            ...  # optimized outputs diverged from the raw oracle
    """


@dataclass
class OptStats:
    """What the pass pipeline did to one netlist.

    Example::

        stats = optimize(netlist, level=2).stats
        print(f"{stats.gates_before} -> {stats.gates_after} gates "
              f"({stats.reduction_percent:.0f}% removed)")
    """

    netlist: str
    level: int
    gates_before: int
    gates_after: int
    iterations: int
    #: Net gates removed per pass, accumulated over every iteration.  A
    #: constant-fold that decomposes a big cell into smaller ones (one FA
    #: into XNOR2 + OR2) can make its own entry negative, and reconstruction
    #: may re-add :attr:`port_buffers_added` buffers no pass accounts for, so
    #: ``sum(removed_per_pass.values()) - port_buffers_added ==
    #: gates_removed`` — the pipeline total is what matters.
    removed_per_pass: Dict[str, int]
    #: Buffers inserted while rebuilding the netlist to keep primary-output
    #: nets alive (outputs aliased to constants, inputs or other outputs).
    port_buffers_added: int = 0

    @property
    def gates_removed(self) -> int:
        return self.gates_before - self.gates_after

    @property
    def reduction_percent(self) -> float:
        if self.gates_before == 0:
            return 0.0
        return 100.0 * self.gates_removed / self.gates_before

    def to_dict(self) -> Dict:
        """JSON-serializable record (used by the benchmark trajectory)."""
        return {
            "netlist": self.netlist,
            "level": self.level,
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "gates_removed": self.gates_removed,
            "reduction_percent": self.reduction_percent,
            "iterations": self.iterations,
            "removed_per_pass": dict(self.removed_per_pass),
            "port_buffers_added": self.port_buffers_added,
        }

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        per_pass = ", ".join(f"{k}: {v}" for k, v in self.removed_per_pass.items())
        return (
            f"opt[{self.netlist}] level {self.level}: "
            f"{self.gates_before} -> {self.gates_after} gates "
            f"({self.reduction_percent:.1f}% removed; {per_pass})"
        )


@dataclass
class OptResult:
    """Optimized netlist plus the per-pass statistics.

    Example::

        optimized, stats = optimize(netlist, level=1)   # tuple-unpackable
    """

    netlist: GateNetlist
    stats: OptStats

    def __iter__(self):
        """Allow ``netlist, stats = optimize(...)`` unpacking."""
        yield self.netlist
        yield self.stats


def optimize(
    netlist: GateNetlist,
    level: int = 2,
    library: Optional[CellLibrary] = None,
    opaque_cells: Iterable[str] = DEFAULT_OPAQUE_CELLS,
    verify: bool = False,
) -> OptResult:
    """Run the pass pipeline over a netlist (cached per structure + level).

    Parameters
    ----------
    netlist:
        The raw netlist; it is never mutated.
    level:
        Optimization level (see module docstring); values above
        :data:`MAX_OPT_LEVEL` clamp.
    library:
        Cell library providing the boolean functions the passes fold
        through; defaults to the EGFET PDK.
    opaque_cells:
        Cell types the passes must treat as physical primitives (never
        folded, collapsed or merged).
    verify:
        Additionally sweep raw-vs-optimized with random vectors and raise
        :class:`OptimizationError` on any output mismatch.

    The passes iterate until none changes anything, at most
    :data:`MAX_ITERATIONS` times.

    Example::

        result = optimize(build_constant_mac_netlist([0, 2, 5], 4), level=2)
        result.netlist                       # optimized, same port interface
        result.stats.reduction_percent       # > 0 on constant-fed logic
    """
    if level < 0:
        raise ValueError("optimization level must be >= 0")
    library = library or EGFET_PDK
    level = min(int(level), MAX_OPT_LEVEL)
    pass_names = LEVEL_PASSES[level]
    opaque: FrozenSet[str] = frozenset(opaque_cells)

    if level == 0 or not netlist.gates:
        stats = OptStats(
            netlist=netlist.name,
            level=level,
            gates_before=netlist.n_gates(),
            gates_after=netlist.n_gates(),
            iterations=0,
            removed_per_pass={name: 0 for name in pass_names},
        )
        return OptResult(netlist=netlist, stats=stats)

    cache = getattr(netlist, "_opt_result_cache", None)
    if cache is None:
        cache = {}
        netlist._opt_result_cache = cache
    key = (id(library), netlist.structural_signature(), level, tuple(sorted(opaque)))
    cached = cache.get(key)
    if cached is not None and cached[0] is library:
        result = cached[1]
        # The cached result shares its (mutable) netlist with every caller:
        # if someone grew or rewrote it since, its own structure version
        # moved and the entry is poisoned — drop it and re-optimize.
        if result.netlist.structural_signature() == cached[2]:
            if verify:
                _verify_or_raise(netlist, result.netlist, library)
            return result
        del cache[key]

    ctx = PassContext(library, opaque)
    # Without a canonical BUF cell in the library there is no port buffer to
    # recover an aliased-away primary output with, so protect the outputs
    # from ever being aliased (their drivers must survive).
    if not ctx.is_canonical("BUF"):
        ctx = PassContext(library, opaque, protected_nets=netlist.outputs)
    sequential_cells = frozenset(
        gate.cell
        for gate in netlist.gates
        if gate.cell in library and library[gate.cell].is_sequential
    )
    ir = IRNetlist.from_netlist(netlist, sequential_cells=sequential_cells or None)
    gates_before = ir.n_gates()
    removed = {name: 0 for name in pass_names}
    iterations = 0
    for _ in range(MAX_ITERATIONS):
        iterations += 1
        any_change = False
        for name in pass_names:
            before = ir.n_gates()
            changes = PASS_FUNCTIONS[name](ctx, ir)
            removed[name] += before - ir.n_gates()
            any_change = any_change or changes > 0
        if not any_change:
            break

    optimized = ir.to_netlist()
    stats = OptStats(
        netlist=netlist.name,
        level=level,
        gates_before=gates_before,
        gates_after=optimized.n_gates(),
        iterations=iterations,
        removed_per_pass=removed,
        port_buffers_added=optimized.n_gates() - ir.n_gates(),
    )
    result = OptResult(netlist=optimized, stats=stats)
    if verify:
        _verify_or_raise(netlist, optimized, library)
    # Results for older structures can never be served again (the version
    # only moves forward), so evict them on insert.  The optimized netlist's
    # own signature rides along so a later hit can detect that a caller
    # mutated the shared result.
    for stale in [k for k in cache if k[1] != key[1]]:
        del cache[stale]
    cache[key] = (library, result, optimized.structural_signature())
    return result


def check_equivalence(
    raw: GateNetlist,
    optimized: GateNetlist,
    library: Optional[CellLibrary] = None,
    n_vectors: int = 256,
    seed: int = 0,
    n_cycles: int = 8,
) -> bool:
    """Random-vector equivalence of two netlists with identical interfaces.

    Sweeps ``n_vectors`` random input vectors through both netlists on the
    bit-parallel engine and compares every primary output bit-exactly.  The
    interfaces (input and output names, in order) must match — the optimizer
    guarantees this for its own results.  Clocked netlists (any sequential
    cell present) are swept through the *sequential* engine instead: both
    sides are clocked for ``n_cycles`` cycles from their power-on state and
    every per-cycle output plane must match.

    Example::

        raw = build_constant_multiplier_netlist(11, 5)
        assert check_equivalence(raw, optimize(raw, level=2).netlist)
    """
    import numpy as np

    from repro.perf.bitsim import simulate_netlist_batch

    if raw.inputs != optimized.inputs or raw.outputs != optimized.outputs:
        return False
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, 2, size=(n_vectors, len(raw.inputs)))
    resolved = library or EGFET_PDK
    if raw.sequential_gates(resolved):
        from repro.perf.seqsim import simulate_sequential_batch

        trace_raw = simulate_sequential_batch(
            raw, vectors, cycles=n_cycles, library=library
        )
        trace_opt = simulate_sequential_batch(
            optimized, vectors, cycles=n_cycles, library=library
        )
        return bool(np.array_equal(trace_raw, trace_opt))
    out_raw = simulate_netlist_batch(raw, vectors, library)
    out_opt = simulate_netlist_batch(optimized, vectors, library)
    return bool(np.array_equal(out_raw, out_opt))


def _verify_or_raise(
    raw: GateNetlist, optimized: GateNetlist, library: CellLibrary
) -> None:
    if not check_equivalence(raw, optimized, library=library):
        raise OptimizationError(
            f"optimized netlist {optimized.name!r} is not equivalent to the "
            f"raw netlist on random vectors"
        )
