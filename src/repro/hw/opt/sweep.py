"""Netlist optimization: one forward sweep, one liveness walk, one rebuild.

:func:`optimize` is the single entry point every consumer uses — the netlist
compiler (``compile_netlist(..., opt_level=...)``), the Verilog writer, the
timing/area/power netlist lowerings and the Table I reporting all sit on top
of it.  Results are cached on the netlist instance per (library, structural
signature, level), so a netlist is optimized at most once per structure.

Levels
------
* ``0`` — no optimization; the raw netlist is returned untouched.  This is
  the oracle every higher level is checked against.
* ``1`` — constant folding + dead-gate removal.
* ``2`` (default, and the maximum) — adds buffer/double-inverter collapsing
  and structural hashing.

The sweep
---------
The builder only lets a gate read nets that already exist (primary inputs,
constants, earlier gates' outputs and declared flip-flop Q nets), so a walk
over the gates in netlist order reaches every gate with its inputs final.
At each gate the sweep

1. resolves its pins through the alias map: a removed gate's output nets
   alias to their replacement (a constant or a surviving net);
2. folds tied or repeated pins through the per-(cell, pin shape) plan of
   :func:`~repro.hw.opt.fold.fold_plan`, memoized for the call;
3. at level 2 aliases ``BUF(x)`` and ``INV(INV(x))`` to ``x``;
4. at level 2 looks the gate up in a structural-hash table (input order
   canonicalised for :data:`COMMUTATIVE_CELLS`) and aliases it to an
   identical earlier gate;

and keeps what is left: structural hashing on construction, as in AIG
packages (Mishchenko, Chatterjee and Brayton, "DAG-aware AIG rewriting",
DAC 2006).  Because every input is final when the sweep reaches a gate, no
rewrite exposes another one upstream, and a second sweep changes nothing
(the test suite checks this on generated combinational and clocked
netlists).  A backward walk from the primary outputs then keeps only the
gates something observable reads.  It is a worklist, not a reverse pass,
because a flip-flop precedes the logic driving its D pin.

Sequential cells, cells without a simulation model and the opaque cells of
:data:`DEFAULT_OPAQUE_CELLS` are never folded, collapsed or merged; only the
liveness walk may remove them.

Correctness
-----------
The optimized netlist preserves the primary input *and* output names and
order, so it is a drop-in replacement:

* a primary output whose driver was optimized away is recovered by renaming
  the surviving net it aliases to (free) or, when that net is a constant, a
  primary input or another primary output, by one port buffer;
* flip-flops are rebuilt through
  :meth:`~repro.hw.netlist.GateNetlist.declare_dff` /
  :meth:`~repro.hw.netlist.GateNetlist.bind_dff` with their power-on values,
  so clocked netlists with feedback loops round-trip.

:func:`check_equivalence` sweeps raw and optimized netlists with random
vectors through the bit-parallel engine (:mod:`repro.perf.bitsim`) and
compares all outputs bit-exactly; ``optimize(..., verify=True)`` runs it
inline and raises :class:`OptimizationError` on any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.hw.cells import CellLibrary, cell_matches_canonical
from repro.hw.netlist import GateNetlist
from repro.hw.opt.fold import TIED_ONE, TIED_ZERO, fold_plan
from repro.hw.pdk import EGFET_PDK

CONST_ZERO = GateNetlist.CONST_ZERO
CONST_ONE = GateNetlist.CONST_ONE

#: Highest distinct level; higher requested levels clamp to it.
MAX_OPT_LEVEL = 2

#: Cells whose output is invariant under any permutation of their inputs
#: (``FA`` is fully symmetric: sum = parity, carry = majority).
COMMUTATIVE_CELLS = frozenset(
    {"AND2", "OR2", "XOR2", "XNOR2", "NAND2", "NOR2", "AND3", "OR3", "HA", "FA"}
)

#: Cells treated as opaque physical primitives: their ``function`` exists
#: only so the logic simulator can pass values through, it does not license
#: replacing the cell with wiring.
DEFAULT_OPAQUE_CELLS = frozenset({"ADC1"})

#: Keys of :attr:`OptStats.removed_per_pass`: the rewrites each level applies.
_REWRITES = {
    0: (),
    1: ("const_prop", "dead_gate"),
    2: ("const_prop", "buffer_collapse", "structural_hash", "dead_gate"),
}

#: A gate as the sweep keeps it: ``(name, cell, inputs, outputs)``.
_Gate = Tuple[str, str, Sequence[str], Tuple[str, ...]]


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
    """What the optimizer did to one netlist.

    Example::

        stats = optimize(netlist, level=2).stats
        print(f"{stats.gates_before} -> {stats.gates_after} gates "
              f"({stats.reduction_percent:.0f}% removed)")
    """

    netlist: str
    level: int
    gates_before: int
    gates_after: int
    #: Net gates removed by each kind of rewrite: ``const_prop`` (folds; a
    #: fold that decomposes a big cell into smaller ones, one FA into XNOR2 +
    #: OR2, counts -1), ``buffer_collapse``, ``structural_hash`` (gates merged
    #: into an identical one) and ``dead_gate`` (gates nothing observable
    #: reads).  The rebuild may re-add :attr:`port_buffers_added` buffers, so
    #: ``sum(removed_per_pass.values()) - port_buffers_added ==
    #: gates_removed``.
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
    """Optimized netlist plus its statistics.

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
    verify: bool = False,
) -> OptResult:
    """Optimize a netlist (cached per structure + level).

    Parameters
    ----------
    netlist:
        The raw netlist; it is never mutated.  Its combinational gates must
        read only nets defined before them, the order the builder API
        guarantees.
    level:
        Optimization level (see module docstring); values above
        :data:`MAX_OPT_LEVEL` clamp.
    library:
        Cell library providing the boolean functions the sweep folds
        through; defaults to the EGFET PDK.
    verify:
        Additionally sweep raw-vs-optimized with random vectors and raise
        :class:`OptimizationError` on any output mismatch.

    Example::

        result = optimize(build_constant_mac_netlist([0, 2, 5], 4), level=2)
        result.netlist                       # optimized, same port interface
        result.stats.reduction_percent       # > 0 on constant-fed logic
    """
    if level < 0:
        raise ValueError("optimization level must be >= 0")
    library = library or EGFET_PDK
    level = min(int(level), MAX_OPT_LEVEL)

    if level == 0 or not netlist.gates:
        stats = OptStats(
            netlist=netlist.name,
            level=level,
            gates_before=netlist.n_gates(),
            gates_after=netlist.n_gates(),
            removed_per_pass=dict.fromkeys(_REWRITES[level], 0),
        )
        return OptResult(netlist=netlist, stats=stats)

    cache = getattr(netlist, "_opt_result_cache", None)
    if cache is None:
        cache = {}
        netlist._opt_result_cache = cache
    key = (id(library), netlist.structural_signature(), level)
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

    optimized, stats = _optimize(netlist, library, level)
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


def _optimize(
    netlist: GateNetlist, library: CellLibrary, level: int
) -> Tuple[GateNetlist, OptStats]:
    """The sweep, the liveness walk and the rebuild of one netlist."""
    collapse = level >= 2
    removed = dict.fromkeys(_REWRITES[level], 0)
    alias: Dict[str, str] = {}
    kept: List[_Gate] = []

    canonical_memo: Dict[str, bool] = {}

    def canonical(name: str) -> bool:
        known = canonical_memo.get(name)
        if known is None:
            known = name in library and cell_matches_canonical(library[name])
            canonical_memo[name] = known
        return known

    # Cell name -> whether its gates are kept as they are: flip-flops (which
    # the rebuild re-declares), opaque cells and cells without a model.
    verbatim: Dict[str, bool] = {}
    sequential: Set[str] = set()

    def is_verbatim(name: str) -> bool:
        if name in DEFAULT_OPAQUE_CELLS:
            known = True
        else:
            cell = library[name]
            known = cell.is_sequential or cell.function is None
            if cell.is_sequential:
                sequential.add(name)
        verbatim[name] = known
        return known

    # Without a canonical BUF there is no port buffer to recover an
    # aliased-away primary output with, so the outputs' drivers must survive.
    protected = frozenset() if canonical("BUF") else frozenset(netlist.outputs)
    hashed: Dict[tuple, Tuple[str, ...]] = {}
    inverted: Dict[str, str] = {}  # output of a kept INV -> its input
    plans: Dict[Tuple[str, Tuple[int, ...]], Optional[list]] = {}

    def emit(name: str, cell: str, pins: List[str], outputs: Tuple[str, ...]) -> None:
        """Collapse, hash or keep one gate whose pins are final."""
        if collapse:
            if outputs[0] not in protected:
                if cell == "BUF" and canonical("BUF"):
                    alias[outputs[0]] = pins[0]
                    removed["buffer_collapse"] += 1
                    return
                if cell == "INV" and pins[0] in inverted:
                    alias[outputs[0]] = inverted[pins[0]]
                    removed["buffer_collapse"] += 1
                    return
            if not (protected and any(net in protected for net in outputs)):
                if cell in COMMUTATIVE_CELLS and canonical(cell):
                    key = (cell, tuple(sorted(pins)))
                else:
                    key = (cell, tuple(pins))
                twin = hashed.get(key)
                if twin is not None:
                    for mine, theirs in zip(outputs, twin):
                        alias[mine] = theirs
                    removed["structural_hash"] += 1
                    return
                hashed[key] = outputs
            if cell == "INV" and canonical("INV"):
                inverted[outputs[0]] = pins[0]
        kept.append((name, cell, pins, outputs))

    for gate in netlist.gates:
        cell = gate.cell
        fixed = verbatim.get(cell)
        if fixed is None:
            fixed = is_verbatim(cell)
        if fixed:
            kept.append((gate.name, cell, gate.inputs, gate.outputs))
            continue
        pins = [alias.get(pin, pin) for pin in gate.inputs]
        nets: List[str] = []  # distinct live nets, in pin order
        shape: List[int] = []
        for net in pins:
            if net == CONST_ZERO:
                shape.append(TIED_ZERO)
            elif net == CONST_ONE:
                shape.append(TIED_ONE)
            elif net in nets:
                shape.append(nets.index(net))
            else:
                shape.append(len(nets))
                nets.append(net)
        if len(nets) == len(shape):
            emit(gate.name, cell, pins, gate.outputs)
            continue
        key = (cell, tuple(shape))
        if key in plans:
            plan = plans[key]
        else:
            plan = plans[key] = fold_plan(library[cell], key[1], canonical)
        if plan is None or (
            protected
            and plan[0][0] != "multi"
            and any(
                step[0] in ("const", "wire") and gate.outputs[j] in protected
                for j, step in enumerate(plan)
            )
        ):
            emit(gate.name, cell, pins, gate.outputs)
            continue
        if plan[0][0] == "multi":
            _, new_cell, order = plan[0]
            emit(gate.name, new_cell, [nets[k] for k in order], gate.outputs)
            continue
        removed["const_prop"] += 1
        for j, (action, *detail) in enumerate(plan):
            out = gate.outputs[j]
            if action == "const":
                alias[out] = detail[0]
            elif action == "wire":
                alias[out] = nets[detail[0]]
            else:  # ("gate", cell, vars): a smaller cell on the live nets
                removed["const_prop"] -= 1
                new_cell, order = detail
                emit(f"{gate.name}__cp{j}", new_cell, [nets[k] for k in order], (out,))

    # Liveness: reverse reachability from the primary outputs.
    driver: Dict[str, int] = {}
    for index, (_, _, _, outputs) in enumerate(kept):
        for net in outputs:
            driver[net] = index
    live = [False] * len(kept)
    stack = [alias.get(out, out) for out in netlist.outputs]
    while stack:
        index = driver.get(stack.pop())
        if index is not None and not live[index]:
            live[index] = True
            stack.extend(alias.get(pin, pin) for pin in kept[index][2])
    survivors = [gate for gate, alive in zip(kept, live) if alive]
    removed["dead_gate"] = len(kept) - len(survivors)

    optimized = _rebuild(netlist, survivors, alias, sequential)
    stats = OptStats(
        netlist=netlist.name,
        level=level,
        gates_before=netlist.n_gates(),
        gates_after=optimized.n_gates(),
        removed_per_pass=removed,
        port_buffers_added=optimized.n_gates() - len(survivors),
    )
    return optimized, stats


def _rebuild(
    netlist: GateNetlist,
    survivors: List[_Gate],
    alias: Dict[str, str],
    sequential: Set[str],
) -> GateNetlist:
    """A valid :class:`GateNetlist` of the survivors, with the raw interface."""
    # Primary outputs whose driver was removed alias to a surviving net.
    # Prefer renaming that net back to the output name (free); fall back to
    # a port buffer when the net is a constant, a primary input, another
    # primary output, or already renamed for a different output.
    input_set = set(netlist.inputs)
    output_set = set(netlist.outputs)
    rename: Dict[str, str] = {}
    for out in netlist.outputs:
        target = alias.get(out, out)
        if (
            target != out
            and target not in (CONST_ZERO, CONST_ONE)
            and target not in input_set
            and target not in output_set
            and target not in rename
        ):
            rename[target] = out

    def final(net: str) -> str:
        net = alias.get(net, net)
        return rename.get(net, net)

    optimized = GateNetlist(name=netlist.name)
    for net in netlist.inputs:
        optimized.add_input(net)
    # Flip-flops are emitted at their original position via declare (so a
    # Q read by logic that precedes its D driver stays legal) and bound
    # after every combinational driver exists.
    pending_binds: List[Tuple[str, str]] = []
    for name, cell, pins, outputs in survivors:
        if cell in sequential:
            if len(outputs) != 1 or len(pins) != 1:
                raise NotImplementedError(
                    f"sequential cell {cell!r} must be a 1-bit flip-flop to "
                    "survive optimization"
                )
            q = rename.get(outputs[0], outputs[0])
            optimized.declare_dff(
                q, name=name, cell=cell, init=netlist.dff_init.get(name, 0)
            )
            pending_binds.append((q, pins[0]))
            continue
        optimized.add_gate(
            cell,
            [final(pin) for pin in pins],
            outputs=[rename.get(net, net) for net in outputs],
            name=name,
        )
    for q, d in pending_binds:
        optimized.bind_dff(q, final(d))
    existing_names = {name for name, _, _, _ in survivors}
    n_buffers = 0
    for out in netlist.outputs:
        if final(out) != out:
            # Constant, primary input or a net shared with another primary
            # output: keep the port name alive with one buffer.
            buf_name = f"obuf{n_buffers}"
            while buf_name in existing_names:
                n_buffers += 1
                buf_name = f"obuf{n_buffers}"
            existing_names.add(buf_name)
            n_buffers += 1
            optimized.add_gate("BUF", [final(out)], outputs=[out], name=buf_name)
        optimized.mark_output(out)
    return optimized


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
