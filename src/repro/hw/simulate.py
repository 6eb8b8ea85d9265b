"""Simulation support: gate-level logic simulation and cycle-accurate
execution of the sequential SVM architecture.

Three simulators live here:

* :func:`simulate_sequential_reference` — interpreted per-cycle walk of a
  *clocked* netlist (real D flip-flops built through the
  :meth:`~repro.hw.netlist.GateNetlist.declare_dff` /
  :meth:`~repro.hw.netlist.GateNetlist.bind_dff` feedback API).  It is the
  oracle the bit-parallel sequential engine
  (:mod:`repro.perf.seqsim`) is verified against and the baseline its
  benchmarks measure speedups over.
* :func:`simulate_combinational` — zero-delay event-free evaluation of an
  explicit :class:`~repro.hw.netlist.GateNetlist`.  Used by the verification
  tests to prove that the generated adder / multiplier / MUX / comparator
  netlists compute exactly what the integer behavioural model says they
  should.  Evaluation runs through the compiled bit-parallel engine of
  :mod:`repro.perf` (the program is compiled once per netlist and cached);
  the original interpreted gate walk is kept as
  :func:`simulate_combinational_reference` and serves as the oracle the
  compiled engine is verified against.
* :class:`SequentialDatapathSimulator` — a cycle-by-cycle model of the
  paper's sequential SVM (Fig. 1): every cycle the control counter selects a
  support vector, the compute engine produces its weighted sum, and the voter
  updates its best-score / best-class registers.  The trace it produces is
  compared bit-exactly against the quantized software model.  The scalar
  :meth:`~SequentialDatapathSimulator.run` is the trace-producing reference;
  :meth:`~SequentialDatapathSimulator.run_batch` computes the same
  predictions for whole batches with one matmul plus a first-max-wins argmax
  that preserves the strict ``A > B`` comparator semantics, and
  :meth:`~SequentialDatapathSimulator.trace_batch` computes the same
  per-cycle traces (score, best score, best class, fired) for whole batches
  with that matmul plus one vectorized voter step per cycle — the planes the
  gate-level top is verified against
  (:func:`repro.hw.rtl.svm_top.verify_sequential_svm_netlist`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.hw.cells import CellLibrary
from repro.hw.netlist import GateNetlist, output_count_error
from repro.hw.pdk import EGFET_PDK


def simulate_combinational(
    netlist: GateNetlist,
    input_values: Dict[str, int],
    library: Optional[CellLibrary] = None,
) -> Dict[str, int]:
    """Evaluate a combinational netlist for one input vector.

    ``input_values`` maps every primary-input net to 0/1.  Returns the value
    of every net (inputs, internal nets and outputs).  The netlist is
    compiled to a flat bit-op program on first use (cached on the netlist)
    and evaluated by the bit-parallel engine; results are bit-identical to
    :func:`simulate_combinational_reference`.
    """
    from repro.perf.bitsim import evaluator_for

    library = library or EGFET_PDK
    missing = [net for net in netlist.inputs if net not in input_values]
    if missing:
        raise ValueError(f"missing values for primary inputs: {missing}")
    evaluator = evaluator_for(netlist, library)
    state = evaluator.evaluate_single(
        [input_values[net] for net in netlist.inputs]
    )
    return {net: state[slot] for net, slot in evaluator.program.net_slots.items()}


def simulate_combinational_batch(
    netlist: GateNetlist,
    input_bits: np.ndarray,
    library: Optional[CellLibrary] = None,
    opt_level: int = 0,
    engine: str = "auto",
) -> np.ndarray:
    """Bit-parallel sweep: primary-output values for a batch of input vectors.

    ``input_bits`` has shape ``(n_vectors, n_inputs)`` with columns in
    ``netlist.inputs`` order; returns ``(n_vectors, n_outputs)`` 0/1 values
    with columns in ``netlist.outputs`` order.  64 vectors are evaluated per
    ``uint64`` word — this is the fast path for randomized verification
    sweeps (see :mod:`repro.perf`).  ``opt_level > 0`` evaluates the
    :mod:`repro.hw.opt`-optimized program instead of the raw one (same
    outputs, fewer ops; 0 = raw, the oracle); ``engine`` selects the
    execution backend (see :mod:`repro.perf.engines`).
    """
    from repro.perf.bitsim import simulate_netlist_batch

    return simulate_netlist_batch(
        netlist, input_bits, library, opt_level=opt_level, engine=engine
    )


def simulate_combinational_reference(
    netlist: GateNetlist,
    input_values: Dict[str, int],
    library: Optional[CellLibrary] = None,
) -> Dict[str, int]:
    """Interpreted per-gate evaluation (the original dict-walk simulator).

    Kept as the oracle for the compiled engine and as the baseline the
    throughput benchmarks measure speedups against.  Gates are evaluated in
    creation order, which the :class:`GateNetlist` builder guarantees to be
    topological.
    """
    library = library or EGFET_PDK
    values: Dict[str, int] = {
        GateNetlist.CONST_ZERO: 0,
        GateNetlist.CONST_ONE: 1,
    }
    missing = [net for net in netlist.inputs if net not in input_values]
    if missing:
        raise ValueError(f"missing values for primary inputs: {missing}")
    for net in netlist.inputs:
        values[net] = 1 if input_values[net] else 0

    for gate in netlist.gates:
        cell = library[gate.cell]
        if len(gate.outputs) != cell.n_outputs:
            raise output_count_error(gate, cell)
        ins = tuple(values[pin] for pin in gate.inputs)
        outs = cell.evaluate(ins)
        for net, val in zip(gate.outputs, outs):
            values[net] = val
    return values


def simulate_sequential_reference(
    netlist: GateNetlist,
    input_values: Dict[str, int],
    cycles: int,
    init: Optional[Dict[str, int]] = None,
    library: Optional[CellLibrary] = None,
) -> np.ndarray:
    """Interpreted per-cycle walk of a clocked netlist (one input vector).

    The sequential analogue of :func:`simulate_combinational_reference` and
    the oracle the bit-parallel engine (:mod:`repro.perf.seqsim`) is
    verified against: every cycle the combinational gates are evaluated one
    by one with the current flip-flop values, the primary-output values seen
    *during* the cycle are recorded, and the registers then load their D
    inputs.  Flip-flops power on to
    :attr:`~repro.hw.netlist.GateNetlist.dff_init` (``init`` overrides per
    instance name or Q net).  Returns a ``(cycles, n_outputs)`` 0/1 matrix
    in ``netlist.outputs`` column order.
    """
    library = library or EGFET_PDK
    sequential = netlist.sequential_gates(library)
    unbound = [g.name for g in sequential if not g.inputs]
    if unbound:
        raise ValueError(
            f"netlist {netlist.name!r} has unbound flip-flops {unbound}; "
            "call bind_dff before simulating"
        )
    sequential_ids = {id(g) for g in sequential}
    missing = [net for net in netlist.inputs if net not in input_values]
    if missing:
        raise ValueError(f"missing values for primary inputs: {missing}")
    state: Dict[str, int] = {
        g.name: int(netlist.dff_init.get(g.name, 0)) & 1 for g in sequential
    }
    if init:
        by_q = {g.outputs[0]: g.name for g in sequential}
        for key, value in init.items():
            name = key if key in state else by_q.get(key)
            if name is None:
                raise KeyError(f"unknown flip-flop {key!r}")
            state[name] = int(value) & 1

    trace = np.zeros((int(cycles), len(netlist.outputs)), dtype=np.int64)
    for t in range(int(cycles)):
        values: Dict[str, int] = {
            GateNetlist.CONST_ZERO: 0,
            GateNetlist.CONST_ONE: 1,
        }
        for net in netlist.inputs:
            values[net] = 1 if input_values[net] else 0
        for gate in sequential:
            values[gate.outputs[0]] = state[gate.name]
        for gate in netlist.gates:
            if id(gate) in sequential_ids:
                continue
            cell = library[gate.cell]
            if len(gate.outputs) != cell.n_outputs:
                raise output_count_error(gate, cell)
            ins = tuple(values[pin] for pin in gate.inputs)
            outs = cell.evaluate(ins)
            for net, val in zip(gate.outputs, outs):
                values[net] = val
        trace[t] = [values[net] for net in netlist.outputs]
        for gate in sequential:
            state[gate.name] = values[gate.inputs[0]]
    return trace


def _validate_batch_codes(input_codes: np.ndarray, n_features: int) -> np.ndarray:
    """Normalize a batch of quantized input vectors to ``(n, n_features)`` int64.

    Shared by both simulators' ``run_batch`` and by ``trace_batch``: 1-D
    inputs are treated as a single sample, feature-count mismatches raise
    like the scalar ``run()`` does, and an empty batch stays a well-typed
    ``(0, n_features)`` array.
    """
    input_codes = np.asarray(input_codes, dtype=np.int64)
    if input_codes.ndim == 1:
        input_codes = input_codes.reshape(1, -1)
    if input_codes.ndim != 2 or input_codes.shape[1] != n_features:
        raise ValueError(
            f"expected batches of {n_features} input codes, "
            f"got shape {input_codes.shape}"
        )
    return input_codes


@dataclass
class CycleTrace:
    """State of the sequential SVM datapath after one cycle."""

    cycle: int
    selected_classifier: int
    weights: np.ndarray
    bias: int
    score: int
    best_score: int
    best_class: int
    comparator_fired: bool


@dataclass
class SimulationResult:
    """Full multi-cycle execution record for one input sample."""

    predicted_class: int
    n_cycles: int
    trace: List[CycleTrace] = field(default_factory=list)

    def scores(self) -> List[int]:
        """Per-classifier integer scores in evaluation order."""
        return [step.score for step in self.trace]


class SequentialDatapathSimulator:
    """Cycle-accurate model of the proposed sequential SVM circuit.

    Parameters
    ----------
    weight_codes:
        Integer weight codes, shape ``(n_classifiers, n_features)`` — the
        values hardwired into MUX storage.
    bias_codes:
        Integer bias codes, shape ``(n_classifiers,)``.

    The simulator reproduces the exact register-transfer behaviour described
    in the paper:

    * cycle ``k``: the control counter value ``k`` selects support vector
      ``k`` from storage; the compute engine produces
      ``score_k = sum_i w[k, i] * x[i] + b[k]``;
    * the voter compares ``score_k`` against the stored best score with a
      strict ``A > B`` comparator and, when it fires, loads the new score and
      the counter value into its two registers;
    * after ``n_classifiers`` cycles the best-class register holds the
      prediction and the controller terminates.

    Cycle 0 initialises the registers with the first classifier's result, as
    the hardware reset strategy prescribes.

    Three entry points share these semantics: :meth:`run` classifies one
    sample and records its full :class:`CycleTrace` list (the scalar
    reference), :meth:`run_batch` returns the predicted class of every sample
    of a batch, and :meth:`trace_batch` returns the per-cycle score, best
    score, best class and fired planes of every sample of a batch.  The two
    batch methods are held bit-exact to :meth:`run`.
    """

    def __init__(self, weight_codes: np.ndarray, bias_codes: np.ndarray) -> None:
        self.weight_codes = np.asarray(weight_codes, dtype=np.int64)
        self.bias_codes = np.asarray(bias_codes, dtype=np.int64)
        if self.weight_codes.ndim != 2:
            raise ValueError("weight_codes must be 2-D")
        if self.bias_codes.shape[0] != self.weight_codes.shape[0]:
            raise ValueError("bias_codes and weight_codes disagree on classifier count")

    @property
    def n_classifiers(self) -> int:
        return int(self.weight_codes.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.weight_codes.shape[1])

    def run(self, input_codes: Sequence[int]) -> SimulationResult:
        """Simulate the classification of one quantized input vector."""
        x = np.asarray(input_codes, dtype=np.int64)
        if x.ndim != 1 or x.shape[0] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} input codes, got shape {x.shape}"
            )
        trace: List[CycleTrace] = []
        best_score = 0
        best_class = 0
        for cycle in range(self.n_classifiers):
            weights = self.weight_codes[cycle]
            bias = int(self.bias_codes[cycle])
            score = int(weights @ x) + bias
            if cycle == 0:
                fired = True
            else:
                fired = score > best_score
            if fired:
                best_score = score
                best_class = cycle
            trace.append(
                CycleTrace(
                    cycle=cycle,
                    selected_classifier=cycle,
                    weights=weights.copy(),
                    bias=bias,
                    score=score,
                    best_score=best_score,
                    best_class=best_class,
                    comparator_fired=fired,
                )
            )
        return SimulationResult(
            predicted_class=best_class, n_cycles=self.n_classifiers, trace=trace
        )

    def run_batch(self, input_codes: np.ndarray) -> np.ndarray:
        """Predicted class ids for a batch of quantized input vectors.

        Vectorized equivalent of running :meth:`run` per sample: one
        ``codes @ W.T + b`` matmul produces every classifier score, and
        ``argmax`` — which returns the *first* maximal index — reproduces the
        strict ``A > B`` comparator exactly (a later classifier only replaces
        the stored best when strictly greater, so ties keep the earlier id).
        Bit-identical to the scalar oracle; see the equivalence tests.
        """
        input_codes = _validate_batch_codes(input_codes, self.n_features)
        if input_codes.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        scores = input_codes @ self.weight_codes.T + self.bias_codes
        return np.argmax(scores, axis=1).astype(np.int64)

    def trace_batch(self, input_codes: np.ndarray) -> np.ndarray:
        """Per-cycle voter state for a batch of quantized input vectors.

        Vectorized equivalent of the :meth:`run` traces: one
        ``codes @ W.T + b`` matmul produces every classifier score, then one
        vectorized voter step per cycle updates every sample's registers
        (cycle 0 always fires; a later cycle fires only on a strict
        ``score > best``, so ties keep the earlier class).  Returns an int64
        array of shape ``(4, n_classifiers, n_samples)`` whose planes are
        score, best score, best class and fired (0/1): ``[:, k, s]`` holds the
        ``score``, ``best_score``, ``best_class`` and ``comparator_fired``
        fields of ``run(codes[s]).trace[k]``.  Bit-identical to the scalar
        oracle; see the equivalence tests.
        """
        input_codes = _validate_batch_codes(input_codes, self.n_features)
        trace = np.empty(
            (4, self.n_classifiers, input_codes.shape[0]), dtype=np.int64
        )
        score, best_score, best_class, fired = trace
        score[...] = (input_codes @ self.weight_codes.T + self.bias_codes).T
        # Cycle 0 loads the registers unconditionally (the [:1] slices are
        # empty for a model without classifiers).
        fired[:1] = 1
        best_score[:1] = score[:1]
        best_class[:1] = 0
        for cycle in range(1, self.n_classifiers):
            fired[cycle] = score[cycle] > best_score[cycle - 1]
            best_score[cycle] = np.where(
                fired[cycle], score[cycle], best_score[cycle - 1]
            )
            best_class[cycle] = np.where(fired[cycle], cycle, best_class[cycle - 1])
        return trace


class ParallelDatapathSimulator:
    """Behavioural model of a fully-parallel bespoke classifier.

    All classifier scores are produced combinationally in one evaluation; an
    argmax (OvR) or a pairwise vote (OvO) resolves the class.  Used to verify
    the baseline architectures against their quantized software models.
    """

    def __init__(
        self,
        weight_codes: np.ndarray,
        bias_codes: np.ndarray,
        strategy: str = "ovr",
        pairs: Optional[Sequence[tuple]] = None,
        n_classes: Optional[int] = None,
    ) -> None:
        if strategy not in ("ovr", "ovo"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if strategy == "ovo" and pairs is None:
            raise ValueError("OvO simulation needs the classifier pairs")
        self.weight_codes = np.asarray(weight_codes, dtype=np.int64)
        self.bias_codes = np.asarray(bias_codes, dtype=np.int64)
        self.strategy = strategy
        self.pairs = list(pairs) if pairs is not None else None
        if n_classes is None:
            if strategy == "ovr":
                n_classes = self.weight_codes.shape[0]
            else:
                n_classes = max(max(p) for p in self.pairs) + 1
        self.n_classes = int(n_classes)
        if strategy == "ovo":
            # Pair-incidence matrix P[k, j]=+1, P[k, i]=-1 for pair k=(i, j):
            # batch votes and margins then reduce to single matmuls.
            self._pair_matrix = np.zeros(
                (len(self.pairs), self.n_classes), dtype=np.int64
            )
            self._base_votes = np.zeros(self.n_classes, dtype=np.int64)
            for k, (i, j) in enumerate(self.pairs):
                self._pair_matrix[k, j] = 1
                self._pair_matrix[k, i] = -1
                self._base_votes[i] += 1

    def run(self, input_codes: Sequence[int]) -> int:
        """Classify one quantized input vector; returns the class id."""
        x = np.asarray(input_codes, dtype=np.int64)
        scores = self.weight_codes @ x + self.bias_codes
        if self.strategy == "ovr":
            return int(np.argmax(scores))
        votes = np.zeros(self.n_classes, dtype=np.int64)
        margins = np.zeros(self.n_classes, dtype=np.int64)
        for k, (i, j) in enumerate(self.pairs):
            if scores[k] >= 0:
                votes[j] += 1
            else:
                votes[i] += 1
            margins[j] += scores[k]
            margins[i] -= scores[k]
        order = sorted(
            range(self.n_classes), key=lambda c: (votes[c], margins[c]), reverse=True
        )
        return int(order[0])

    def run_batch(self, input_codes: np.ndarray) -> np.ndarray:
        """Predicted class ids for a batch of quantized input vectors.

        Vectorized equivalent of :meth:`run` per sample.  OvR resolves with a
        first-max-wins argmax; OvO accumulates votes and signed margins per
        class and resolves lexicographically by ``(votes, margins)`` with
        ties going to the lowest class id — exactly the scalar stable-sort
        semantics.  Bit-identical to the scalar oracle.
        """
        input_codes = _validate_batch_codes(
            input_codes, int(self.weight_codes.shape[1])
        )
        if input_codes.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        scores = input_codes @ self.weight_codes.T + self.bias_codes
        if self.strategy == "ovr":
            return np.argmax(scores, axis=1).astype(np.int64)

        # Pair k=(i, j): j gains a vote when score_k >= 0, i otherwise, and
        # the margin moves by +-score_k.  With P[k, j]=+1 / P[k, i]=-1 the
        # whole tally is wins @ P (plus i's guaranteed vote per lost pair,
        # precomputed in _base_votes) and scores @ P.
        votes = (scores >= 0).astype(np.int64) @ self._pair_matrix + self._base_votes
        margins = scores @ self._pair_matrix
        # Lexicographic first-max: among classes with maximal votes, take the
        # maximal margin; among those, argmax picks the lowest class id.
        best_votes = votes.max(axis=1, keepdims=True)
        candidate = votes == best_votes
        masked = np.where(candidate, margins, np.iinfo(np.int64).min)
        best_margin = masked.max(axis=1, keepdims=True)
        return np.argmax(candidate & (masked == best_margin), axis=1).astype(np.int64)
