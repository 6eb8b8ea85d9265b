"""Gate-level top of the paper's sequential SVM (Fig. 1), as a clocked netlist.

Until now the sequential architecture existed at two removes from gates: the
:class:`~repro.hw.netlist.HardwareBlock` composition priced cell *counts*,
and :class:`~repro.hw.simulate.SequentialDatapathSimulator` modelled the
register-transfer behaviour in integers.  This builder closes the gap: it
emits the complete multi-cycle datapath as an explicit
:class:`~repro.hw.netlist.GateNetlist` of library cells —

* **control counter** — one D flip-flop per select bit with a half-adder
  increment chain (the feedback loop uses
  :meth:`~repro.hw.netlist.GateNetlist.declare_dff` /
  :meth:`~repro.hw.netlist.GateNetlist.bind_dff`);
* **bespoke MUX storage** — per weight bit a 2:1-MUX tree over the
  *hardwired* coefficient constants, selected by the counter (emitted
  naively; the :mod:`repro.hw.opt` optimizer collapses constant-fed trees);
* **compute engine** — per feature one unsigned array multiplier
  (``|w| * x``, variable coefficient from storage), a sign-magnitude
  conditional negation, and a ripple accumulation tree, all in
  ``score_bits``-wide two's complement;
* **sequential argmax voter** — a signed magnitude comparator against the
  best-score register, ``fired = (counter == 0) OR (score > best)``, and
  the best-score / best-class registers behind load-enable MUXes.

Weights are stored sign-magnitude (``|w|`` plus a sign bit), so the
multiplier array stays unsigned exactly like the verification multipliers
of :mod:`repro.hw.rtl.multipliers`; the negation stage folds the sign back
in (two's complement: ``(p XOR s) + s``).

Primary inputs: ``x{f}[input_bits]`` per feature (unsigned codes, the
format :meth:`~repro.ml.quantization.QuantizedLinearModel.quantize_inputs`
produces).  Primary outputs per cycle ``k``: ``score`` (the classifier-k
score), ``best_next`` / ``pred`` (the D values of the voter registers,
i.e. best score / best class *after* cycle ``k``'s clock edge) and
``fired`` — each bit-comparable against the corresponding
:class:`~repro.hw.simulate.CycleTrace` field of the behavioural oracle,
which :func:`verify_sequential_svm_netlist` automates for a whole batch
against the oracle's
:meth:`~repro.hw.simulate.SequentialDatapathSimulator.trace_batch` planes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.hw.netlist import GateNetlist
from repro.hw.rtl.multipliers import _emit_array_product
from repro.hw.rtl.registers import counter_bits


# --------------------------------------------------------------------------- #
# Emission helpers
# --------------------------------------------------------------------------- #
def _const_net(bit: int) -> str:
    return GateNetlist.CONST_ONE if bit else GateNetlist.CONST_ZERO


def _emit_constant_mux(
    netlist: GateNetlist,
    column: Sequence[int],
    sel: Sequence[str],
    prefix: str,
) -> str:
    """A 2:1-MUX tree selecting one hardwired constant bit per select value.

    ``column[w]`` is the bit stored for select value ``w``; values beyond
    ``len(column)`` read as 0.  Emitted naively (every tree node a MUX2 over
    possibly-constant nets) — exactly what a generator producing bespoke
    storage emits before optimization; the optimizer collapses the
    constant-fed nodes.  Returns the root net (possibly a constant net).
    """
    n_words = 1 << len(sel)
    level: List[str] = [
        _const_net(column[w] if w < len(column) else 0) for w in range(n_words)
    ]
    for depth, select in enumerate(sel):
        next_level: List[str] = []
        for i in range(0, len(level), 2):
            lo, hi = level[i], level[i + 1]
            if lo == hi:
                next_level.append(lo)
                continue
            out = netlist.add_gate(
                "MUX2", [lo, hi, select], outputs=[f"{prefix}m{depth}_{i // 2}"]
            )[0]
            next_level.append(out)
        level = next_level
    return level[0]


def _emit_carry_chain_add(
    netlist: GateNetlist,
    x_nets: Sequence[str],
    y_nets: Sequence[str],
    carry_in: str,
    width: int,
    prefix: str,
) -> List[str]:
    """``width``-bit add modulo ``2**width`` with an explicit carry-in net.

    Operands shorter than ``width`` are zero-padded with the constant net;
    the final carry out is dropped (two's-complement accumulation at a width
    proven to never overflow).  Emitted as naive full adders — the pass
    pipeline shrinks the tied positions.
    """
    carry = carry_in
    sums: List[str] = []
    for i in range(width):
        x = x_nets[i] if i < len(x_nets) else GateNetlist.CONST_ZERO
        y = y_nets[i] if i < len(y_nets) else GateNetlist.CONST_ZERO
        s, carry = netlist.add_gate(
            "FA", [x, y, carry], outputs=[f"{prefix}s{i}", f"{prefix}c{i}"]
        )
        sums.append(s)
    return sums


def _emit_conditional_negate(
    netlist: GateNetlist,
    value_nets: Sequence[str],
    sign: str,
    width: int,
    prefix: str,
) -> List[str]:
    """Two's-complement conditional negation: ``sign ? -value : value``.

    ``value`` is unsigned and zero-extended to ``width`` bits; the result is
    ``(value XOR sign) + sign`` modulo ``2**width``.
    """
    xored: List[str] = []
    for i in range(width):
        v = value_nets[i] if i < len(value_nets) else GateNetlist.CONST_ZERO
        if v == GateNetlist.CONST_ZERO:
            xored.append(sign)
            continue
        xored.append(
            netlist.add_gate("XOR2", [v, sign], outputs=[f"{prefix}x{i}"])[0]
        )
    return _emit_carry_chain_add(
        netlist, xored, [], carry_in=sign, width=width, prefix=f"{prefix}n"
    )


def _emit_signed_gt(
    netlist: GateNetlist,
    a_nets: Sequence[str],
    b_nets: Sequence[str],
    prefix: str,
) -> str:
    """Signed two's-complement ``a > b``: the voter's ``A > B`` comparator.

    Ripple structure from MSB to LSB over the magnitude bits (valid when the
    signs agree), plus one XOR / MUX pair resolving differing signs — the
    gate-level form of :func:`repro.hw.rtl.comparator.magnitude_comparator`'s
    signed cost model.
    """
    width = len(a_nets)
    gt = GateNetlist.CONST_ZERO
    eq = GateNetlist.CONST_ONE
    for i in range(width - 1, -1, -1):
        not_b = netlist.add_gate("INV", [b_nets[i]], outputs=[f"{prefix}nb{i}"])[0]
        a_gt_b = netlist.add_gate(
            "AND2", [a_nets[i], not_b], outputs=[f"{prefix}agb{i}"]
        )[0]
        here = netlist.add_gate("AND2", [eq, a_gt_b], outputs=[f"{prefix}here{i}"])[0]
        gt = netlist.add_gate("OR2", [gt, here], outputs=[f"{prefix}gt{i}"])[0]
        bit_eq = netlist.add_gate(
            "XNOR2", [a_nets[i], b_nets[i]], outputs=[f"{prefix}eq{i}"]
        )[0]
        eq = netlist.add_gate("AND2", [eq, bit_eq], outputs=[f"{prefix}eqacc{i}"])[0]
    a_sign, b_sign = a_nets[-1], b_nets[-1]
    signs_differ = netlist.add_gate(
        "XOR2", [a_sign, b_sign], outputs=[f"{prefix}sd"]
    )[0]
    a_positive = netlist.add_gate("INV", [a_sign], outputs=[f"{prefix}ap"])[0]
    return netlist.add_gate(
        "MUX2", [gt, a_positive, signs_differ], outputs=[f"{prefix}sgt"]
    )[0]


# --------------------------------------------------------------------------- #
# The sequential SVM top
# --------------------------------------------------------------------------- #
@dataclass
class SequentialSVMPorts:
    """Port map of a generated sequential-SVM top (bus widths and orders)."""

    n_classifiers: int
    n_features: int
    input_bits: int
    weight_mag_bits: int
    score_bits: int
    counter_bits: int

    def input_nets(self) -> List[str]:
        """Primary inputs, in declaration order: ``x{f}[b]`` LSB-first."""
        return [
            f"x{f}[{b}]"
            for f in range(self.n_features)
            for b in range(self.input_bits)
        ]

    def input_matrix(self, codes: np.ndarray) -> np.ndarray:
        """Expand quantized input codes into the top's primary-input columns.

        ``codes`` has shape ``(n_samples, n_features)`` of unsigned input
        codes; returns the ``(n_samples, n_features * input_bits)`` 0/1
        matrix in primary-input order, ready for
        :func:`repro.perf.seqsim.simulate_sequential_batch`.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2 or codes.shape[1] != self.n_features:
            raise ValueError(
                f"expected (n_samples, {self.n_features}) codes, got {codes.shape}"
            )
        if codes.size and (codes.min() < 0 or codes.max() >= 1 << self.input_bits):
            raise ValueError(f"input codes out of {self.input_bits}-bit range")
        shifts = np.arange(self.input_bits, dtype=np.int64)
        bits = (codes[:, :, None] >> shifts) & 1
        return bits.reshape(codes.shape[0], self.n_features * self.input_bits)

    # Output column ranges (in ``netlist.outputs`` order).
    def score_lanes(self) -> range:
        return range(0, self.score_bits)

    def best_next_lanes(self) -> range:
        return range(self.score_bits, 2 * self.score_bits)

    def pred_lanes(self) -> range:
        return range(2 * self.score_bits, 2 * self.score_bits + self.counter_bits)

    def fired_lane(self) -> int:
        return 2 * self.score_bits + self.counter_bits


def sequential_svm_score_bits(
    weight_codes: np.ndarray, bias_codes: np.ndarray, input_bits: int
) -> int:
    """Two's-complement width that exactly holds every partial MAC sum.

    Any partial sum's magnitude is bounded by the worst classifier's
    ``sum_i |w_i| * x_max + |b|``, so this width makes the modulo arithmetic
    of the gate-level accumulator exact — scores decode to the same integers
    the behavioural oracle computes.
    """
    weight_codes = np.asarray(weight_codes, dtype=np.int64)
    bias_codes = np.asarray(bias_codes, dtype=np.int64)
    x_max = (1 << int(input_bits)) - 1
    bound = int(
        (np.abs(weight_codes).sum(axis=1) * x_max + np.abs(bias_codes)).max()
    )
    return max(int(bound).bit_length() + 1, 2)


def build_sequential_svm_netlist(
    weight_codes: np.ndarray,
    bias_codes: np.ndarray,
    input_bits: int,
    name: str = "sequential_svm",
) -> "tuple[GateNetlist, SequentialSVMPorts]":
    """Emit the full clocked sequential-SVM netlist plus its port map.

    One classification takes ``n_classifiers`` cycles with the input codes
    held constant on the ``x{f}`` pins; cycle ``k`` streams classifier ``k``
    through the shared MAC and updates the voter registers.  Returns the
    netlist and a :class:`SequentialSVMPorts` describing the buses.

    Example::

        top, ports = build_sequential_svm_netlist(W, b, input_bits=4)
        trace = simulate_sequential_batch(top, ports.input_matrix(codes),
                                          cycles=W.shape[0])
    """
    weight_codes = np.asarray(weight_codes, dtype=np.int64)
    bias_codes = np.asarray(bias_codes, dtype=np.int64)
    if weight_codes.ndim != 2:
        raise ValueError("weight_codes must be 2-D")
    if bias_codes.shape != (weight_codes.shape[0],):
        raise ValueError("bias_codes and weight_codes disagree on classifier count")
    if input_bits < 1:
        raise ValueError("input width must be >= 1")
    n_classifiers, n_features = weight_codes.shape
    c_bits = counter_bits(n_classifiers)
    w_mag = int(np.abs(weight_codes).max())
    w_bits = max(int(w_mag).bit_length(), 1)
    b_mag = int(np.abs(bias_codes).max())
    b_bits = max(int(b_mag).bit_length(), 1)
    a_bits = max(
        sequential_svm_score_bits(weight_codes, bias_codes, input_bits),
        input_bits + w_bits + 1,
        b_bits + 1,
    )

    netlist = GateNetlist(name=name)
    x_nets = [netlist.add_inputs(f"x{f}", input_bits) for f in range(n_features)]

    # -- control: free-running counter selecting the support vector --------- #
    sel = [netlist.declare_dff(f"cnt[{b}]", name=f"cnt{b}") for b in range(c_bits)]
    carry = GateNetlist.CONST_ONE
    for b in range(c_bits):
        s, carry = netlist.add_gate(
            "HA", [sel[b], carry], outputs=[f"cnt_inc[{b}]", f"cnt_cy[{b}]"]
        )
        netlist.bind_dff(sel[b], s)
    not_sel = [
        netlist.add_gate("INV", [sel[b]], outputs=[f"cnt_n[{b}]"])[0]
        for b in range(c_bits)
    ]
    is_zero = not_sel[0]
    for b in range(1, c_bits):
        is_zero = netlist.add_gate(
            "AND2", [is_zero, not_sel[b]], outputs=[f"is_zero{b}"]
        )[0]

    # -- storage + compute engine: one shared MAC over MUX-selected weights - #
    magnitudes = np.abs(weight_codes)
    signs = (weight_codes < 0).astype(np.int64)
    acc: Optional[List[str]] = None
    for f in range(n_features):
        mag_nets = [
            _emit_constant_mux(
                netlist,
                [(int(magnitudes[k, f]) >> b) & 1 for k in range(n_classifiers)],
                sel,
                prefix=f"w{f}b{b}_",
            )
            for b in range(w_bits)
        ]
        sign_net = _emit_constant_mux(
            netlist,
            [int(signs[k, f]) for k in range(n_classifiers)],
            sel,
            prefix=f"w{f}s_",
        )
        product = _emit_array_product(netlist, x_nets[f], mag_nets, prefix=f"p{f}_")
        term = _emit_conditional_negate(
            netlist, product, sign_net, width=a_bits, prefix=f"t{f}_"
        )
        acc = term if acc is None else _emit_carry_chain_add(
            netlist, acc, term, GateNetlist.CONST_ZERO, a_bits, prefix=f"a{f}_"
        )

    bias_mag_nets = [
        _emit_constant_mux(
            netlist,
            [(int(abs(bias_codes[k])) >> b) & 1 for k in range(n_classifiers)],
            sel,
            prefix=f"bb{b}_",
        )
        for b in range(b_bits)
    ]
    bias_sign = _emit_constant_mux(
        netlist,
        [int(bias_codes[k] < 0) for k in range(n_classifiers)],
        sel,
        prefix="bs_",
    )
    bias_term = _emit_conditional_negate(
        netlist, bias_mag_nets, bias_sign, width=a_bits, prefix="tb_"
    )
    acc = _emit_carry_chain_add(
        netlist, acc, bias_term, GateNetlist.CONST_ZERO, a_bits, prefix="ab_"
    )
    score = [
        netlist.add_gate("BUF", [acc[b]], outputs=[f"score[{b}]"])[0]
        for b in range(a_bits)
    ]

    # -- voter: strict A > B comparator + best (score, class) registers ----- #
    best_q = [
        netlist.declare_dff(f"best[{b}]", name=f"best{b}") for b in range(a_bits)
    ]
    class_q = [
        netlist.declare_dff(f"cls[{b}]", name=f"cls{b}") for b in range(c_bits)
    ]
    gt = _emit_signed_gt(netlist, score, best_q, prefix="cmp_")
    fired = netlist.add_gate("OR2", [is_zero, gt], outputs=["fired"])[0]
    best_next = []
    for b in range(a_bits):
        d = netlist.add_gate(
            "MUX2", [best_q[b], score[b], fired], outputs=[f"best_next[{b}]"]
        )[0]
        netlist.bind_dff(best_q[b], d)
        best_next.append(d)
    pred = []
    for b in range(c_bits):
        d = netlist.add_gate(
            "MUX2", [class_q[b], sel[b], fired], outputs=[f"pred[{b}]"]
        )[0]
        netlist.bind_dff(class_q[b], d)
        pred.append(d)

    for net in score:
        netlist.mark_output(net)
    for net in best_next:
        netlist.mark_output(net)
    for net in pred:
        netlist.mark_output(net)
    netlist.mark_output(fired)

    ports = SequentialSVMPorts(
        n_classifiers=n_classifiers,
        n_features=n_features,
        input_bits=input_bits,
        weight_mag_bits=w_bits,
        score_bits=a_bits,
        counter_bits=c_bits,
    )
    return netlist, ports


def verify_sequential_svm_netlist(
    netlist: GateNetlist,
    ports: SequentialSVMPorts,
    codes: np.ndarray,
    oracle=None,
    library=None,
    opt_level: int = 0,
    engine: str = "auto",
) -> bool:
    """Assert the gate-level top bit-exact against the behavioural oracle.

    Runs the clocked netlist for ``n_classifiers`` cycles on every sample of
    ``codes`` (quantized input codes) through the bit-parallel engine,
    decodes the score / best-score / best-class / fired buses per cycle, and
    compares each against the corresponding plane of
    :meth:`~repro.hw.simulate.SequentialDatapathSimulator.trace_batch` — the
    batched form of the :class:`~repro.hw.simulate.CycleTrace` fields that
    :meth:`~repro.hw.simulate.SequentialDatapathSimulator.run` records per
    sample, held bit-exact to it.  Returns True when every field of every
    cycle of every sample matches (vacuously for an empty batch).

    Example::

        top, ports = build_sequential_svm_netlist(W, b, input_bits=4)
        oracle = SequentialDatapathSimulator(W, b)
        assert verify_sequential_svm_netlist(top, ports, codes, oracle)
    """
    from repro.hw.simulate import SequentialDatapathSimulator
    from repro.perf.bitsim import words_to_ints, words_to_signed_ints
    from repro.perf.seqsim import simulate_sequential_batch

    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim == 1:
        codes = codes.reshape(1, -1)
    if oracle is None:
        raise ValueError("verification needs the behavioural oracle simulator")
    if not isinstance(oracle, SequentialDatapathSimulator):
        raise TypeError("oracle must be a SequentialDatapathSimulator")
    cycles = ports.n_classifiers
    if oracle.n_classifiers != cycles:
        raise ValueError(
            f"oracle has {oracle.n_classifiers} classifiers, the netlist {cycles}"
        )
    trace = simulate_sequential_batch(
        netlist,
        ports.input_matrix(codes),
        cycles=cycles,
        library=library,
        opt_level=opt_level,
        engine=engine,
    )
    # Decode each cycle's buses for the whole batch in one vectorized call
    # and compare them with the oracle's (cycles, n_samples) planes.
    expected = oracle.trace_batch(codes)
    for t in range(cycles):
        plane = trace[t]
        if not (
            np.array_equal(
                words_to_signed_ints(plane, ports.score_lanes()), expected[0, t]
            )
            and np.array_equal(
                words_to_signed_ints(plane, ports.best_next_lanes()), expected[1, t]
            )
            and np.array_equal(
                words_to_ints(plane, ports.pred_lanes()), expected[2, t]
            )
            and np.array_equal(plane[:, ports.fired_lane()], expected[3, t])
        ):
            return False
    return True
