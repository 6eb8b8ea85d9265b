"""Datapath synthesis helpers.

These functions assemble the arithmetic macro-blocks that the classifier
architectures in :mod:`repro.core` are built from:

* :func:`synthesize_folded_mac` — the paper's compute engine: ``m`` generic
  array multipliers (coefficients arrive from storage at run time) feeding a
  multi-operand adder plus the bias addition.  One instance serves *all*
  classifiers, one per cycle.
* :func:`synthesize_constant_mac` — a fully-parallel bespoke weighted sum for
  one classifier: one hardwired-constant multiplier per coefficient (zero
  weights cost nothing, powers of two are free) feeding an adder tree.  The
  state-of-the-art parallel designs instantiate one of these per classifier.

Both return a :class:`~repro.hw.netlist.HardwareBlock` plus the output bit
width, which downstream voters and registers need for sizing.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.hw.netlist import HardwareBlock, series
from repro.hw.rtl.adders import adder_tree, adder_tree_output_width, ripple_carry_adder
from repro.hw.rtl.multipliers import (
    array_multiplier,
    array_multiplier_output_bits,
    constant_multiplier,
    constant_multiplier_output_bits,
)


def synthesize_folded_mac(
    n_features: int,
    input_bits: int,
    weight_bits: int,
    score_bits: int,
    name: str = "compute_engine",
) -> Tuple[HardwareBlock, int]:
    """The folded compute engine of the sequential SVM.

    ``m = n_features`` array multipliers (``input_bits x weight_bits``,
    unsigned-by-signed) operate in parallel on the currently selected support
    vector; their products are summed by a multi-operand adder tree and the
    bias (already at score scale) is added by one final ripple-carry adder.

    Returns ``(block, output_width)`` where ``output_width`` is the width of
    the signed score delivered to the voter (``score_bits``).
    """
    if n_features < 1:
        raise ValueError("need at least one feature")
    product_bits = array_multiplier_output_bits(input_bits, weight_bits, signed=True)

    multipliers = HardwareBlock(name=f"{name}.multipliers")
    single = array_multiplier(input_bits, weight_bits, signed=True, name="mult")
    merged = single.scaled(n_features, name=f"{name}.multipliers")
    # All multipliers operate in parallel: critical path is one multiplier.
    merged.path = single.path
    multipliers = merged

    tree = adder_tree(n_features, product_bits, name=f"{name}.adder_tree")
    sum_bits = adder_tree_output_width(n_features, product_bits)
    bias_adder = ripple_carry_adder(max(score_bits, sum_bits), name=f"{name}.bias_adder")

    block = series(name, [multipliers, tree, bias_adder])
    return block, max(score_bits, sum_bits)


def synthesize_constant_mac(
    weight_codes: Sequence[int],
    bias_code: int,
    input_bits: int,
    score_bits: int,
    name: str = "bespoke_mac",
) -> Tuple[HardwareBlock, int]:
    """A fully-parallel bespoke weighted sum for one classifier.

    Every non-trivial coefficient becomes a hardwired constant multiplier;
    the shifted/added terms are reduced by an adder tree sized by the number
    of non-zero coefficients; the (hardwired) bias costs one more adder only
    if it is non-zero.
    """
    weight_codes = [int(w) for w in weight_codes]
    bias_code = int(bias_code)

    multipliers = HardwareBlock(name=f"{name}.const_mults")
    product_widths = []
    worst_path = None
    n_nonzero = 0
    for idx, code in enumerate(weight_codes):
        if code == 0:
            continue
        n_nonzero += 1
        cm = constant_multiplier(code, input_bits, name=f"cmul{idx}")
        product_widths.append(constant_multiplier_output_bits(code, input_bits))
        multipliers.counts.update(cm.counts)
        for cell, t in cm.toggles.items():
            multipliers.toggles[cell] = multipliers.toggles.get(cell, 0.0) + t
        if worst_path is None or sum(cm.path.values()) > sum(worst_path.values()):
            worst_path = cm.path
    if worst_path is not None:
        multipliers.path = worst_path

    if n_nonzero == 0:
        # Degenerate classifier: score is just the bias (pure wiring).
        return HardwareBlock(name=name), max(score_bits, 1)

    operand_width = max(product_widths)
    tree = adder_tree(n_nonzero, operand_width, name=f"{name}.adder_tree")
    sum_bits = adder_tree_output_width(n_nonzero, operand_width)

    blocks = [multipliers, tree]
    if bias_code != 0:
        blocks.append(ripple_carry_adder(max(score_bits, sum_bits), name=f"{name}.bias_adder"))
    block = series(name, blocks)
    return block, max(score_bits, sum_bits)


def estimate_classifier_score_bound(
    weight_codes: np.ndarray, bias_codes: np.ndarray, max_input_code: int
) -> int:
    """Worst-case score magnitude over all classifiers of a quantized model."""
    weight_codes = np.asarray(weight_codes, dtype=np.int64)
    bias_codes = np.asarray(bias_codes, dtype=np.int64)
    per_classifier = (
        np.sum(np.abs(weight_codes), axis=1) * int(max_input_code)
        + np.abs(bias_codes)
    )
    return int(np.max(per_classifier)) if per_classifier.size else 0


def gate_equivalent_count(block: HardwareBlock) -> float:
    """Size of a block in NAND2 gate equivalents (synthesis-report style)."""
    from repro.hw.pdk import gate_equivalents

    return sum(gate_equivalents(cell) * n for cell, n in block.counts.items())
