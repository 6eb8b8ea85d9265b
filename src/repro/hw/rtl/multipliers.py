"""Multiplier generators: generic array multipliers and hardwired-constant
multipliers.

Two kinds of multiplier appear in printed bespoke classifiers:

* **Array multipliers** with two variable operands.  The paper's sequential
  compute engine needs these, because the coefficient arrives from MUX
  storage at run time (a different support vector every cycle).
* **Constant (bespoke) multipliers** where one operand is hardwired.  The
  fully-parallel baselines [2], [3] instantiate one of these per coefficient;
  they reduce to a few shift-and-add/subtract stages determined by the
  canonical signed digit (CSD) recoding of the constant, and vanish entirely
  for zero or power-of-two coefficients.  This is the key reason bespoke
  parallel designs are smaller per-multiplier but need many more multipliers.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import List, Optional, Tuple

from repro.hw.activity import datapath_toggles
from repro.hw.netlist import GateNetlist, HardwareBlock


# --------------------------------------------------------------------------- #
# Canonical signed-digit recoding (for constant multipliers)
# --------------------------------------------------------------------------- #
def csd_digits(value: int) -> List[int]:
    """Canonical signed-digit representation of an integer.

    Returns a list of digits in ``{-1, 0, +1}``, least-significant first,
    such that ``value == sum(d * 2**i)`` and no two consecutive digits are
    non-zero.  The CSD form minimises the number of add/subtract stages of a
    shift-and-add constant multiplier.
    """
    value = int(value)
    negative = value < 0
    magnitude = -value if negative else value
    digits: List[int] = []
    while magnitude > 0:
        if magnitude & 1:
            # Remainder modulo 4 decides whether to emit +1 or -1.
            if magnitude & 2:
                digits.append(-1)
                magnitude += 1
            else:
                digits.append(1)
                magnitude -= 1
        else:
            digits.append(0)
        magnitude >>= 1
    if not digits:
        digits = []
    if negative:
        digits = [-d for d in digits]
    return digits


def csd_nonzero_count(value: int) -> int:
    """Number of non-zero CSD digits (add/subtract terms) of a constant."""
    return sum(1 for d in csd_digits(value) if d != 0)


def csd_value(digits: List[int]) -> int:
    """Reconstruct the integer encoded by a CSD digit list (LSB first)."""
    return sum(d << i for i, d in enumerate(digits))


# --------------------------------------------------------------------------- #
# Generic array multiplier (two variable operands)
# --------------------------------------------------------------------------- #
def array_multiplier(
    a_bits: int,
    b_bits: int,
    signed: bool = True,
    name: str = "mult",
) -> HardwareBlock:
    """A carry-save array multiplier for ``a_bits`` x ``b_bits`` operands.

    Cost model (standard array structure):

    * partial-product generation: ``a_bits * b_bits`` AND gates;
    * reduction plus final ripple: ``(b_bits - 1)`` rows, each with
      ``a_bits - 1`` full adders and one half adder;
    * signed (Baugh-Wooley) handling adds one inverter per operand bit and a
      final correction half adder per operand.

    Critical path: roughly ``a_bits + b_bits - 2`` adder positions (carry
    propagation through one row plus down the array) preceded by one AND.
    """
    if a_bits < 1 or b_bits < 1:
        raise ValueError("multiplier operand widths must be >= 1")
    counts: Counter = Counter({"AND2": a_bits * b_bits})
    if b_bits > 1:
        counts.update(
            {
                "FA": (b_bits - 1) * max(a_bits - 1, 0),
                "HA": (b_bits - 1),
            }
        )
    if signed:
        counts.update({"INV": a_bits + b_bits, "HA": 2})

    path_fa = max(a_bits + b_bits - 2, 0)
    path = Counter({"AND2": 1})
    if path_fa > 0:
        path.update({"FA": path_fa})
    depth = 1 + path_fa
    return HardwareBlock(
        name=name,
        counts=counts,
        path=path,
        toggles=datapath_toggles(counts, depth),
    )


def array_multiplier_output_bits(a_bits: int, b_bits: int, signed: bool = True) -> int:
    """Width of the full product of an ``a_bits`` x ``b_bits`` multiplication."""
    if a_bits < 1 or b_bits < 1:
        raise ValueError("multiplier operand widths must be >= 1")
    return a_bits + b_bits


# --------------------------------------------------------------------------- #
# Hardwired-constant multiplier (bespoke)
# --------------------------------------------------------------------------- #
def constant_multiplier(
    constant_code: int,
    input_bits: int,
    name: Optional[str] = None,
) -> HardwareBlock:
    """A bespoke multiplier computing ``constant_code * x`` for an unsigned input.

    The constant is recoded in CSD form; each non-zero digit contributes one
    shifted copy of the input, and the copies are combined with a tree of
    ripple-carry adders / subtractors.  Special cases:

    * ``constant == 0`` — no hardware at all (output tied to 0);
    * a single non-zero digit (power of two, possibly negated) — pure wiring
      (plus a small negation stage when the digit is -1).
    """
    constant_code = int(constant_code)
    name = name or f"cmul_{constant_code}"
    digits = csd_digits(constant_code)
    nonzero = [(i, d) for i, d in enumerate(digits) if d != 0]

    if not nonzero:
        return HardwareBlock(name=name)

    if len(nonzero) == 1:
        shift, digit = nonzero[0]
        if digit > 0:
            # Pure shift: wiring only.
            return HardwareBlock(name=name)
        # Negated power of two: two's-complement negation of the input.
        counts = Counter({"INV": input_bits, "HA": input_bits})
        path = Counter({"INV": 1, "HA": input_bits})
        return HardwareBlock(
            name=name, counts=counts, path=path, toggles=datapath_toggles(counts, input_bits + 1)
        )

    # General case: combine the shifted terms pairwise with a balanced tree.
    counts = Counter()
    n_terms = len(nonzero)
    max_shift = max(i for i, _ in nonzero)
    # Width of intermediate sums: input width plus the largest shift plus tree growth.
    base_width = input_bits + max_shift
    n_adders = n_terms - 1
    n_subtractors = sum(1 for _, d in nonzero if d < 0)
    n_plain_adders = max(n_adders - n_subtractors, 0)
    n_sub_stages = min(n_subtractors, n_adders)

    counts.update({"FA": n_plain_adders * base_width})
    counts.update({"FA": n_sub_stages * base_width, "INV": n_sub_stages * input_bits})

    levels = int(math.ceil(math.log2(n_terms)))
    path_fa = base_width + 2 * max(levels - 1, 0)
    path = Counter({"FA": path_fa})
    depth = path_fa
    return HardwareBlock(
        name=name,
        counts=counts,
        path=path,
        toggles=datapath_toggles(counts, depth),
    )


def constant_multiplier_output_bits(constant_code: int, input_bits: int) -> int:
    """Width of the product of an ``input_bits`` unsigned input and a constant."""
    constant_code = int(constant_code)
    if constant_code == 0:
        return 1
    magnitude_bits = int(abs(constant_code)).bit_length()
    sign_bit = 1 if constant_code < 0 else 0
    return input_bits + magnitude_bits + sign_bit


# --------------------------------------------------------------------------- #
# Explicit gate-level construction (small instances, for verification)
# --------------------------------------------------------------------------- #
def _emit_array_product(
    netlist: GateNetlist,
    a_nets: List[str],
    b_nets: List[str],
    prefix: str = "",
) -> List[str]:
    """Emit the textbook unsigned array-multiplier structure into a netlist.

    ``a_nets`` / ``b_nets`` are existing nets of ``netlist`` (constant nets
    allowed — that is how the naive hardwired-constant multipliers below tie
    one operand off).  Returns the product nets, LSB first; entries may be
    constant nets when whole rows vanish.
    """
    a_bits, b_bits = len(a_nets), len(b_nets)
    # Partial products pp[j][i] = a[i] & b[j]
    pp = [
        [
            netlist.add_gate(
                "AND2", [a_nets[i], b_nets[j]], outputs=[f"{prefix}pp{j}_{i}"]
            )[0]
            for i in range(a_bits)
        ]
        for j in range(b_bits)
    ]

    # Row-by-row ripple accumulation.
    acc: List[str] = list(pp[0])  # running sum bits, LSB first (length grows)
    outputs: List[str] = [acc[0]]
    acc = acc[1:]
    for j in range(1, b_bits):
        row = pp[j]
        carry = GateNetlist.CONST_ZERO
        new_acc: List[str] = []
        for i in range(a_bits):
            acc_bit = acc[i] if i < len(acc) else GateNetlist.CONST_ZERO
            s, carry = netlist.add_gate(
                "FA",
                [row[i], acc_bit, carry],
                outputs=[f"{prefix}s{j}_{i}", f"{prefix}c{j}_{i}"],
            )
            new_acc.append(s)
        new_acc.append(carry)
        outputs.append(new_acc[0])
        acc = new_acc[1:]
    outputs.extend(acc)
    return outputs


def _emit_ripple_add(
    netlist: GateNetlist, x_nets: List[str], y_nets: List[str], prefix: str
) -> List[str]:
    """Emit a naive ripple adder over two (possibly unequal-width) operands.

    Shorter operands are zero-padded with the constant net; every position
    uses a full adder with the carry chain seeded at constant 0 — deliberately
    unoptimized, the optimizer's constant folding folds the tied
    positions (``FA(a, b, 0)`` -> ``HA`` etc.).  Returns sum nets plus the
    final carry, LSB first.
    """
    width = max(len(x_nets), len(y_nets))
    carry = GateNetlist.CONST_ZERO
    sums: List[str] = []
    for i in range(width):
        x = x_nets[i] if i < len(x_nets) else GateNetlist.CONST_ZERO
        y = y_nets[i] if i < len(y_nets) else GateNetlist.CONST_ZERO
        s, carry = netlist.add_gate(
            "FA", [x, y, carry], outputs=[f"{prefix}s{i}", f"{prefix}c{i}"]
        )
        sums.append(s)
    sums.append(carry)
    return sums


def _constant_operand_nets(magnitude: int) -> List[str]:
    """Constant nets encoding an unsigned magnitude as a tied-off operand."""
    b_bits = max(int(magnitude).bit_length(), 1)
    return [
        GateNetlist.CONST_ONE if (magnitude >> j) & 1 else GateNetlist.CONST_ZERO
        for j in range(b_bits)
    ]


def _mark_bus_outputs(netlist: GateNetlist, nets: List[str], tie_prefix: str = "pz") -> None:
    """Mark product nets as outputs, buffering constant bits to observe them."""
    for k, net in enumerate(nets):
        if net in (GateNetlist.CONST_ZERO, GateNetlist.CONST_ONE):
            # Tie constant product bits through a buffer so they are observable.
            net = netlist.add_gate("BUF", [net], outputs=[f"{tie_prefix}{k}"])[0]
        netlist.mark_output(net)


def build_array_multiplier_netlist(
    a_bits: int, b_bits: int, name: str = "mult"
) -> GateNetlist:
    """Explicit unsigned array multiplier netlist (for logic-level checks).

    Implements the textbook unsigned array: AND partial products reduced with
    ripple rows.  Primary inputs ``a[a_bits]``, ``b[b_bits]``; outputs
    ``p[a_bits + b_bits]``.
    """
    if a_bits < 1 or b_bits < 1:
        raise ValueError("multiplier operand widths must be >= 1")
    netlist = GateNetlist(name=name)
    a = netlist.add_inputs("a", a_bits)
    b = netlist.add_inputs("b", b_bits)
    outputs = _emit_array_product(netlist, a, b)
    _mark_bus_outputs(netlist, outputs)
    return netlist


def build_constant_multiplier_netlist(
    constant_code: int, input_bits: int, name: Optional[str] = None
) -> GateNetlist:
    """Naive hardwired-constant multiplier netlist: ``|constant| * a``.

    The same array structure as :func:`build_array_multiplier_netlist` with
    the ``b`` operand *tied off* to the constant's magnitude bits — exactly
    what a generator emitting "one multiplier per coefficient" produces
    before optimization.  Rows of AND gates fed by ``1'b0`` and full adders
    with constant operands are emitted verbatim; the :mod:`repro.hw.opt`
    optimizer is what folds them away (the cost model already prices
    zero / power-of-two constants at zero — see :func:`constant_multiplier`).

    The sign of a negative constant is ignored (magnitude multiplier); the
    negation stage is priced separately, as in :func:`constant_multiplier`.
    Primary inputs ``a[input_bits]``; outputs are the product bits of
    ``magnitude * a``, LSB first.
    """
    if input_bits < 1:
        raise ValueError("multiplier input width must be >= 1")
    magnitude = abs(int(constant_code))
    name = name or f"cmul{magnitude}_{input_bits}b"
    netlist = GateNetlist(name=name)
    a = netlist.add_inputs("a", input_bits)
    outputs = _emit_array_product(netlist, a, _constant_operand_nets(magnitude))
    _mark_bus_outputs(netlist, outputs)
    return netlist


def build_constant_mac_netlist(
    weight_codes: List[int], input_bits: int, name: Optional[str] = None
) -> GateNetlist:
    """Naive constant-MAC datapath: one tied-operand multiplier per weight.

    The fully-parallel baselines instantiate one hardwired multiplier per
    coefficient and sum the products; this builder emits that datapath
    *unoptimized* — tied-off array multipliers (see
    :func:`build_constant_multiplier_netlist`) chained through naive ripple
    adders seeded with constant carries.  It is the reference workload for
    the :mod:`repro.hw.opt` optimizer: zero weights leave whole dead
    multipliers behind, power-of-two weights reduce to wiring, and shared
    partial products hash together.

    Weights enter as magnitudes (``|w|``); sign handling lives in the
    subtract/negate stages the cost model prices separately.  Primary inputs
    ``x{f}[input_bits]`` per feature ``f``; outputs are the accumulated sum
    bits, LSB first.
    """
    weights = [abs(int(w)) for w in weight_codes]
    if not weights:
        raise ValueError("need at least one weight")
    if input_bits < 1:
        raise ValueError("input width must be >= 1")
    netlist = GateNetlist(name=name or f"cmac_{len(weights)}x{input_bits}b")
    acc: Optional[List[str]] = None
    for f, magnitude in enumerate(weights):
        x = netlist.add_inputs(f"x{f}", input_bits)
        product = _emit_array_product(
            netlist, x, _constant_operand_nets(magnitude), prefix=f"m{f}_"
        )
        acc = product if acc is None else _emit_ripple_add(
            netlist, acc, product, prefix=f"acc{f}_"
        )
    _mark_bus_outputs(netlist, acc)
    return netlist


def simulate_array_multiplier(netlist: GateNetlist, a_value: int, b_value: int, a_bits: int, b_bits: int) -> int:
    """Drive a gate-level multiplier netlist and decode the product."""
    from repro.hw.simulate import simulate_combinational

    if a_value < 0 or b_value < 0:
        raise ValueError("operands must be non-negative")
    values = {}
    for i in range(a_bits):
        values[f"a[{i}]"] = (a_value >> i) & 1
    for j in range(b_bits):
        values[f"b[{j}]"] = (b_value >> j) & 1
    out = simulate_combinational(netlist, values)
    product = 0
    for k, net in enumerate(netlist.outputs):
        product |= out[net] << k
    return product
