"""Structural and behavioural Verilog emission.

Bespoke printed classifiers are ultimately taped out from RTL, so the flow
can export:

* structural Verilog of any explicit :class:`~repro.hw.netlist.GateNetlist`
  (gate-level, one instance per library cell), and
* a behavioural Verilog module of the sequential SVM architecture with the
  support-vector coefficients hardwired as localparams — the human-readable
  artefact a designer would hand to a printed-PDK synthesis flow.

The emitted text is plain Verilog-2001; no external tool is invoked.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.hw.netlist import GateNetlist

#: Mapping from library cells to Verilog primitive expressions.
_CELL_EXPRESSIONS = {
    "INV": "assign {out0} = ~{in0};",
    "BUF": "assign {out0} = {in0};",
    "NAND2": "assign {out0} = ~({in0} & {in1});",
    "NOR2": "assign {out0} = ~({in0} | {in1});",
    "AND2": "assign {out0} = {in0} & {in1};",
    "OR2": "assign {out0} = {in0} | {in1};",
    "XOR2": "assign {out0} = {in0} ^ {in1};",
    "XNOR2": "assign {out0} = ~({in0} ^ {in1});",
    "AND3": "assign {out0} = {in0} & {in1} & {in2};",
    "OR3": "assign {out0} = {in0} | {in1} | {in2};",
    "MUX2": "assign {out0} = {in2} ? {in1} : {in0};",
    "HA": "assign {out0} = {in0} ^ {in1};\n  assign {out1} = {in0} & {in1};",
    "FA": (
        "assign {out0} = {in0} ^ {in1} ^ {in2};\n"
        "  assign {out1} = ({in0} & {in1}) | ({in2} & ({in0} ^ {in1}));"
    ),
}


def _sanitize(net: str) -> str:
    """Make a net name a legal Verilog identifier."""
    if net == GateNetlist.CONST_ZERO:
        return "1'b0"
    if net == GateNetlist.CONST_ONE:
        return "1'b1"
    return (
        net.replace("[", "_").replace("]", "").replace(".", "_").replace("-", "_")
    )


def netlist_to_verilog(netlist: GateNetlist, opt_level: int = 0) -> str:
    """Emit a structural (assign-per-gate) Verilog module for a netlist.

    ``opt_level > 0`` runs the :mod:`repro.hw.opt` optimizer first and
    emits the optimized netlist; the module interface (port names and order)
    is identical at every level, only the internal gate structure shrinks.

    Clocked netlists (``DFF`` cells, including feedback built through the
    ``declare_dff``/``bind_dff`` API) gain a ``clk`` input port; every
    flip-flop becomes a ``reg`` updated in its own ``always @(posedge
    clk)`` block, with the power-on value from
    :attr:`~repro.hw.netlist.GateNetlist.dff_init` as the ``initial``
    state.
    """
    if opt_level:
        from repro.hw.opt import optimize

        netlist = optimize(netlist, level=opt_level).netlist
    flops = [g for g in netlist.gates if g.cell == "DFF" and g.inputs]
    flop_ids = {id(g) for g in flops}
    reg_nets = {_sanitize(g.outputs[0]) for g in flops}
    inputs = [_sanitize(n) for n in netlist.inputs]
    outputs = [_sanitize(n) for n in netlist.outputs]
    ports = (["clk"] if flops else []) + inputs + outputs
    lines: List[str] = [
        f"// Auto-generated structural netlist: {netlist.name}",
        f"module {netlist.name} (",
        "  " + ",\n  ".join(ports),
        ");",
    ]
    if flops:
        lines.append("  input  clk;")
    for name in inputs:
        lines.append(f"  input  {name};")
    for name in outputs:
        lines.append(f"  output {name};")
    for net in sorted(reg_nets):
        lines.append(f"  reg    {net};")

    declared = set(inputs) | set(outputs) | reg_nets
    for gate in netlist.gates:
        for out in gate.outputs:
            sanitized = _sanitize(out)
            if sanitized not in declared:
                lines.append(f"  wire {sanitized};")
                declared.add(sanitized)

    for gate in netlist.gates:
        if id(gate) in flop_ids:
            q = _sanitize(gate.outputs[0])
            d = _sanitize(gate.inputs[0])
            init = int(netlist.dff_init.get(gate.name, 0)) & 1
            lines.append("  // " + gate.name + " (DFF)")
            lines.append(f"  initial {q} = 1'b{init};")
            lines.append(f"  always @(posedge clk) {q} <= {d};")
            continue
        template = _CELL_EXPRESSIONS.get(gate.cell)
        if template is None:
            raise ValueError(f"no Verilog template for cell {gate.cell!r}")
        mapping = {}
        for idx, pin in enumerate(gate.inputs):
            mapping[f"in{idx}"] = _sanitize(pin)
        for idx, pin in enumerate(gate.outputs):
            mapping[f"out{idx}"] = _sanitize(pin)
        lines.append("  // " + gate.name + " (" + gate.cell + ")")
        lines.append("  " + template.format(**mapping))
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def sequential_svm_to_verilog(
    weight_codes: np.ndarray,
    bias_codes: np.ndarray,
    input_bits: int,
    weight_bits: int,
    score_bits: int,
    module_name: str = "sequential_svm",
) -> str:
    """Emit a behavioural Verilog module of the sequential SVM architecture.

    The module follows Fig. 1 of the paper: a counter-driven control process,
    MUX-based storage holding the hardwired coefficients (emitted as a
    ``case`` over the counter), the folded multiply-accumulate engine and the
    sequential argmax voter.
    """
    weight_codes = np.asarray(weight_codes, dtype=np.int64)
    bias_codes = np.asarray(bias_codes, dtype=np.int64)
    n_classifiers, n_features = weight_codes.shape
    counter_bits = max(1, int(np.ceil(np.log2(max(n_classifiers, 2)))))

    lines: List[str] = [
        f"// Auto-generated bespoke sequential SVM ({n_classifiers} classifiers,",
        f"// {n_features} features, {input_bits}-bit inputs, {weight_bits}-bit weights).",
        f"module {module_name} (",
        "  input  wire clk,",
        "  input  wire rst,",
        "  input  wire start,",
        f"  input  wire [{n_features * input_bits - 1}:0] features,",
        f"  output reg  [{counter_bits - 1}:0] predicted_class,",
        "  output reg  done",
        ");",
        "",
        f"  localparam integer N_CLASSIFIERS = {n_classifiers};",
        f"  localparam integer N_FEATURES    = {n_features};",
        "",
        f"  reg  [{counter_bits - 1}:0] sv_counter;",
        f"  reg  signed [{score_bits - 1}:0] best_score;",
        f"  wire signed [{score_bits - 1}:0] score;",
        "",
    ]

    # Storage: hardwired coefficient selection (bespoke MUX storage).
    lines.append("  // Bespoke MUX-based storage: coefficients hardwired per counter value.")
    for f in range(n_features):
        lines.append(f"  reg signed [{weight_bits - 1}:0] w{f};")
    lines.append(f"  reg signed [{score_bits - 1}:0] bias;")
    lines.append("  always @(*) begin")
    lines.append("    case (sv_counter)")
    for k in range(n_classifiers):
        assigns = " ".join(
            f"w{f} = {weight_bits}'sd{int(weight_codes[k, f])};".replace("'sd-", "'sd0 - ")
            for f in range(n_features)
        )
        bias_txt = f"bias = {score_bits}'sd{int(bias_codes[k])};".replace("'sd-", "'sd0 - ")
        lines.append(f"      {counter_bits}'d{k}: begin {assigns} {bias_txt} end")
    default_assigns = " ".join(f"w{f} = 0;" for f in range(n_features)) + " bias = 0;"
    lines.append(f"      default: begin {default_assigns} end")
    lines.append("    endcase")
    lines.append("  end")
    lines.append("")

    # Compute engine: folded multiply-accumulate over the selected support vector.
    lines.append("  // Folded compute engine: m multipliers + multi-operand adder.")
    terms = []
    for f in range(n_features):
        lines.append(
            f"  wire [{input_bits - 1}:0] x{f} = "
            f"features[{(f + 1) * input_bits - 1}:{f * input_bits}];"
        )
        terms.append(f"$signed({{1'b0, x{f}}}) * w{f}")
    lines.append(
        "  assign score = " + "\n               + ".join(terms) + "\n               + bias;"
    )
    lines.append("")

    # Control + voter.
    lines.extend(
        [
            "  // Control counter and sequential argmax voter.",
            "  always @(posedge clk) begin",
            "    if (rst) begin",
            "      sv_counter      <= 0;",
            "      best_score      <= 0;",
            "      predicted_class <= 0;",
            "      done            <= 1'b0;",
            "    end else if (start || sv_counter != 0) begin",
            "      if (sv_counter == 0 || score > best_score) begin",
            "        best_score      <= score;",
            "        predicted_class <= sv_counter;",
            "      end",
            "      if (sv_counter == N_CLASSIFIERS - 1) begin",
            "        sv_counter <= 0;",
            "        done       <= 1'b1;",
            "      end else begin",
            "        sv_counter <= sv_counter + 1'b1;",
            "        done       <= 1'b0;",
            "      end",
            "    end",
            "  end",
            "",
            "endmodule",
        ]
    )
    return "\n".join(lines) + "\n"
