"""Tests for HardwareBlock composition and explicit GateNetlists."""

import pytest

from repro.hw.netlist import (
    GateNetlist,
    HardwareBlock,
    empty_block,
    parallel,
    series,
)
from repro.hw.pdk import EGFET_PDK


def block(name, fa=0, mux=0, dff=0, path_fa=0):
    counts = {}
    if fa:
        counts["FA"] = fa
    if mux:
        counts["MUX2"] = mux
    if dff:
        counts["DFF"] = dff
    path = {"FA": path_fa} if path_fa else {}
    toggles = {cell: 0.5 * n for cell, n in counts.items()}
    return HardwareBlock(name, counts=counts, path=path, toggles=toggles)


class TestHardwareBlock:
    def test_cell_count_and_area(self):
        b = block("b", fa=10, mux=5)
        assert b.n_cells() == 15
        expected_area = 10 * EGFET_PDK["FA"].area_cm2 + 5 * EGFET_PDK["MUX2"].area_cm2
        assert b.area_cm2(EGFET_PDK) == pytest.approx(expected_area)

    def test_static_power_positive(self):
        b = block("b", fa=4, dff=2)
        assert b.static_power_mw(EGFET_PDK) > 0

    def test_series_composition_adds_paths(self):
        a = block("a", fa=3, path_fa=3)
        b = block("b", fa=5, path_fa=5)
        combined = series("ab", [a, b])
        assert combined.n_cells() == 8
        assert combined.logic_depth() == 8
        assert combined.critical_path_delay_ms(EGFET_PDK) == pytest.approx(
            a.critical_path_delay_ms(EGFET_PDK) + b.critical_path_delay_ms(EGFET_PDK),
            rel=1e-6,
        )

    def test_parallel_composition_takes_worst_path(self):
        a = block("a", fa=3, path_fa=3)
        b = block("b", fa=9, path_fa=9)
        combined = parallel("ab", [a, b])
        assert combined.n_cells() == 12
        assert combined.logic_depth() == 9

    def test_toggles_accumulate(self):
        a = block("a", fa=4)
        b = block("b", fa=6)
        combined = parallel("ab", [a, b])
        assert combined.toggles["FA"] == pytest.approx(5.0)

    def test_scaled_replicates_counts_not_path(self):
        a = block("a", fa=4, path_fa=4)
        scaled = a.scaled(5)
        assert scaled.n_cells() == 20
        assert scaled.logic_depth() == 4
        assert scaled.toggles["FA"] == pytest.approx(4 * 0.5 * 5)

    def test_scaled_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            block("a", fa=1).scaled(0)

    def test_empty_block_is_neutral(self):
        a = block("a", fa=3, path_fa=3)
        combined = series("x", [empty_block(), a])
        assert combined.n_cells() == a.n_cells()
        assert combined.logic_depth() == a.logic_depth()

    def test_children_recorded_and_reported(self):
        a = block("storage", mux=4)
        b = block("engine", fa=8, path_fa=8)
        combined = series("design", [a, b])
        assert [child.name for child in combined.children] == ["storage", "engine"]
        report = combined.hierarchy_report(EGFET_PDK)
        assert "storage" in report and "engine" in report

    def test_cell_report_sorted(self):
        b = block("b", fa=2, mux=1)
        assert list(b.cell_report().keys()) == sorted(b.cell_report().keys())


class TestGateNetlist:
    def test_build_and_count(self):
        net = GateNetlist("toy")
        a, b = net.add_input("a"), net.add_input("b")
        (y,) = net.add_gate("AND2", [a, b])
        net.mark_output(y)
        assert net.n_gates() == 1
        assert net.cell_counts()["AND2"] == 1
        assert y in net.nets()

    def test_bus_inputs(self):
        net = GateNetlist("bus")
        nets = net.add_inputs("x", 4)
        assert nets == ["x[0]", "x[1]", "x[2]", "x[3]"]

    def test_reading_undriven_net_rejected(self):
        net = GateNetlist("bad")
        net.add_input("a")
        with pytest.raises(ValueError):
            net.add_gate("AND2", ["a", "ghost"])

    def test_double_driving_rejected(self):
        net = GateNetlist("bad")
        a = net.add_input("a")
        net.add_gate("INV", [a], outputs=["n1"])
        with pytest.raises(ValueError):
            net.add_gate("INV", [a], outputs=["n1"])

    def test_duplicate_input_rejected(self):
        net = GateNetlist("bad")
        net.add_input("a")
        with pytest.raises(ValueError):
            net.add_input("a")

    def test_constants_always_available(self):
        net = GateNetlist("const")
        (y,) = net.add_gate("OR2", [GateNetlist.CONST_ZERO, GateNetlist.CONST_ONE])
        net.mark_output(y)
        assert net.n_gates() == 1

    def test_marking_undriven_output_rejected(self):
        net = GateNetlist("bad")
        with pytest.raises(ValueError):
            net.mark_output("nowhere")

    def test_fanout_and_driver_queries(self):
        net = GateNetlist("fan")
        a = net.add_input("a")
        (n1,) = net.add_gate("INV", [a], outputs=["n1"])
        net.add_gate("AND2", [n1, a], outputs=["n2"])
        net.add_gate("OR2", [n1, a], outputs=["n3"])
        assert net.fanout_of(n1) == 2
        assert net.driver_of(n1).cell == "INV"
        assert net.driver_of(a) is None

    def test_ha_fa_have_two_outputs(self):
        net = GateNetlist("adders")
        a, b = net.add_input("a"), net.add_input("b")
        outs = net.add_gate("HA", [a, b])
        assert len(outs) == 2

    def test_to_block_matches_counts(self):
        net = GateNetlist("toy")
        a, b = net.add_input("a"), net.add_input("b")
        (n1,) = net.add_gate("AND2", [a, b])
        (n2,) = net.add_gate("INV", [n1])
        net.mark_output(n2)
        blk = net.to_block()
        assert blk.n_cells() == 2
        assert blk.logic_depth() == 2


class TestBindDff:
    """``bind_dff`` finds its flip-flop through the builder's name map, so
    binding costs O(1) instead of a netlist-wide index rebuild."""

    @staticmethod
    def _bank(n):
        net = GateNetlist("bank")
        d = net.add_input("d")
        qs = [net.declare_dff(f"q[{i}]", name=f"ff{i}") for i in range(n)]
        return net, d, qs

    def test_binding_never_rebuilds_the_fanout_index(self, monkeypatch):
        net, d, qs = self._bank(8)
        net.fanout_of(d)  # build the lazy index once
        calls = []
        real = GateNetlist._indices
        monkeypatch.setattr(
            GateNetlist, "_indices", lambda self: calls.append(1) or real(self)
        )
        prev = d
        for q in qs:
            net.bind_dff(q, prev)
            prev = q
        assert calls == []
        bound = [g.inputs for g in net.sequential_gates()]
        assert bound == [(d,), *[(q,) for q in qs[:-1]]]
        assert net.driver_of(qs[3]).name == "ff3"

    def test_rewrite_is_seen_by_bind_and_driver_queries(self):
        net, d, (q0, q1) = self._bank(2)
        gate_type = type(net.gates[0])
        # Replace the second flip-flop by a fresh one under a new name.
        net.gates[1] = gate_type(name="late", cell="DFF", inputs=(), outputs=(q1,))
        net.note_structural_change()
        assert net.driver_of(q1).name == "late"
        net.bind_dff(q1, q0)
        assert net.gates[1].inputs == (q0,)
        assert net.driver_of(q1) is net.gates[1]
        # The replaced instance name is gone, so it can be declared again.
        net.declare_dff("q_again", name="ff1")
        assert net.driver_of("q_again").name == "ff1"

    def test_bind_errors_still_raise(self):
        net, d, (q0,) = self._bank(1)
        with pytest.raises(ValueError, match="not driven by a flip-flop"):
            net.bind_dff("nowhere", d)
        with pytest.raises(ValueError, match="not driven by a flip-flop"):
            net.bind_dff(d, d)
        with pytest.raises(ValueError, match="reads undriven net"):
            net.bind_dff(q0, "floating")
        net.bind_dff(q0, d)
        with pytest.raises(ValueError, match="already bound"):
            net.bind_dff(q0, GateNetlist.CONST_ONE)

    def test_duplicate_instance_names_rejected_after_rewrite(self):
        net, d, _ = self._bank(1)
        with pytest.raises(ValueError, match="duplicate instance name"):
            net.add_gate("INV", [d], name="ff0")
        net.gates = []
        net.note_structural_change()
        net.add_gate("INV", [d], name="ff0")
