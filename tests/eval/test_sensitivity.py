"""Tests for the PDK-sensitivity (corner) analysis."""

import threading

import pytest

from repro.core.design_flow import FlowConfig, run_flow
from repro.eval import sensitivity
from repro.eval.sensitivity import (
    DEFAULT_CORNERS,
    PDKCorner,
    build_corner_library,
    sweep_pdk_parameters,
)
from repro.hw.pdk import EGFET_PDK

CONFIG = FlowConfig(n_samples=260, svm_max_iter=20, mlp_max_epochs=20, mlp_hidden_neurons=4)
KINDS = ("ours", "svm_parallel_exact", "svm_parallel_approx")


@pytest.fixture(scope="module")
def redwine_results():
    return [run_flow("redwine", kind, CONFIG) for kind in KINDS]


@pytest.fixture(scope="module")
def cardio_results():
    return [run_flow("cardio", kind, CONFIG) for kind in KINDS]


class TestCorners:
    def test_nominal_corner_is_identity(self):
        nominal = PDKCorner("nominal")
        library = build_corner_library(nominal)
        assert library["NAND2"].area_cm2 == pytest.approx(EGFET_PDK["NAND2"].area_cm2)
        assert library["FA"].delay_ms == pytest.approx(EGFET_PDK["FA"].delay_ms)

    def test_scaled_corner_changes_only_requested_parameters(self):
        corner = PDKCorner("area+30%", area_scale=1.3)
        library = build_corner_library(corner)
        assert library["NAND2"].area_cm2 == pytest.approx(1.3 * EGFET_PDK["NAND2"].area_cm2)
        assert library["NAND2"].static_power_mw == pytest.approx(
            EGFET_PDK["NAND2"].static_power_mw
        )

    def test_delay_corner_scales_delays(self):
        corner = PDKCorner("delay+30%", delay_scale=1.3)
        library = build_corner_library(corner)
        assert library["FA"].delay_ms == pytest.approx(1.3 * EGFET_PDK["FA"].delay_ms)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            PDKCorner("bad", area_scale=0.0).apply()

    def test_default_corner_set_contains_nominal_and_extremes(self):
        names = {corner.name for corner in DEFAULT_CORNERS}
        assert "nominal" in names
        assert any("+30%" in n for n in names)
        assert any("-30%" in n for n in names)


class TestSweep:
    def test_sweep_covers_all_corners(self, redwine_results):
        report = sweep_pdk_parameters(redwine_results, corners=DEFAULT_CORNERS[:4])
        assert len(report.corners) == 4
        for corner in report.corners:
            assert set(corner.reports) == {"ours", "svm_parallel_exact", "svm_parallel_approx"}

    def test_conclusions_hold_across_default_corners(self, redwine_results):
        """The robustness statement in EXPERIMENTS.md, verified on RedWine."""
        report = sweep_pdk_parameters(redwine_results)
        assert report.conclusion_holds_everywhere("energy_win")
        assert report.conclusion_holds_everywhere("battery_fit", budget_mw=30.0)
        assert report.conclusion_holds_everywhere("faster_clock")

    def test_energy_improvement_range_is_positive(self, redwine_results):
        report = sweep_pdk_parameters(redwine_results)
        low, high = report.energy_improvement_range()
        assert 1.0 < low <= high

    def test_corner_scaling_shifts_power_in_the_right_direction(self, redwine_results):
        corners = (PDKCorner("nominal"), PDKCorner("static+30%", static_power_scale=1.3))
        report = sweep_pdk_parameters(redwine_results, corners=corners)
        nominal = report.corners[0].reports["ours"]
        hungry = report.corners[1].reports["ours"]
        assert hungry.power_mw > nominal.power_mw
        # Accuracy is untouched by PDK perturbations.
        assert hungry.accuracy_percent == pytest.approx(nominal.accuracy_percent)

    def test_sweep_requires_proposed_design(self, redwine_results):
        baselines_only = [r for r in redwine_results if r.kind != "ours"]
        with pytest.raises(ValueError):
            sweep_pdk_parameters(baselines_only)
        with pytest.raises(ValueError):
            sweep_pdk_parameters([])

    def test_summary_mentions_every_corner(self, redwine_results):
        report = sweep_pdk_parameters(redwine_results, corners=DEFAULT_CORNERS[:3])
        text = report.summary()
        for corner in DEFAULT_CORNERS[:3]:
            assert corner.name in text


class TestConcurrentSweeps:
    def test_overlapping_sweeps_each_price_their_own_designs(
        self, redwine_results, cardio_results, monkeypatch
    ):
        """Two threads sweep at once: the redwine sweep waits inside its
        first corner until the cardio sweep has returned, and each report
        still equals its own serial sweep."""
        corners = DEFAULT_CORNERS[:3]
        serial = {
            "redwine": sweep_pdk_parameters(redwine_results, corners=corners),
            "cardio": sweep_pdk_parameters(cardio_results, corners=corners),
        }
        first_inside = threading.Event()
        second_returned = threading.Event()
        real_build = sensitivity.build_corner_library

        def build_gated(corner):
            is_first = threading.current_thread().name == "sweep-redwine"
            if is_first and not first_inside.is_set():
                first_inside.set()
                second_returned.wait(timeout=60)
            return real_build(corner)

        monkeypatch.setattr(sensitivity, "build_corner_library", build_gated)
        reports, errors = {}, []

        def sweep(name, results):
            try:
                reports[name] = sweep_pdk_parameters(results, corners=corners)
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        first = threading.Thread(
            target=sweep, args=("redwine", redwine_results), name="sweep-redwine"
        )
        second = threading.Thread(
            target=sweep, args=("cardio", cardio_results), name="sweep-cardio"
        )
        first.start()
        assert first_inside.wait(timeout=60)
        second.start()
        second.join(timeout=60)
        second_returned.set()
        first.join(timeout=60)
        assert not first.is_alive() and not second.is_alive()
        assert not errors, errors
        assert reports == serial
