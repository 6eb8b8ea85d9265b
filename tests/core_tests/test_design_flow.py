"""Tests for the end-to-end design flow (train -> quantize -> generate -> report)."""

from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.core import design_flow
from repro.core.design_flow import (
    FlowConfig,
    MODEL_KINDS,
    clear_flow_cache,
    fast_config,
    prepare_dataset,
    quantize_split_inputs,
    run_dataset_comparison,
    run_flow,
    run_parallel_mlp_flow,
    run_parallel_svm_flow,
    run_sequential_svm_flow,
    training_run_count,
)


class TestFlowConfig:
    def test_defaults_follow_paper(self):
        config = FlowConfig()
        assert config.test_size == pytest.approx(0.2)  # 80/20 split
        assert config.input_bits <= 6  # low-precision inputs
        assert config.storage_style == "mux"

    def test_cache_key_distinguishes_configs(self):
        a = FlowConfig()
        b = FlowConfig(input_bits=5)
        assert a.cache_key("cardio", "ours") != b.cache_key("cardio", "ours")
        assert a.cache_key("cardio", "ours") == FlowConfig().cache_key("cardio", "ours")

    def test_fast_config_reduces_work(self):
        config = fast_config()
        assert config.n_samples is not None
        assert config.svm_max_iter < FlowConfig().svm_max_iter


class TestDataPreparation:
    def test_prepare_dataset_is_cached(self, tiny_flow_config):
        a = prepare_dataset("redwine", tiny_flow_config)
        b = prepare_dataset("redwine", tiny_flow_config)
        assert a is b

    def test_split_is_80_20(self, tiny_flow_config):
        split = prepare_dataset("cardio", tiny_flow_config)
        total = split.n_train + split.n_test
        assert split.n_test / total == pytest.approx(0.2, abs=0.05)

    def test_inputs_normalised(self, tiny_flow_config):
        split = prepare_dataset("cardio", tiny_flow_config)
        assert split.X_train.min() >= 0.0
        assert split.X_train.max() <= 1.0

    def test_quantize_split_inputs_snaps_to_grid(self, tiny_flow_config):
        split = prepare_dataset("cardio", tiny_flow_config)
        quantized = quantize_split_inputs(split, 4)
        levels = np.unique(np.round(quantized.X_train * 16).astype(int))
        assert levels.min() >= 0 and levels.max() <= 15
        # All values must be exact multiples of 1/16.
        assert np.allclose(quantized.X_train * 16, np.round(quantized.X_train * 16))


class TestIndividualFlows:
    def test_sequential_flow_produces_consistent_result(self, tiny_flow_config):
        result = run_sequential_svm_flow("redwine", tiny_flow_config)
        assert result.kind == "ours"
        assert result.dataset == "redwine"
        assert result.report.cycles_per_classification == 6  # RedWine: 6 classes
        assert 0 < result.report.accuracy_percent <= 100
        assert result.weight_bits_used >= tiny_flow_config.min_weight_bits
        assert result.design.verify_against_model(result.split.X_test)

    def test_flow_results_are_cached(self, tiny_flow_config):
        a = run_sequential_svm_flow("redwine", tiny_flow_config)
        b = run_sequential_svm_flow("redwine", tiny_flow_config)
        assert a is b

    def test_parallel_svm_flow_exact_and_approx_differ(self, tiny_flow_config):
        exact = run_parallel_svm_flow("redwine", approximate=False, config=tiny_flow_config)
        approx = run_parallel_svm_flow("redwine", approximate=True, config=tiny_flow_config)
        assert exact.kind == "svm_parallel_exact"
        assert approx.kind == "svm_parallel_approx"
        assert approx.report.area_cm2 < exact.report.area_cm2

    def test_baseline_uses_ovo(self, tiny_flow_config):
        result = run_parallel_svm_flow("redwine", config=tiny_flow_config)
        # RedWine has 6 classes -> OvO trains 15 classifiers.
        assert result.design.n_classifiers == 15

    def test_mlp_flow(self, tiny_flow_config):
        result = run_parallel_mlp_flow("redwine", tiny_flow_config)
        assert result.kind == "mlp_parallel"
        assert result.report.cycles_per_classification == 1
        assert result.report.area_cm2 > 0

    def test_run_flow_dispatch(self, tiny_flow_config):
        for kind in MODEL_KINDS:
            result = run_flow("redwine", kind, tiny_flow_config)
            assert result.kind == kind

    def test_unknown_kind_rejected(self, tiny_flow_config):
        with pytest.raises(ValueError):
            run_flow("redwine", "transformer", tiny_flow_config)

    def test_clear_cache_forces_regeneration(self, tiny_flow_config):
        a = run_sequential_svm_flow("redwine", tiny_flow_config)
        clear_flow_cache()
        b = run_sequential_svm_flow("redwine", tiny_flow_config)
        assert a is not b
        assert a.report.area_cm2 == pytest.approx(b.report.area_cm2)


class TestSharedBaselineFit:
    """The exact [2] and approximate [3] rows differ only in the design
    style, so a dataset's two parallel SVM baselines share one fit."""

    @staticmethod
    def _row(result):
        return (
            asdict(result.report),
            result.float_accuracy_percent,
            result.weight_bits_used,
            result.design.model.weight_codes.tobytes(),
            result.design.model.bias_codes.tobytes(),
        )

    def test_both_baselines_train_once(self, tiny_flow_config):
        clear_flow_cache()
        before = training_run_count()
        exact = run_parallel_svm_flow("cardio", approximate=False, config=tiny_flow_config)
        approx = run_parallel_svm_flow("cardio", approximate=True, config=tiny_flow_config)
        assert training_run_count() == before + 1
        assert exact.float_accuracy_percent == approx.float_accuracy_percent

    def test_shared_fit_reports_equal_separate_fits(self, tiny_flow_config):
        clear_flow_cache()
        shared = [
            run_parallel_svm_flow("cardio", approximate=a, config=tiny_flow_config)
            for a in (False, True)
        ]
        separate = []
        for approximate in (False, True):
            clear_flow_cache()
            separate.append(
                run_parallel_svm_flow("cardio", approximate=approximate, config=tiny_flow_config)
            )
        assert [self._row(r) for r in shared] == [self._row(r) for r in separate]

    def test_clear_flow_cache_drops_the_shared_fit(self, tiny_flow_config):
        clear_flow_cache()
        run_parallel_svm_flow("cardio", approximate=False, config=tiny_flow_config)
        assert len(design_flow._BASELINE_FIT_CACHE) == 1
        clear_flow_cache()
        assert len(design_flow._BASELINE_FIT_CACHE) == 0
        before = training_run_count()
        run_parallel_svm_flow("cardio", approximate=True, config=tiny_flow_config)
        assert training_run_count() == before + 1

    def test_configs_do_not_share_a_fit(self, tiny_flow_config):
        clear_flow_cache()
        before = training_run_count()
        run_parallel_svm_flow("cardio", config=tiny_flow_config)
        run_parallel_svm_flow("cardio", config=replace(tiny_flow_config, svm_c=0.5))
        assert training_run_count() == before + 2


class TestDatasetComparison:
    def test_comparison_covers_requested_kinds(self, tiny_flow_config):
        results = run_dataset_comparison(
            "redwine", kinds=["ours", "svm_parallel_exact"], config=tiny_flow_config
        )
        assert [r.kind for r in results] == ["ours", "svm_parallel_exact"]

    def test_paper_shape_on_one_dataset(self, tiny_flow_config):
        """The qualitative Table I shape on RedWine: sequential wins energy."""
        results = run_dataset_comparison("redwine", config=tiny_flow_config)
        by_kind = {r.kind: r.report for r in results}
        ours = by_kind["ours"]
        # Energy: the proposed design beats both parallel SVM baselines.
        assert ours.energy_mj < by_kind["svm_parallel_exact"].energy_mj
        assert ours.energy_mj < by_kind["svm_parallel_approx"].energy_mj
        # Power: the proposed design fits the 30 mW printed battery.
        assert ours.power_mw <= 30.0
        # Frequency: Hz range, faster clock than the parallel designs' rate.
        assert ours.frequency_hz > by_kind["svm_parallel_exact"].frequency_hz
