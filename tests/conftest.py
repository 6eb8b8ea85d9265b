"""Shared fixtures for the test suite.

The fixtures build one small, fast, deterministic classification problem and
derive trained / quantized models and generated designs from it, so the many
tests that need "some trained SVM" or "some sequential design" do not each
pay the training cost.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.design_flow import FlowConfig
from repro.core.sequential_svm import SequentialSVMDesign
from repro.datasets.synthetic import SyntheticSpec, make_classification
from repro.ml.mlp import MLPClassifier
from repro.ml.multiclass import OneVsOneClassifier, OneVsRestClassifier
from repro.ml.preprocessing import prepare_split
from repro.ml.quantization import (
    quantize_linear_classifier,
    quantize_mlp_classifier,
)
from repro.ml.svm import LinearSVC

# Example budgets of the hypothesis tests that do not pin ``max_examples``
# themselves: a small one for tier-1, a deeper one selected with
# ``pytest --hypothesis-profile=ci``.
settings.register_profile("default", max_examples=10, deadline=None)
settings.register_profile("ci", max_examples=100, deadline=None)
settings.load_profile("default")


@pytest.fixture(scope="session")
def small_problem():
    """A small, well-separated 4-class problem (120 samples, 6 features)."""
    spec = SyntheticSpec(
        n_samples=120,
        n_features=6,
        n_classes=4,
        separability=3.5,
        seed=7,
    )
    X, y = make_classification(spec)
    return X, y


@pytest.fixture(scope="session")
def small_split(small_problem):
    """The small problem after the paper's preprocessing pipeline."""
    X, y = small_problem
    return prepare_split(X, y, test_size=0.25, random_state=1)


@pytest.fixture(scope="session")
def trained_ovr(small_split):
    """An OvR linear SVM trained on the small problem."""
    clf = OneVsRestClassifier(LinearSVC(C=1.0, max_iter=60, random_state=0))
    clf.fit(small_split.X_train, small_split.y_train)
    return clf


@pytest.fixture(scope="session")
def trained_ovo(small_split):
    """An OvO linear SVM trained on the small problem."""
    clf = OneVsOneClassifier(LinearSVC(C=1.0, max_iter=60, random_state=0))
    clf.fit(small_split.X_train, small_split.y_train)
    return clf


@pytest.fixture(scope="session")
def trained_mlp(small_split):
    """A small MLP trained on the small problem."""
    clf = MLPClassifier(hidden_layer_sizes=(4,), max_epochs=80, random_state=0)
    clf.fit(small_split.X_train, small_split.y_train)
    return clf


@pytest.fixture(scope="session")
def quantized_ovr(trained_ovr):
    """The OvR SVM quantized to 4-bit inputs / 6-bit weights."""
    return quantize_linear_classifier(trained_ovr, input_bits=4, weight_bits=6)


@pytest.fixture(scope="session")
def quantized_ovo(trained_ovo):
    """The OvO SVM quantized to 4-bit inputs / 6-bit weights."""
    return quantize_linear_classifier(trained_ovo, input_bits=4, weight_bits=6)


@pytest.fixture(scope="session")
def quantized_mlp(trained_mlp):
    """The MLP quantized to 4-bit inputs / 6-bit weights."""
    return quantize_mlp_classifier(trained_mlp, input_bits=4, weight_bits=6)


@pytest.fixture(scope="session")
def sequential_design(quantized_ovr):
    """The sequential SVM circuit generated from the quantized OvR model."""
    return SequentialSVMDesign(quantized_ovr, dataset="small-problem")


@pytest.fixture(scope="session")
def tiny_flow_config():
    """A very small flow configuration used by the end-to-end flow tests."""
    return FlowConfig(
        n_samples=220,
        svm_max_iter=20,
        mlp_max_epochs=25,
        mlp_hidden_neurons=4,
    )


@pytest.fixture()
def rng():
    """A fresh deterministic random generator per test."""
    return np.random.default_rng(1234)
