"""Tests for the MLP baseline trainer."""

import numpy as np
import pytest

from repro.ml.mlp import MLPClassifier, relu, softmax


class TestActivations:
    def test_relu(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert np.array_equal(relu(x), np.array([0.0, 0.0, 3.0]))

    def test_softmax_rows_sum_to_one(self, rng):
        z = rng.normal(size=(10, 5)) * 10
        p = softmax(z)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0)

    def test_softmax_stable_for_large_inputs(self):
        z = np.array([[1000.0, 1001.0, 999.0]])
        p = softmax(z)
        assert np.all(np.isfinite(p))
        assert p[0, 1] == p.max()


class TestMLPTraining:
    def test_learns_separable_problem(self, small_split, trained_mlp):
        assert trained_mlp.score(small_split.X_test, small_split.y_test) >= 0.75

    def test_loss_decreases(self, trained_mlp):
        losses = trained_mlp.history_.losses
        assert len(losses) >= 5
        assert losses[-1] < losses[0]

    def test_layer_sizes(self, small_split, trained_mlp):
        sizes = trained_mlp.layer_sizes_
        assert sizes[0] == small_split.n_features
        assert sizes[-1] == small_split.n_classes
        assert sizes[1] == 4

    def test_parameter_count(self, trained_mlp):
        sizes = trained_mlp.layer_sizes_
        expected = sum(
            sizes[i] * sizes[i + 1] + sizes[i + 1] for i in range(len(sizes) - 1)
        )
        assert trained_mlp.n_parameters_ == expected

    def test_multiplication_count(self, trained_mlp):
        sizes = trained_mlp.layer_sizes_
        expected = sum(sizes[i] * sizes[i + 1] for i in range(len(sizes) - 1))
        assert trained_mlp.n_multiplications_ == expected

    def test_predict_proba_valid_distribution(self, small_split, trained_mlp):
        proba = trained_mlp.predict_proba(small_split.X_test)
        assert proba.shape == (small_split.n_test, small_split.n_classes)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_predictions_are_known_classes(self, small_split, trained_mlp):
        preds = trained_mlp.predict(small_split.X_test)
        assert set(np.unique(preds)).issubset(set(trained_mlp.classes_.tolist()))

    def test_deterministic_given_seed(self, small_split):
        a = MLPClassifier(hidden_layer_sizes=(3,), max_epochs=10, random_state=5)
        b = MLPClassifier(hidden_layer_sizes=(3,), max_epochs=10, random_state=5)
        a.fit(small_split.X_train, small_split.y_train)
        b.fit(small_split.X_train, small_split.y_train)
        for wa, wb in zip(a.weights_, b.weights_):
            assert np.allclose(wa, wb)

    def test_two_hidden_layers(self, small_split):
        clf = MLPClassifier(hidden_layer_sizes=(5, 3), max_epochs=30, random_state=0)
        clf.fit(small_split.X_train, small_split.y_train)
        assert clf.layer_sizes_ == (
            small_split.n_features,
            5,
            3,
            small_split.n_classes,
        )

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MLPClassifier().predict(np.zeros((1, 3)))

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            MLPClassifier(hidden_layer_sizes=(0,))
        with pytest.raises(ValueError):
            MLPClassifier(learning_rate=-1.0)
        with pytest.raises(ValueError):
            MLPClassifier(max_epochs=0)

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ValueError):
            MLPClassifier().fit(X, np.zeros(10))
