"""Tests for the binary linear SVM trainers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.svm import LinearSVC


def make_blobs(n=80, gap=3.0, seed=0, flip=0.0):
    """Two Gaussian blobs separated along a diagonal direction."""
    rng = np.random.default_rng(seed)
    half = n // 2
    X0 = rng.normal(loc=-gap / 2, scale=1.0, size=(half, 2))
    X1 = rng.normal(loc=+gap / 2, scale=1.0, size=(n - half, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * half + [1] * (n - half))
    if flip > 0:
        mask = rng.random(n) < flip
        y = np.where(mask, 1 - y, y)
    return X, y


class TestLinearSVCBasics:
    def test_separable_problem_high_accuracy(self):
        X, y = make_blobs(gap=4.0)
        clf = LinearSVC(max_iter=100, random_state=0).fit(X, y)
        assert clf.score(X, y) >= 0.97

    def test_coefficients_shape(self):
        X, y = make_blobs()
        clf = LinearSVC().fit(X, y)
        assert clf.coef_.shape == (2,)
        assert isinstance(clf.intercept_, float)

    def test_decision_function_sign_matches_prediction(self):
        X, y = make_blobs(gap=4.0)
        clf = LinearSVC().fit(X, y)
        scores = clf.decision_function(X)
        preds = clf.predict(X)
        assert np.array_equal(preds, np.where(scores >= 0, 1, 0))

    def test_predict_preserves_original_labels(self):
        X, y = make_blobs()
        labels = np.where(y == 1, 7, -3)
        clf = LinearSVC().fit(X, labels)
        assert set(np.unique(clf.predict(X))).issubset({-3, 7})

    def test_single_sample_prediction(self):
        X, y = make_blobs()
        clf = LinearSVC().fit(X, y)
        pred = clf.predict(X[0])
        assert pred.shape == (1,)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LinearSVC().predict(np.zeros((1, 2)))

    def test_multiclass_input_rejected(self):
        X = np.random.default_rng(0).normal(size=(30, 2))
        y = np.arange(30) % 3
        with pytest.raises(ValueError):
            LinearSVC().fit(X, y)

    def test_feature_count_mismatch_rejected(self):
        X, y = make_blobs()
        clf = LinearSVC().fit(X, y)
        with pytest.raises(ValueError):
            clf.decision_function(np.zeros((3, 5)))

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            LinearSVC(C=-1.0)
        with pytest.raises(ValueError):
            LinearSVC(loss="bogus")
        with pytest.raises(ValueError):
            LinearSVC(solver="bogus")
        with pytest.raises(ValueError):
            LinearSVC(max_iter=0)


class TestSolvers:
    @pytest.mark.parametrize("loss", ["hinge", "squared_hinge"])
    def test_dual_cd_both_losses(self, loss):
        X, y = make_blobs(gap=3.5, seed=3)
        clf = LinearSVC(loss=loss, solver="dual_cd", max_iter=200).fit(X, y)
        assert clf.score(X, y) >= 0.95

    def test_sgd_solver_learns(self):
        X, y = make_blobs(gap=4.0, seed=5)
        clf = LinearSVC(solver="sgd", max_iter=150, random_state=0).fit(X, y)
        assert clf.score(X, y) >= 0.9

    def test_solvers_agree_on_separable_data(self):
        X, y = make_blobs(gap=5.0, seed=11)
        dual = LinearSVC(solver="dual_cd", max_iter=300).fit(X, y)
        sgd = LinearSVC(solver="sgd", max_iter=300).fit(X, y)
        agreement = np.mean(dual.predict(X) == sgd.predict(X))
        assert agreement >= 0.95

    def test_dual_solver_exposes_support_vectors(self):
        X, y = make_blobs(gap=3.0, flip=0.02)
        clf = LinearSVC(solver="dual_cd", max_iter=200).fit(X, y)
        assert clf.n_support_ >= 2
        assert clf.n_support_ <= len(y)
        assert np.all(clf.dual_coef_ >= -1e-12)

    def test_sgd_solver_has_no_support_vectors(self):
        X, y = make_blobs()
        clf = LinearSVC(solver="sgd", max_iter=20).fit(X, y)
        with pytest.raises(RuntimeError):
            _ = clf.n_support_

    def test_history_recorded(self):
        X, y = make_blobs()
        clf = LinearSVC(max_iter=100).fit(X, y)
        assert clf.history_.n_iterations >= 1
        assert np.isfinite(clf.history_.objective)

    def test_convergence_flag_on_easy_problem(self):
        X, y = make_blobs(gap=6.0)
        clf = LinearSVC(max_iter=1000, tol=1e-3).fit(X, y)
        assert clf.history_.converged


class TestRegularisationAndWeights:
    def test_small_c_shrinks_weights(self):
        X, y = make_blobs(gap=2.0, flip=0.05, seed=9)
        strong_reg = LinearSVC(C=0.01, max_iter=300).fit(X, y)
        weak_reg = LinearSVC(C=100.0, max_iter=300).fit(X, y)
        assert np.linalg.norm(strong_reg.coef_) < np.linalg.norm(weak_reg.coef_)

    def test_sample_weight_zero_ignores_samples(self):
        X, y = make_blobs(gap=4.0, seed=2)
        # Zero out one clear outlier-free subset: weights of the second half.
        w = np.ones(len(y))
        w[y == 1] = 0.0
        clf = LinearSVC(max_iter=100)
        # With only one effective class the fit should still run (the ignored
        # samples keep their labels), and predict everything as class 0 side.
        clf.fit(X, y, sample_weight=w)
        preds = clf.predict(X[y == 0])
        assert np.mean(preds == 0) >= 0.9

    def test_negative_sample_weight_rejected(self):
        X, y = make_blobs()
        with pytest.raises(ValueError):
            LinearSVC().fit(X, y, sample_weight=-np.ones(len(y)))

    def test_no_intercept_option(self):
        X, y = make_blobs(gap=4.0)
        clf = LinearSVC(fit_intercept=False).fit(X, y)
        assert clf.intercept_ == 0.0

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=15, deadline=None)
    def test_training_deterministic_given_seed(self, seed):
        X, y = make_blobs(gap=3.0, seed=4)
        a = LinearSVC(random_state=seed, max_iter=30).fit(X, y)
        b = LinearSVC(random_state=seed, max_iter=30).fit(X, y)
        assert np.allclose(a.coef_, b.coef_)
        assert a.intercept_ == pytest.approx(b.intercept_)


class TestNonFiniteInput:
    """NaN or infinity in the training data is rejected, not trained on."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_X_rejected(self, bad):
        X, y = make_blobs()
        X[3, 1] = bad
        with pytest.raises(ValueError, match="X contains"):
            LinearSVC().fit(X, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_weight_rejected(self, bad):
        X, y = make_blobs()
        weights = np.ones(len(y))
        weights[5] = bad
        with pytest.raises(ValueError, match="sample_weight contains"):
            LinearSVC().fit(X, y, sample_weight=weights)
