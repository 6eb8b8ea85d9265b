"""Linear Support Vector Machine training.

The paper employs linear-kernel SVMs ("due to their simplicity and reduced
hardware complexity"): every classifier computes ``y = sum_i w_i x_i + b``
and the sign (binary case) or the argmax over classifiers (multi-class case)
decides the class.  Because scikit-learn is not available offline, this
module implements two standard linear-SVM trainers from scratch:

* **Dual coordinate descent** (the liblinear algorithm of Hsieh et al.,
  ICML 2008) for the L2-regularised L1-loss / L2-loss SVM.  This is the
  default: it is deterministic given a seed, fast for the small UCI-sized
  datasets of the paper, and exposes the dual coefficients, i.e. which
  training samples act as support vectors.  One epoch (a pass over a
  shuffled sample order) runs as a compiled C function where a C toolchain
  exists (:mod:`repro.toolchain`), and otherwise as
  :func:`_dual_cd_epoch_reference`, the pure-Python oracle it is
  bit-identical to.  The shuffle itself stays in numpy, so both paths visit
  the samples in the same order.
* **Sub-gradient SGD** (Pegasos-style) as an alternative optimiser, useful
  for cross-checking and for the property-based tests.

Only the primal weight vector and bias are needed downstream: they are what
gets quantized and hardwired into the bespoke circuits.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro import toolchain

#: One dual-CD epoch in C, statement for statement the same IEEE operations
#: in the same order as :func:`_dual_cd_epoch_reference`.  Python's
#: ``min(a, b)`` keeps ``a`` unless ``b < a`` and ``max(a, b)`` keeps ``a``
#: unless ``b > a``; the ternaries below spell exactly that, so ties, signed
#: zeros and NaNs resolve as in Python.
_EPOCH_SOURCE = r"""
#include <math.h>
#include <stdint.h>

double repro_dual_cd_epoch(
    const int64_t *order, int64_t n_order, const double *X, int64_t n_features,
    const double *y, const double *sample_weight, const double *diag,
    const double *upper, const double *q_diag, double *alpha, double *w)
{
    double max_violation = 0.0;
    for (int64_t k = 0; k < n_order; ++k) {
        const int64_t i = order[k];
        if (sample_weight[i] == 0.0)
            continue;
        const double *x = X + i * n_features;
        double dot = 0.0;
        for (int64_t j = 0; j < n_features; ++j)
            dot += x[j] * w[j];
        const double g = y[i] * dot - 1.0 + diag[i] * alpha[i];
        double pg = g;
        if (alpha[i] <= 0.0)
            pg = (0.0 < g) ? 0.0 : g;                       /* min(g, 0.0) */
        else if (alpha[i] >= upper[i])
            pg = (0.0 > g) ? 0.0 : g;                       /* max(g, 0.0) */
        const double violation = fabs(pg);
        if (violation > max_violation)
            max_violation = violation;
        if (violation > 1e-14) {
            if (q_diag[i] <= 0.0)
                continue;
            const double alpha_old = alpha[i];
            const double step = alpha_old - g / q_diag[i];
            const double clipped = (0.0 > step) ? 0.0 : step;  /* max(step, 0.0) */
            alpha[i] = (upper[i] < clipped) ? upper[i] : clipped;  /* min(., upper) */
            const double delta = (alpha[i] - alpha_old) * y[i];
            if (delta != 0.0)
                for (int64_t j = 0; j < n_features; ++j)
                    w[j] += delta * x[j];
        }
    }
    return max_violation;
}
"""

#: ``-ffp-contract=off`` keeps ``w[j] += delta * x[j]`` a rounded multiply
#: then a rounded add: where FMA is baseline (aarch64) the compiler would
#: otherwise fuse them and round once.  No ``-ffast-math``: it licenses
#: reordering the sums.  No ``-march``: a cached object must run, and round
#: the same way, on any host of the architecture.
_EPOCH_FLAGS = ("-O2", "-ffp-contract=off")


def _dual_cd_epoch_reference(
    order: List[int],
    X: List[List[float]],
    y: List[float],
    sample_weight: List[float],
    diag: List[float],
    upper: List[float],
    q_diag: List[float],
    alpha: List[float],
    w: List[float],
) -> float:
    """One dual-CD pass over ``order``; the oracle of the compiled epoch.

    Every argument is a Python list (``X`` a list of rows); ``alpha`` and
    ``w`` are updated in place.  Dot products sum in index order, as the C
    loop does, and each ``min``/``max`` keeps its argument order, which the
    kernel mirrors.  Returns the largest projected-gradient violation.
    """
    max_violation = 0.0
    for i in order:
        if sample_weight[i] == 0:
            continue
        x = X[i]
        dot = 0.0
        for x_j, w_j in zip(x, w):
            dot += x_j * w_j
        g = y[i] * dot - 1.0 + diag[i] * alpha[i]
        # Projected gradient
        if alpha[i] <= 0.0:
            pg = min(g, 0.0)
        elif alpha[i] >= upper[i]:
            pg = max(g, 0.0)
        else:
            pg = g
        max_violation = max(max_violation, abs(pg))
        if abs(pg) > 1e-14:
            if q_diag[i] <= 0:
                continue
            alpha_old = alpha[i]
            alpha[i] = min(max(alpha_old - g / q_diag[i], 0.0), upper[i])
            delta = (alpha[i] - alpha_old) * y[i]
            if delta != 0.0:
                w[:] = [w_j + delta * x_j for w_j, x_j in zip(w, x)]
    return max_violation


def _dual_cd_epoch_kernel() -> Optional[Callable[..., float]]:
    """The compiled epoch, or ``None`` where no C toolchain is found.

    Compiled on the first call in a process (or loaded from the disk cache)
    and held by :func:`repro.toolchain.load_shared` after that.
    """
    found = toolchain.find_toolchain()
    if found is None:
        return None
    fn = toolchain.load_shared(_EPOCH_SOURCE, _EPOCH_FLAGS, found).repro_dual_cd_epoch
    fn.argtypes = (
        [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
        + [ctypes.c_void_p] * 7
    )
    fn.restype = ctypes.c_double
    return fn


@dataclass
class SVMTrainingHistory:
    """Convergence diagnostics recorded during training."""

    n_iterations: int = 0
    converged: bool = False
    final_violation: float = float("inf")
    objective: float = float("nan")


class LinearSVC:
    """Binary linear SVM classifier.

    Parameters
    ----------
    C:
        Inverse regularisation strength (larger C = less regularisation).
    loss:
        ``"hinge"`` (L1 loss) or ``"squared_hinge"`` (L2 loss).
    solver:
        ``"dual_cd"`` (dual coordinate descent, default) or ``"sgd"``.
    max_iter:
        Maximum number of passes over the training data.
    tol:
        Convergence tolerance on the maximal projected-gradient violation
        (dual solver) or on the relative weight change (SGD solver).
    fit_intercept:
        If True an (unregularised via augmentation) bias term is learned.
    random_state:
        Seed controlling the permutation order / SGD sampling.

    Attributes
    ----------
    coef_:
        Weight vector of shape ``(n_features,)``.
    intercept_:
        Scalar bias ``b``.
    dual_coef_:
        Dual variables ``alpha`` (only for the dual solver); non-zero entries
        identify the support vectors.
    support_:
        Indices of training samples with non-zero dual coefficient.
    history_:
        :class:`SVMTrainingHistory` with convergence information.

    Notes
    -----
    Labels must be binary.  Internally they are mapped to ``{-1, +1}`` with
    the *larger* original label mapped to ``+1`` so that ``decision_function``
    is positive for that class.
    """

    def __init__(
        self,
        C: float = 1.0,
        loss: str = "squared_hinge",
        solver: str = "dual_cd",
        max_iter: int = 1000,
        tol: float = 1e-4,
        fit_intercept: bool = True,
        intercept_scaling: float = 1.0,
        random_state: Optional[int] = 0,
    ) -> None:
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        if loss not in ("hinge", "squared_hinge"):
            raise ValueError(f"unknown loss {loss!r}")
        if solver not in ("dual_cd", "sgd"):
            raise ValueError(f"unknown solver {solver!r}")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.C = float(C)
        self.loss = loss
        self.solver = solver
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.fit_intercept = bool(fit_intercept)
        self.intercept_scaling = float(intercept_scaling)
        self.random_state = random_state

        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self.dual_coef_: Optional[np.ndarray] = None
        self.support_: Optional[np.ndarray] = None
        self.classes_: Optional[np.ndarray] = None
        self.history_ = SVMTrainingHistory()

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, X: np.ndarray, y: np.ndarray, sample_weight: Optional[np.ndarray] = None) -> "LinearSVC":
        """Train on a binary-labelled dataset."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on the number of samples")
        classes = np.unique(y)
        if len(classes) != 2:
            raise ValueError(
                f"LinearSVC is a binary classifier; got {len(classes)} classes. "
                "Use OneVsRestClassifier / OneVsOneClassifier for multi-class."
            )
        self.classes_ = classes
        # Map to {-1, +1}: larger label -> +1.
        y_signed = np.where(y == classes[1], 1.0, -1.0)

        if not np.isfinite(X).all():
            raise ValueError("X contains NaN or infinity")
        if sample_weight is None:
            sample_weight = np.ones(X.shape[0], dtype=float)
        else:
            sample_weight = np.ascontiguousarray(sample_weight, dtype=float)
            if sample_weight.shape != (X.shape[0],):
                raise ValueError("sample_weight length mismatch")
            if not np.isfinite(sample_weight).all():
                raise ValueError("sample_weight contains NaN or infinity")
            if np.any(sample_weight < 0):
                raise ValueError("sample_weight entries must be non-negative")

        if self.fit_intercept:
            X_aug = np.hstack(
                [X, np.full((X.shape[0], 1), self.intercept_scaling, dtype=float)]
            )
        else:
            X_aug = X

        if self.solver == "dual_cd":
            w_aug = self._fit_dual_cd(X_aug, y_signed, sample_weight)
        else:
            w_aug = self._fit_sgd(X_aug, y_signed, sample_weight)

        if self.fit_intercept:
            self.coef_ = w_aug[:-1].copy()
            self.intercept_ = float(w_aug[-1] * self.intercept_scaling)
        else:
            self.coef_ = w_aug.copy()
            self.intercept_ = 0.0
        return self

    def _fit_dual_cd(
        self, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray
    ) -> np.ndarray:
        """Dual coordinate descent for L1/L2-loss linear SVM (Hsieh et al.)."""
        # The compiled epoch indexes raw buffers, so every array it sees is
        # C-contiguous float64: ``y`` and ``sample_weight`` leave ``fit``
        # that way, and the rest are built fresh below.
        X = np.ascontiguousarray(X)
        n_samples, n_features = X.shape
        rng = np.random.default_rng(self.random_state)

        if self.loss == "hinge":
            # L1 loss: 0 <= alpha_i <= C_i, diagonal term D_ii = 0
            upper = self.C * sample_weight
            diag = np.zeros(n_samples)
        else:
            # L2 loss: 0 <= alpha_i < inf, D_ii = 1 / (2 C_i)
            upper = np.full(n_samples, np.inf)
            with np.errstate(divide="ignore"):
                diag = np.where(
                    sample_weight > 0, 1.0 / (2.0 * self.C * sample_weight), np.inf
                )

        # Q_ii = x_i . x_i + D_ii
        q_diag = np.einsum("ij,ij->i", X, X) + diag
        alpha = np.zeros(n_samples)
        w = np.zeros(n_features)
        # Shuffled in place every epoch, so its buffer (and pointer) is fixed.
        active = np.arange(n_samples, dtype=np.int64)

        kernel = _dual_cd_epoch_kernel()
        if kernel is not None:
            epoch = functools.partial(
                kernel, active.ctypes.data, n_samples, X.ctypes.data, n_features,
                *(a.ctypes.data for a in (y, sample_weight, diag, upper, q_diag, alpha, w)),
            )
        else:
            lists = [a.tolist() for a in (X, y, sample_weight, diag, upper, q_diag)]
            alpha_list, w_list = alpha.tolist(), w.tolist()

            def epoch() -> float:
                return _dual_cd_epoch_reference(active.tolist(), *lists, alpha_list, w_list)

        converged = False
        iteration = 0
        max_violation = float("inf")
        for iteration in range(1, self.max_iter + 1):
            rng.shuffle(active)
            max_violation = epoch()
            if max_violation < self.tol:
                converged = True
                break
        if kernel is None:
            alpha, w = np.array(alpha_list), np.array(w_list)

        self.dual_coef_ = alpha
        self.support_ = np.flatnonzero(alpha > 1e-12)
        self.history_ = SVMTrainingHistory(
            n_iterations=iteration,
            converged=converged,
            final_violation=max_violation,
            objective=self._primal_objective(X, y, w, sample_weight),
        )
        return w

    def _fit_sgd(
        self, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray
    ) -> np.ndarray:
        """Pegasos-style sub-gradient descent on the primal objective."""
        n_samples, n_features = X.shape
        rng = np.random.default_rng(self.random_state)
        lam = 1.0 / (self.C * max(1, n_samples))
        w = np.zeros(n_features)
        t = 0
        converged = False
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            order = rng.permutation(n_samples)
            w_before = w.copy()
            for i in order:
                t += 1
                eta = 1.0 / (lam * t)
                margin = y[i] * float(X[i] @ w)
                w *= 1.0 - eta * lam
                if self.loss == "hinge":
                    if margin < 1.0:
                        w += eta * sample_weight[i] * y[i] * X[i] / n_samples * self.C * lam * n_samples
                else:
                    if margin < 1.0:
                        w += eta * sample_weight[i] * 2.0 * (1.0 - margin) * y[i] * X[i] / n_samples * self.C * lam * n_samples
            change = float(np.linalg.norm(w - w_before))
            scale = float(np.linalg.norm(w)) + 1e-12
            if change / scale < self.tol:
                converged = True
                break
        self.dual_coef_ = None
        self.support_ = None
        self.history_ = SVMTrainingHistory(
            n_iterations=iteration,
            converged=converged,
            final_violation=float("nan"),
            objective=self._primal_objective(X, y, w, sample_weight),
        )
        return w

    def _primal_objective(
        self, X: np.ndarray, y: np.ndarray, w: np.ndarray, sample_weight: np.ndarray
    ) -> float:
        margins = 1.0 - y * (X @ w)
        hinge = np.maximum(margins, 0.0)
        if self.loss == "squared_hinge":
            loss = np.sum(sample_weight * hinge ** 2)
        else:
            loss = np.sum(sample_weight * hinge)
        return 0.5 * float(w @ w) + self.C * float(loss)

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def _check_fitted(self) -> None:
        if self.coef_ is None:
            raise RuntimeError("LinearSVC must be fitted before use")

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Signed distance-like score ``w.x + b`` for each sample."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self.coef_.shape[0]:
            raise ValueError(
                f"expected {self.coef_.shape[0]} features, got {X.shape[1]}"
            )
        return X @ self.coef_ + self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class labels (the original labels passed to ``fit``)."""
        self._check_fitted()
        scores = self.decision_function(X)
        return np.where(scores >= 0.0, self.classes_[1], self.classes_[0])

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy on ``(X, y)``."""
        from repro.ml.metrics import accuracy_score

        return accuracy_score(y, self.predict(X))

    @property
    def n_support_(self) -> int:
        """Number of support vectors (dual solver only)."""
        if self.support_ is None:
            raise RuntimeError("support vectors are only tracked by the dual solver")
        return int(len(self.support_))
