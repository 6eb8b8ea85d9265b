"""A small multilayer perceptron, used to reproduce the printed-MLP baseline.

The paper compares its sequential SVMs against bespoke printed MLPs [4]
(Armeniakos et al., "Co-design of approximate multilayer perceptron for
ultra-resource constrained printed circuits").  Those baselines are small
fully-connected networks (one hidden layer of a handful of neurons, ReLU
activations, hardwired quantized weights).  This module trains such networks
with plain backpropagation so that the baseline circuits we generate carry
realistic coefficient values.

Training is mini-batch gradient descent on the cross-entropy loss.  One
epoch (every mini-batch step over a shuffled sample order, then the loss and
the training-accuracy count over the whole training set) runs as a compiled
C function where a C toolchain exists (:mod:`repro.toolchain`), and
otherwise as :func:`_mlp_epoch_reference`, the pure-Python oracle it is
bit-identical to.  The shuffle, the early-stopping rule and the history stay
in Python, so both paths visit the samples in the same order.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro import toolchain

#: One MLP epoch in C, the same IEEE operations as
#: :func:`_mlp_epoch_reference`.  ``params`` holds every layer's weights
#: (``fan_in x fan_out``, row-major) followed by its biases, updated in
#: place.  Every sum runs in ascending index order from ``0.0``; the loops
#: are nested so that independent sums (one row's outputs, one weight row's
#: gradients, one row's back-propagated deltas) advance together instead of
#: one after another.  A zero activation adds no term to the forward sums or
#: the weight gradients: with finite weights its products are zeros, which
#: leave a sum that starts at ``+0.0`` unchanged.  Returns the number of
#: training rows the updated network classifies correctly and writes the
#: loss to ``*loss``; -1 if the scratch allocation fails.
_MLP_EPOCH_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* z = a W + b for one row: z[j] = (sum over ascending k of a[k] W[k][j]) + b[j]. */
static void affine(const double *restrict a, int64_t fi, const double *restrict W,
                   const double *restrict b, int64_t fo, double *restrict z)
{
    for (int64_t j = 0; j < fo; ++j)
        z[j] = 0.0;
    for (int64_t k = 0; k < fi; ++k) {
        const double ak = a[k];
        if (ak == 0.0)
            continue;
        const double *w = W + k * fo;
        for (int64_t j = 0; j < fo; ++j)
            z[j] += ak * w[j];
    }
    for (int64_t j = 0; j < fo; ++j)
        z[j] += b[j];
}

/* z[j] = exp(z[j] - max(z)) in place; returns their sum.  The max keeps the
 * first of equal values, as Python's max() does; *arg gets its index. */
static double softmax_terms(double *z, int64_t n_classes, int64_t *arg)
{
    int64_t best = 0;
    double mx = z[0];
    for (int64_t c = 1; c < n_classes; ++c)
        if (z[c] > mx) {
            mx = z[c];
            best = c;
        }
    double s = 0.0;
    for (int64_t c = 0; c < n_classes; ++c) {
        z[c] = exp(z[c] - mx);
        s += z[c];
    }
    *arg = best;
    return s;
}

int64_t repro_mlp_epoch(
    const int64_t *order, int64_t n, const double *X, const int64_t *y,
    const int64_t *sizes, int64_t n_layers, double *params, int64_t batch,
    double learning_rate, double l2, double *loss)
{
    const int64_t n_classes = sizes[n_layers];
    int64_t n_params = 0, n_hidden = 0, width = 0;
    for (int64_t l = 0; l < n_layers; ++l) {
        n_params += sizes[l] * sizes[l + 1] + sizes[l + 1];
        if (l + 1 < n_layers)
            n_hidden += sizes[l + 1];
        if (sizes[l + 1] > width)
            width = sizes[l + 1];
    }
    /* Hidden activations of a batch, two delta blocks and a gradient row. */
    double *scratch = malloc(sizeof(double) * (batch * (n_hidden + 2 * width) + width));
    if (scratch == NULL)
        return -1;
    double *hidden = scratch;
    double *delta = hidden + batch * n_hidden;
    double *delta_prev = delta + batch * width;
    double *g = delta_prev + batch * width;

    for (int64_t start = 0; start < n; start += batch) {
        const int64_t *rows = order + start;
        const int64_t m = (n - start < batch) ? n - start : batch;
        const double dm = (double)m;

        /* Forward: each row through every layer; the output layer lands in
         * delta and becomes (softmax - one-hot label) / m there. */
        for (int64_t r = 0; r < m; ++r) {
            const double *a = X + rows[r] * sizes[0];
            const double *W = params;
            double *h = hidden;
            for (int64_t l = 0; l < n_layers; ++l) {
                const int64_t fi = sizes[l], fo = sizes[l + 1];
                const int64_t last = (l + 1 == n_layers);
                double *z = last ? delta + r * fo : h + r * fo;
                affine(a, fi, W, W + fi * fo, fo, z);
                if (!last) {
                    for (int64_t j = 0; j < fo; ++j)
                        z[j] = (z[j] > 0.0) ? z[j] : 0.0;
                    h += m * fo;
                }
                W += fi * fo + fo;
                a = z;
            }
            double *z = delta + r * n_classes;
            int64_t arg;
            const double s = softmax_terms(z, n_classes, &arg);
            for (int64_t c = 0; c < n_classes; ++c)
                z[c] = (z[c] / s - (c == y[rows[r]] ? 1.0 : 0.0)) / dm;
        }

        /* Backward, last layer first.  delta_prev and every gradient read
         * the layer's weights before they are updated. */
        double *W_end = params + n_params;
        double *h_end = hidden + m * n_hidden;
        for (int64_t l = n_layers - 1; l >= 0; --l) {
            const int64_t fi = sizes[l], fo = sizes[l + 1];
            double *W = W_end - (fi * fo + fo);
            double *b = W + fi * fo;
            W_end = W;
            const double *prev = NULL;          /* layer input rows, m x fi */
            if (l > 0) {
                h_end -= m * fi;
                prev = h_end;
                for (int64_t r = 0; r < m; ++r) {
                    const double *d = delta + r * fo;
                    double *dp = delta_prev + r * fi;
                    for (int64_t k = 0; k < fi; ++k)
                        dp[k] = 0.0;
                    for (int64_t j = 0; j < fo; ++j) {
                        const double d_j = d[j];
                        for (int64_t k = 0; k < fi; ++k)
                            dp[k] += d_j * W[k * fo + j];
                    }
                    for (int64_t k = 0; k < fi; ++k)
                        dp[k] = (prev[r * fi + k] > 0.0) ? dp[k] : 0.0;
                }
            }
            for (int64_t k = 0; k < fi; ++k) {
                for (int64_t j = 0; j < fo; ++j)
                    g[j] = 0.0;
                for (int64_t r = 0; r < m; ++r) {
                    const double ak = prev ? prev[r * fi + k] : X[rows[r] * fi + k];
                    if (ak == 0.0)
                        continue;
                    const double *d = delta + r * fo;
                    for (int64_t j = 0; j < fo; ++j)
                        g[j] += ak * d[j];
                }
                double *w = W + k * fo;
                for (int64_t j = 0; j < fo; ++j)
                    w[j] = w[j] - learning_rate * (g[j] + l2 * w[j]);
            }
            for (int64_t j = 0; j < fo; ++j)
                g[j] = 0.0;
            for (int64_t r = 0; r < m; ++r)
                for (int64_t j = 0; j < fo; ++j)
                    g[j] += delta[r * fo + j];
            for (int64_t j = 0; j < fo; ++j)
                b[j] = b[j] - learning_rate * g[j];
            double *swap = delta;
            delta = delta_prev;
            delta_prev = swap;
        }
    }

    /* Loss and correct count over the whole set, in index order; two rows of
     * the delta block serve as ping-pong activation buffers. */
    double total = 0.0;
    int64_t correct = 0;
    for (int64_t i = 0; i < n; ++i) {
        const double *a = X + i * sizes[0];
        const double *W = params;
        double *z = delta;
        for (int64_t l = 0; l < n_layers; ++l) {
            const int64_t fi = sizes[l], fo = sizes[l + 1];
            z = (a == delta) ? delta_prev : delta;
            affine(a, fi, W, W + fi * fo, fo, z);
            if (l + 1 < n_layers)
                for (int64_t j = 0; j < fo; ++j)
                    z[j] = (z[j] > 0.0) ? z[j] : 0.0;
            W += fi * fo + fo;
            a = z;
        }
        int64_t arg;
        const double s = softmax_terms(z, n_classes, &arg);
        correct += (arg == y[i]);
        double p = z[y[i]] / s;
        p = (p < 1e-12) ? 1e-12 : p;                    /* np.clip(p, 1e-12, 1.0) */
        p = (p > 1.0) ? 1.0 : p;
        total += log(p);
    }
    double reg = 0.0;
    const double *W = params;
    for (int64_t l = 0; l < n_layers; ++l) {
        const int64_t size = sizes[l] * sizes[l + 1];
        double sq = 0.0;
        for (int64_t k = 0; k < size; ++k)
            sq += W[k] * W[k];
        reg += sq;
        W += size + sizes[l + 1];
    }
    *loss = -(total / (double)n) + 0.5 * l2 * reg;
    free(scratch);
    return correct;
}
"""

#: As for the SVM epoch (:data:`repro.ml.svm._EPOCH_FLAGS`):
#: ``-ffp-contract=off`` keeps every multiply-add two roundings, and no
#: ``-ffast-math`` or ``-march``.  The kernel is its own shared object, not
#: folded into the SVM epoch's: it takes longer to compile, and processes that
#: train only SVMs never pay for it.
_MLP_EPOCH_FLAGS = ("-O2", "-ffp-contract=off")
_MLP_EPOCH_ARGTYPES = (
    [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p]
    + [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
    + [ctypes.c_double, ctypes.c_double, ctypes.c_void_p]
)


def _mlp_epoch_kernel() -> Optional[Callable[..., int]]:
    """The compiled epoch, or ``None`` where no C toolchain is found.

    Compiled on the first call in a process (or loaded from the disk cache)
    and memoized by :func:`repro.toolchain.load_function` after that.
    """
    return toolchain.load_function(
        _MLP_EPOCH_SOURCE, _MLP_EPOCH_FLAGS, "repro_mlp_epoch",
        _MLP_EPOCH_ARGTYPES, ctypes.c_int64,
    )


def _forward_row(
    a: List[float], columns: List[List[Tuple[float, ...]]], biases: List[List[float]]
) -> List[List[float]]:
    """Every layer's output for one row, as the kernel computes it: ReLU'd
    hidden layers, raw scores last.  ``columns[l][j]`` is column ``j`` of
    layer ``l``'s weights; a zero activation is skipped."""
    outs = []
    last = len(columns) - 1
    for layer, (cols, b) in enumerate(zip(columns, biases)):
        z = []
        for col, b_j in zip(cols, b):
            acc = 0.0
            for a_k, w in zip(a, col):
                if a_k:
                    acc += a_k * w
            acc += b_j
            z.append(acc if layer == last or acc > 0.0 else 0.0)
        outs.append(z)
        a = z
    return outs


def _softmax_terms(z: List[float]) -> Tuple[List[float], float]:
    """``exp(z - max(z))`` and its index-order sum, as the kernel's
    ``softmax_terms`` computes them."""
    mx = max(z)
    e = [math.exp(v - mx) for v in z]
    s = 0.0
    for v in e:
        s += v
    return e, s


def _mlp_epoch_reference(
    order: List[int],
    X: List[List[float]],
    y: List[int],
    weights: List[List[List[float]]],
    biases: List[List[float]],
    batch: int,
    learning_rate: float,
    l2: float,
) -> Tuple[float, int]:
    """One MLP epoch over ``order``; the oracle of the compiled epoch.

    ``X`` is a list of rows, ``y`` the class indices, ``weights[l]`` a list of
    ``fan_in`` rows of ``fan_out`` floats and ``biases[l]`` a list; their
    entries are replaced in place.  Runs every mini-batch step over
    ``order``, then returns the cross-entropy-plus-L2 loss over all of ``X``
    and the number of rows classified correctly, both with the updated
    weights.  Each sum runs in index order from ``0.0`` in an explicit loop,
    never ``sum()`` (whose float rounding changed in Python 3.12), and skips
    a zero activation where the kernel does; ``exp`` and ``log`` come from
    :mod:`math`, which calls the C library the kernel calls.  The loops are
    nested for speed, not in the kernel's order: only each sum's order
    fixes the result.
    """
    n = len(order)
    n_layers = len(weights)
    for start in range(0, n, batch):
        rows = order[start:start + batch]
        m = len(rows)
        columns = [list(zip(*W)) for W in weights]
        per_row = [_forward_row(X[i], columns, biases) for i in rows]
        # acts[l]: the input rows of layer l.
        acts = [[X[i] for i in rows]] + [
            [outs[layer] for outs in per_row] for layer in range(n_layers - 1)
        ]
        delta = []
        for outs, i in zip(per_row, rows):
            e, s = _softmax_terms(outs[-1])
            d = [e_c / s / m for e_c in e]  # (p - 0.0) / m
            d[y[i]] = (e[y[i]] / s - 1.0) / m
            delta.append(d)
        for layer in range(n_layers - 1, -1, -1):
            W = weights[layer]
            prev = acts[layer]
            if layer:
                delta_prev = []
                for a, d in zip(prev, delta):
                    row = []
                    for a_k, w in zip(a, W):
                        acc = 0.0
                        if a_k > 0.0:
                            for d_j, w_j in zip(d, w):
                                acc += d_j * w_j
                        row.append(acc)
                    delta_prev.append(row)
            delta_cols = list(zip(*delta))
            for k, (w, a_col) in enumerate(zip(W, zip(*prev))):
                new = []
                for w_j, d_col in zip(w, delta_cols):
                    acc = 0.0
                    for a_rk, d_rj in zip(a_col, d_col):
                        if a_rk:
                            acc += a_rk * d_rj
                    new.append(w_j - learning_rate * (acc + l2 * w_j))
                W[k] = new
            new = []
            for b_j, d_col in zip(biases[layer], delta_cols):
                acc = 0.0
                for d_rj in d_col:
                    acc += d_rj
                new.append(b_j - learning_rate * acc)
            biases[layer] = new
            if layer:
                delta = delta_prev

    columns = [list(zip(*W)) for W in weights]
    total = 0.0
    correct = 0
    for a, y_i in zip(X, y):
        z = _forward_row(a, columns, biases)[-1]
        if z.index(max(z)) == y_i:
            correct += 1
        e, s = _softmax_terms(z)
        p = e[y_i] / s
        if p < 1e-12:  # np.clip(p, 1e-12, 1.0)
            p = 1e-12
        if p > 1.0:
            p = 1.0
        total += math.log(p)
    reg = 0.0
    for W in weights:
        sq = 0.0
        for w in W:
            for w_j in w:
                sq += w_j * w_j
        reg += sq
    return -(total / len(X)) + 0.5 * l2 * reg, correct


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit, the activation used by printed bespoke MLPs."""
    return np.maximum(x, 0.0)


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


@dataclass
class MLPTrainingHistory:
    """Loss / accuracy trajectory recorded during training."""

    losses: List[float] = field(default_factory=list)
    train_accuracies: List[float] = field(default_factory=list)
    n_epochs: int = 0
    converged: bool = False


class MLPClassifier:
    """Fully-connected classifier with ReLU hidden layers and softmax output.

    Parameters
    ----------
    hidden_layer_sizes:
        Sizes of the hidden layers.  Printed MLP baselines are tiny — the
        default single hidden layer of 3 neurons matches the topologies used
        in ultra-resource-constrained printed circuits.
    learning_rate:
        Constant step size for mini-batch gradient descent.
    max_epochs:
        Maximum number of passes over the training data.
    batch_size:
        Mini-batch size; the full dataset is used when larger than the data.
    l2:
        L2 weight-decay coefficient.
    tol:
        Early-stopping tolerance on the training-loss improvement.
    patience:
        Number of epochs without sufficient improvement before stopping.
    random_state:
        Seed for weight initialisation and batch shuffling.
    """

    def __init__(
        self,
        hidden_layer_sizes: Sequence[int] = (3,),
        learning_rate: float = 0.1,
        max_epochs: int = 300,
        batch_size: int = 32,
        l2: float = 1e-4,
        tol: float = 1e-5,
        patience: int = 20,
        random_state: Optional[int] = 0,
    ) -> None:
        if any(h < 1 for h in hidden_layer_sizes):
            raise ValueError("hidden layer sizes must be positive")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.hidden_layer_sizes = tuple(int(h) for h in hidden_layer_sizes)
        self.learning_rate = float(learning_rate)
        self.max_epochs = int(max_epochs)
        self.batch_size = int(batch_size)
        self.l2 = float(l2)
        self.tol = float(tol)
        self.patience = int(patience)
        self.random_state = random_state

        self.weights_: List[np.ndarray] = []
        self.biases_: List[np.ndarray] = []
        self.classes_: Optional[np.ndarray] = None
        self.history_ = MLPTrainingHistory()

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def _init_params(self, n_features: int, n_classes: int, rng: np.random.Generator) -> None:
        sizes = [n_features, *self.hidden_layer_sizes, n_classes]
        self.weights_ = []
        self.biases_ = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            # He initialisation, appropriate for ReLU hidden layers.
            std = np.sqrt(2.0 / fan_in)
            self.weights_.append(rng.normal(0.0, std, size=(fan_in, fan_out)))
            self.biases_.append(np.zeros(fan_out))

    def _forward(self, X: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Return pre-activations and activations for every layer."""
        pre_acts: List[np.ndarray] = []
        acts: List[np.ndarray] = [X]
        a = X
        n_layers = len(self.weights_)
        for layer, (W, b) in enumerate(zip(self.weights_, self.biases_)):
            z = a @ W + b
            pre_acts.append(z)
            if layer < n_layers - 1:
                a = relu(z)
            else:
                a = softmax(z)
            acts.append(a)
        return pre_acts, acts

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPClassifier":
        """Train with mini-batch gradient descent on the cross-entropy loss."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on the number of samples")
        self.classes_ = np.unique(y)
        n_classes = len(self.classes_)
        if n_classes < 2:
            raise ValueError("need at least two classes")
        class_index = {c: i for i, c in enumerate(self.classes_)}
        y_idx = np.array([class_index[v] for v in y], dtype=np.int64)

        rng = np.random.default_rng(self.random_state)
        self._init_params(X.shape[1], n_classes, rng)
        self.history_ = MLPTrainingHistory()

        n = X.shape[0]
        batch = min(self.batch_size, n)
        kernel = _mlp_epoch_kernel()
        if kernel is not None:
            # One buffer of every layer's weights (row-major) then biases,
            # trained in place.  The kernel indexes raw buffers, so every
            # array it sees is C-contiguous.
            params = np.concatenate(
                [p.ravel() for W, b in zip(self.weights_, self.biases_) for p in (W, b)]
            )
            sizes = np.array([W.shape[0] for W in self.weights_] + [n_classes], dtype=np.int64)
            X = np.ascontiguousarray(X)
            loss_out = np.zeros(1)

            def epoch(order: np.ndarray) -> Tuple[float, int]:
                correct = kernel(
                    order.ctypes.data, n, X.ctypes.data, y_idx.ctypes.data,
                    sizes.ctypes.data, len(self.weights_), params.ctypes.data,
                    batch, self.learning_rate, self.l2, loss_out.ctypes.data,
                )
                if correct < 0:
                    raise MemoryError("the MLP epoch kernel could not allocate its scratch")
                return float(loss_out[0]), correct
        else:
            rows, labels = X.tolist(), y_idx.tolist()
            weights = [W.tolist() for W in self.weights_]
            biases = [b.tolist() for b in self.biases_]

            def epoch(order: np.ndarray) -> Tuple[float, int]:
                return _mlp_epoch_reference(
                    order.tolist(), rows, labels, weights, biases,
                    batch, self.learning_rate, self.l2,
                )

        best_loss = np.inf
        stale = 0
        for n_epochs in range(1, self.max_epochs + 1):
            loss, correct = epoch(rng.permutation(n))
            self.history_.losses.append(loss)
            self.history_.train_accuracies.append(correct / n)
            self.history_.n_epochs = n_epochs
            if loss < best_loss - self.tol:
                best_loss = loss
                stale = 0
            else:
                stale += 1
                if stale >= self.patience:
                    self.history_.converged = True
                    break

        if kernel is not None:
            offset = 0
            for W, b in zip(self.weights_, self.biases_):
                W[...] = params[offset:offset + W.size].reshape(W.shape)
                offset += W.size
                b[...] = params[offset:offset + b.size]
                offset += b.size
        else:
            self.weights_ = [np.array(W) for W in weights]
            self.biases_ = [np.array(b) for b in biases]
        return self

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def _check_fitted(self) -> None:
        if not self.weights_:
            raise RuntimeError("MLPClassifier must be fitted before use")

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Pre-softmax output scores (what the bespoke circuit's argmax sees)."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        pre_acts, _ = self._forward(X)
        return pre_acts[-1]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Softmax class probabilities."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        _, acts = self._forward(X)
        return acts[-1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        scores = self.decision_function(X)
        return self.classes_[np.argmax(scores, axis=1)]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy on ``(X, y)``."""
        from repro.ml.metrics import accuracy_score

        return accuracy_score(y, self.predict(X))

    # ------------------------------------------------------------------ #
    # Structure introspection (used by the hardware generators)
    # ------------------------------------------------------------------ #
    @property
    def layer_sizes_(self) -> Tuple[int, ...]:
        """(n_features, hidden..., n_classes) of the trained network."""
        self._check_fitted()
        sizes = [self.weights_[0].shape[0]]
        sizes.extend(W.shape[1] for W in self.weights_)
        return tuple(sizes)

    @property
    def n_parameters_(self) -> int:
        """Total number of weights and biases (hardwired values in hardware)."""
        self._check_fitted()
        return int(
            sum(W.size for W in self.weights_) + sum(b.size for b in self.biases_)
        )

    @property
    def n_multiplications_(self) -> int:
        """Multiplications per inference — dedicated multipliers in a parallel bespoke MLP."""
        self._check_fitted()
        return int(sum(W.size for W in self.weights_))
