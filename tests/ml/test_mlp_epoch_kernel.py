"""The compiled MLP epoch against its index-order Python reference.

An MLP trains one epoch at a time through a C function where a toolchain
exists and through ``_mlp_epoch_reference`` where none does.  The two must
agree bit for bit, in weights, biases and the whole training history: every
persisted MLP baseline comes from whichever path the host has.  Tests that
need a compiler are skipped, not failed, on hosts without one.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.ml.mlp as mlp
import repro.toolchain as toolchain_mod
from repro.ml.mlp import MLPClassifier

requires_toolchain = pytest.mark.skipif(
    not toolchain_mod.native_available(), reason="no C toolchain on this host"
)

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: Prints every trained quantity exactly, for comparing processes.
FIT_SCRIPT = """
import numpy as np
import repro.ml.mlp as mlp
rng = np.random.default_rng(11)
X = np.round(rng.random((70, 6)) * 15) / 15
y = rng.integers(0, 4, size=70)
clf = mlp.MLPClassifier(hidden_layer_sizes=(5, 3), max_epochs=12, batch_size=16,
                        learning_rate=0.3, random_state=2).fit(X, y)
h = clf.history_
print("compiled" if mlp._mlp_epoch_kernel() is not None else "reference")
print(*(p.tobytes().hex() for p in clf.weights_ + clf.biases_))
print(*(v.hex() for v in h.losses + h.train_accuracies), h.n_epochs, h.converged)
"""


def _exact(clf: MLPClassifier) -> tuple:
    h = clf.history_
    return (
        [(W.shape, W.tobytes()) for W in clf.weights_],
        [(b.shape, b.tobytes()) for b in clf.biases_],
        [v.hex() for v in h.losses],
        [v.hex() for v in h.train_accuracies],
        h.n_epochs,
        h.converged,
    )


def _run_fit_script(**env) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-c", FIT_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC_DIR, **env},
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@st.composite
def training_problems(draw):
    n_classes = draw(st.integers(2, 10))
    n_samples = draw(st.integers(n_classes, 60))
    n_features = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # The flows' 4-bit input grid: many exact zeros.
        X = np.round(rng.random((n_samples, n_features)) * 15) / 15
    else:
        X = rng.normal(size=(n_samples, n_features)) * draw(st.sampled_from([0.1, 1.0, 3.0]))
    y = rng.integers(0, n_classes, size=n_samples)
    y[:n_classes] = np.arange(n_classes)
    # A batch larger than the set, one that leaves a short last batch, a
    # batch of one, or anything.
    remainders = [b for b in range(2, n_samples) if n_samples % b] or [n_samples + 1]
    batch = draw(
        st.one_of(
            st.integers(n_samples + 1, n_samples + 40),
            st.sampled_from(remainders),
            st.just(1),
            st.integers(1, 64),
        )
    )
    max_epochs = draw(st.integers(1, 25))
    stopping = draw(st.sampled_from(["early", "never", "drawn"]))
    if stopping == "early":
        tol, patience = 1.0, 1
    elif stopping == "never":
        tol, patience = 0.0, max_epochs + 1
    else:
        tol, patience = draw(st.sampled_from([0.0, 1e-3, 0.05])), draw(st.integers(1, 6))
    params = dict(
        hidden_layer_sizes=tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))),
        learning_rate=draw(st.floats(0.01, 0.5)),
        max_epochs=max_epochs,
        batch_size=batch,
        l2=draw(st.sampled_from([0.0, 1e-4, 1e-2])),
        tol=tol,
        patience=patience,
        random_state=draw(st.integers(0, 1000)),
    )
    return X, y, params


@requires_toolchain
@given(training_problems())
# 50 examples under the default profile, ten times that under ``ci``.
@settings(max_examples=5 * settings.default.max_examples, deadline=None)
def test_kernel_is_bit_identical_to_the_reference(problem):
    X, y, params = problem
    assert mlp._mlp_epoch_kernel() is not None
    compiled = MLPClassifier(**params).fit(X, y)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mlp, "_mlp_epoch_kernel", lambda: None)
        reference = MLPClassifier(**params).fit(X, y)
    assert _exact(compiled) == _exact(reference)


@requires_toolchain
@pytest.mark.parametrize(
    "tol, patience, converged",
    [(1.0, 1, True), (0.0, 100, False)],
    ids=["stops-early", "runs-every-epoch"],
)
def test_stopping_rule_is_the_same_on_both_paths(tol, patience, converged):
    rng = np.random.default_rng(3)
    X = rng.random((45, 5))
    y = rng.integers(0, 3, size=45)
    params = dict(hidden_layer_sizes=(4, 3), max_epochs=15, batch_size=8, tol=tol,
                  patience=patience, random_state=1)
    compiled = MLPClassifier(**params).fit(X, y)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mlp, "_mlp_epoch_kernel", lambda: None)
        reference = MLPClassifier(**params).fit(X, y)
    assert compiled.history_.converged is converged
    assert compiled.history_.n_epochs == (2 if converged else 15)
    assert _exact(compiled) == _exact(reference)


@requires_toolchain
def test_no_native_process_trains_the_kernels_weights(tmp_path):
    """A fresh interpreter with ``REPRO_NO_NATIVE=1`` trains on the Python
    reference and prints the same bytes as one that runs the kernel."""
    cache = str(tmp_path / "cache")
    compiled = _run_fit_script(REPRO_CACHE_DIR=cache).stdout.splitlines()
    reference = _run_fit_script(REPRO_CACHE_DIR=cache, REPRO_NO_NATIVE="1").stdout.splitlines()
    assert compiled[0] == "compiled" and reference[0] == "reference"
    assert compiled[1:] == reference[1:]


@requires_toolchain
def test_kernel_is_its_own_object_compiled_once(tmp_path, monkeypatch):
    """The MLP epoch compiles on the first MLP fit of a process, into an
    object of its own: an SVM fit never compiles it."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(toolchain_mod, "_SO_CACHE", {})
    monkeypatch.setattr(toolchain_mod, "_FUNCTION_CACHE", {})
    sources = []
    real = toolchain_mod._invoke_compiler
    monkeypatch.setattr(
        toolchain_mod,
        "_invoke_compiler",
        lambda tc, c_path, so_path, flags: (
            sources.append(Path(c_path).read_text()), real(tc, c_path, so_path, flags)
        )[1],
    )
    from repro.ml.svm import LinearSVC

    rng = np.random.default_rng(0)
    X = rng.random((30, 4))
    y = (X[:, 0] > 0.5).astype(int)
    LinearSVC(max_iter=3).fit(X, y)
    assert len(sources) == 1 and "repro_mlp_epoch" not in sources[0]
    for seed in range(3):
        MLPClassifier(max_epochs=2, random_state=seed).fit(X, y)
    assert len(sources) == 2 and "repro_dual_cd_epoch" not in sources[1]
    assert "repro_mlp_epoch" in sources[1]


def test_reference_fits_the_flows_network_shapes():
    """The reference path (every host without a compiler) trains the
    topologies the tests and flows use, including two hidden layers."""
    rng = np.random.default_rng(4)
    X = rng.random((40, 6))
    y = rng.integers(0, 3, size=40)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mlp, "_mlp_epoch_kernel", lambda: None)
        clf = MLPClassifier(hidden_layer_sizes=(5, 3), max_epochs=5, random_state=0).fit(X, y)
    assert clf.layer_sizes_ == (6, 5, 3, 3)
    assert all(W.dtype == np.float64 for W in clf.weights_)
    assert [b.shape for b in clf.biases_] == [(5,), (3,), (3,)]
    assert clf.history_.n_epochs == len(clf.history_.losses) == 5


def test_batch_size_must_be_positive():
    with pytest.raises(ValueError, match="batch_size"):
        MLPClassifier(batch_size=0)
