"""The compiled dual-CD epoch against its index-order Python reference.

Training runs one epoch at a time through a C function where a toolchain
exists and through ``_dual_cd_epoch_reference`` where none does.  The two
must agree bit for bit: every persisted flow result and every Table I row
comes from whichever path the host has.  Tests that need a compiler are
skipped, not failed, on hosts without one.
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
import repro.ml.svm as svm
import repro.toolchain as toolchain_mod
from repro.ml.svm import LinearSVC

requires_toolchain = pytest.mark.skipif(
    not toolchain_mod.native_available(), reason="no C toolchain on this host"
)

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: Prints every trained quantity exactly, for comparing processes.
FIT_SCRIPT = """
import numpy as np
import repro.ml.svm as svm
rng = np.random.default_rng(5)
X = rng.normal(size=(60, 7))
y = (X[:, 0] - X[:, 3] + 0.5 * rng.normal(size=60) > 0).astype(int)
weights = rng.uniform(0.0, 2.0, size=60)
weights[::7] = 0.0
clf = svm.LinearSVC(C=0.7, max_iter=25, random_state=3).fit(X, y, weights)
h = clf.history_
print("compiled" if svm._dual_cd_epoch_kernel() is not None else "reference")
print(clf.coef_.tobytes().hex(), clf.intercept_.hex(), clf.dual_coef_.tobytes().hex())
print(h.n_iterations, h.converged, h.final_violation.hex())
"""


def _exact(clf: LinearSVC) -> tuple:
    h = clf.history_
    return (
        clf.coef_.tobytes(),
        float(clf.intercept_).hex(),
        clf.dual_coef_.tobytes(),
        h.n_iterations,
        h.converged,
        float(h.final_violation).hex(),
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


@pytest.fixture()
def fresh_caches(tmp_path, monkeypatch):
    """An empty disk cache in tmp_path and a cold in-memory object cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(toolchain_mod, "_SO_CACHE", {})
    return tmp_path


@st.composite
def training_problems(draw):
    n_samples = draw(st.integers(2, 40))
    n_features = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n_samples, n_features)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    y = rng.integers(0, 2, size=n_samples)
    y[:2] = (0, 1)
    weights = None
    if draw(st.booleans()):
        weights = rng.uniform(0.0, 3.0, size=n_samples)
        weights[rng.random(n_samples) < 0.3] = 0.0
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    params = dict(
        C=draw(st.floats(0.01, 10.0)),
        loss=draw(st.sampled_from(["hinge", "squared_hinge"])),
        max_iter=draw(st.integers(1, 40)),
        fit_intercept=draw(st.booleans()),
        random_state=draw(st.integers(0, 1000)),
    )
    return X, y, weights, params


@requires_toolchain
@given(training_problems())
@settings(max_examples=150, deadline=None)
def test_kernel_is_bit_identical_to_the_reference(problem):
    X, y, weights, params = problem
    assert svm._dual_cd_epoch_kernel() is not None
    compiled = LinearSVC(**params).fit(X, y, weights)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(svm, "_dual_cd_epoch_kernel", lambda: None)
        reference = LinearSVC(**params).fit(X, y, weights)
    assert _exact(compiled) == _exact(reference)


@requires_toolchain
def test_no_native_process_returns_the_kernels_bytes(fresh_caches):
    """A fresh interpreter with ``REPRO_NO_NATIVE=1`` trains on the Python
    reference and prints the same bytes as one that runs the kernel."""
    compiled = _run_fit_script().stdout.splitlines()
    reference = _run_fit_script(REPRO_NO_NATIVE="1").stdout.splitlines()
    assert compiled[0] == "compiled" and reference[0] == "reference"
    assert compiled[1:] == reference[1:]


@requires_toolchain
def test_kernel_compiles_once_per_process(fresh_caches, monkeypatch):
    invocations = []
    real = toolchain_mod._invoke_compiler
    monkeypatch.setattr(
        toolchain_mod,
        "_invoke_compiler",
        lambda *a: (invocations.append(a), real(*a))[1],
    )
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 5))
    y = (X[:, 0] > 0).astype(int)
    for seed in range(3):
        LinearSVC(max_iter=5, random_state=seed).fit(X, y)
    assert len(invocations) == 1
    assert list(toolchain_mod.kernel_cache_dir().glob("*.so"))


@requires_toolchain
def test_warm_disk_cache_needs_no_compiler(fresh_caches):
    """A fresh process finds the kernel on disk: a compiler call would raise."""
    _run_fit_script()  # fills the disk cache
    guard = (
        "import repro.toolchain as t\n"
        "def refuse(*args):\n"
        "    raise AssertionError('compiler invoked on a warm disk cache')\n"
        "t._invoke_compiler = refuse\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", guard + FIT_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "compiled"

