"""Contracts 2 and 4 on generated quantized linear models.

Hypothesis draws random models: 1-10 classifiers, 1-34 features, signed
weight and bias codes within their drawn two's-complement widths, and a
batch of 0, 1 or more than 64 unsigned input codes with all-zero and
all-max rows mixed in.  Ties are forced as well: a weight/bias row may be
duplicated into the next classifier and a weight row may be all zero.

* :meth:`~repro.hw.simulate.SequentialDatapathSimulator.trace_batch` must
  give, for every field, cycle and sample, the matching
  :class:`~repro.hw.simulate.CycleTrace` field of the scalar ``run()``; its
  last best-class plane must equal ``run_batch``; a 1-D input is one
  sample, and a wrong feature count raises like ``run()`` does.
* On a smaller draw (at most 8 features and 4 input bits) the gate-level
  top built by :func:`~repro.hw.rtl.svm_top.build_sequential_svm_netlist`
  must verify against the model's oracle at opt levels 0 and 2.

The hypothesis budget comes from the profile registered in
``tests/conftest.py``: small in tier-1, deeper under
``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hw.rtl.svm_top import (
    build_sequential_svm_netlist,
    verify_sequential_svm_netlist,
)
from repro.hw.simulate import SequentialDatapathSimulator

#: The :class:`~repro.hw.simulate.CycleTrace` field of each ``trace_batch``
#: plane, in plane order.
FIELDS = ("score", "best_score", "best_class", "comparator_fired")


def _signed(bits: int):
    return st.integers(-(1 << (bits - 1)), (1 << (bits - 1)) - 1)


@st.composite
def linear_models(draw, max_features: int = 34, max_input_bits: int = 8):
    """``(weight_codes, bias_codes, input_bits, codes)`` of a random model."""
    n_classifiers = draw(st.integers(1, 10))
    n_features = draw(st.integers(1, max_features))
    weight_bits = draw(st.integers(2, 8))
    bias_bits = draw(st.integers(2, 16))
    input_bits = draw(st.integers(1, max_input_bits))
    n_samples = draw(st.sampled_from((0, 1, 65, 130)))
    weights = np.array(
        draw(
            st.lists(
                _signed(weight_bits),
                min_size=n_classifiers * n_features,
                max_size=n_classifiers * n_features,
            )
        ),
        dtype=np.int64,
    ).reshape(n_classifiers, n_features)
    biases = np.array(
        draw(
            st.lists(
                _signed(bias_bits), min_size=n_classifiers, max_size=n_classifiers
            )
        ),
        dtype=np.int64,
    )
    if n_classifiers > 1 and draw(st.booleans()):
        # Classifier k + 1 repeats classifier k, so it ties with it on
        # every sample.
        k = draw(st.integers(0, n_classifiers - 2))
        weights[k + 1] = weights[k]
        biases[k + 1] = biases[k]
    if draw(st.booleans()):
        weights[draw(st.integers(0, n_classifiers - 1))] = 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(0, 1 << input_bits, size=(n_samples, n_features))
    if n_samples:
        codes[draw(st.integers(0, n_samples - 1))] = 0
        codes[draw(st.integers(0, n_samples - 1))] = (1 << input_bits) - 1
    return weights, biases, input_bits, codes


@given(linear_models())
def test_trace_batch_matches_the_scalar_traces(model):
    weights, biases, _input_bits, codes = model
    oracle = SequentialDatapathSimulator(weights, biases)
    trace = oracle.trace_batch(codes)
    n_classifiers, n_samples = weights.shape[0], codes.shape[0]
    assert trace.shape == (4, n_classifiers, n_samples)
    assert trace.dtype == np.int64
    for s in range(n_samples):
        steps = oracle.run(codes[s]).trace
        for k, step in enumerate(steps):
            for f, name in enumerate(FIELDS):
                assert trace[f, k, s] == int(getattr(step, name)), (name, k, s)
    assert np.array_equal(trace[2, -1], oracle.run_batch(codes))
    if n_samples:
        assert np.array_equal(oracle.trace_batch(codes[0]), trace[:, :, :1])


@given(linear_models(max_features=8))
def test_wrong_feature_count_raises_like_run(model):
    weights, biases, _input_bits, codes = model
    oracle = SequentialDatapathSimulator(weights, biases)
    wrong = np.zeros((max(codes.shape[0], 1), weights.shape[1] + 1), dtype=np.int64)
    with pytest.raises(ValueError):
        oracle.run(wrong[0])
    with pytest.raises(ValueError):
        oracle.trace_batch(wrong)
    with pytest.raises(ValueError):
        oracle.trace_batch(wrong[0])


@given(linear_models(max_features=8, max_input_bits=4))
def test_generated_top_verifies_against_the_oracle(model):
    weights, biases, input_bits, codes = model
    top, ports = build_sequential_svm_netlist(weights, biases, input_bits=input_bits)
    oracle = SequentialDatapathSimulator(weights, biases)
    for level in (0, 2):
        assert verify_sequential_svm_netlist(
            top, ports, codes, oracle, opt_level=level
        ), level
