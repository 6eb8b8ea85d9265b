"""The servable view of one trained design: metadata plus the batch hot path.

A :class:`ServedModel` wraps whatever the design flow produced — the
proposed sequential OvR SVM, a parallel OvO SVM baseline or the parallel
MLP — behind one uniform, *vectorized* prediction surface:

* SVM designs route through their cycle/behaviour-accurate datapath
  simulators' ``run_batch`` (PR 1's single-matmul hot path), so a served
  prediction is bit-identical to what the simulated hardware answers;
* the MLP baseline has no datapath simulator and routes through the
  integer-exact quantized model (the same path its Table I accuracy uses).

Example::

    from repro.core.design_flow import fast_config, run_flow
    from repro.serve.model import ServedModel

    result = run_flow("redwine", "ours", fast_config())
    served = ServedModel.from_flow_result(result)
    served.predict_ids(result.split.X_test[:4])     # class ids, vectorized
    served.predict_labels(result.split.X_test[:4])  # original labels
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.design_flow import FlowResult


def as_feature_array(X) -> np.ndarray:
    """Request features as a float array; non-numeric values raise ``ValueError``.

    NumPy raises ``TypeError`` for values ``float()`` cannot take, such as a
    JSON object; a ``ValueError`` is what the endpoint answers with 400.

    Example::

        as_feature_array([[0.5, 1.0]])     # -> array([[0.5, 1. ]])
        as_feature_array({"a": 1})         # raises ValueError
    """
    try:
        return np.asarray(X, dtype=float)
    except TypeError as error:
        raise ValueError(f"features must be numbers: {error}") from error


@dataclass
class ServedModel:
    """One loaded design plus everything the serving layer needs to run it.

    Attributes
    ----------
    name:
        Registry name, conventionally ``"<dataset>/<kind>"``.
    dataset / kind:
        The flow coordinates the design was trained at.
    design:
        The generated hardware design object (kept for metadata and for the
        datapath simulators it owns).
    batch_fn:
        The vectorized kernel: ``(B, n_features) real-valued inputs ->
        (B,) class ids`` — exactly the ``run_batch`` path for SVM designs.
    classes:
        Original class labels indexed by class id (decodes predictions).

    Example::

        served = ServedModel.from_flow_result(run_flow("redwine", "ours"))
        served.predict_labels(X_test[:4])    # vectorized, bit-exact serving
    """

    name: str
    dataset: str
    kind: str
    design: object
    batch_fn: Callable[[np.ndarray], np.ndarray]
    classes: np.ndarray
    n_features: int
    backend: str
    info: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_flow_result(cls, result: FlowResult, name: Optional[str] = None) -> "ServedModel":
        """Wrap a :class:`~repro.core.design_flow.FlowResult` for serving.

        Picks the fastest *behaviour-exact* backend available on the design:
        ``simulate_batch`` (the datapath simulators' vectorized ``run_batch``)
        when present, the quantized integer model otherwise (MLP baseline).

        Example::

            result = run_flow_cached("redwine", "ours", fast_config())
            served = ServedModel.from_flow_result(result)
            assert served.backend == "datapath.run_batch"
        """
        design = result.design
        model = getattr(design, "model", None)
        if model is None or not hasattr(model, "classes"):
            raise TypeError(
                f"design {type(design).__name__} carries no quantized model"
            )
        if hasattr(design, "simulate_batch"):
            batch_fn = design.simulate_batch
            backend = "datapath.run_batch"
        else:
            batch_fn = model.predict_ids
            backend = "quantized_model.predict_ids"
        report = result.report
        from repro.perf.engines import available_engines

        info: Dict[str, object] = {
            "accuracy_percent": float(report.accuracy_percent),
            "area_cm2": float(report.area_cm2),
            "power_mw": float(report.power_mw),
            "latency_ms": float(report.latency_ms),
            "cycles_per_classification": int(report.cycles_per_classification),
            "weight_bits_used": int(result.weight_bits_used),
            "input_bits": int(model.input_format.total_bits),
            # The simulation engines usable on this host (native appears only
            # where a C toolchain exists) — surfaced through /models so
            # clients can see what a worker would run gate-level sweeps with.
            "simulation_engines": list(available_engines()),
        }
        return cls(
            name=name or f"{result.dataset}/{result.kind}",
            dataset=result.dataset,
            kind=result.kind,
            design=design,
            batch_fn=batch_fn,
            classes=np.asarray(model.classes),
            n_features=int(model.n_features),
            backend=backend,
            info=info,
        )

    # ------------------------------------------------------------------ #
    def validate_batch(self, X: np.ndarray) -> np.ndarray:
        """Normalize a request payload to a ``(k, n_features)`` float array.

        1-D inputs are a single sample; wrong feature counts and non-numeric
        values raise ``ValueError`` (mapped to HTTP 400 by the endpoint).
        """
        X = as_feature_array(X)
        if X.ndim == 1:
            # A flat vector is one sample; a flat empty list is an empty batch
            # (JSON "batch": [] arrives exactly like this).
            X = X.reshape(1, -1) if X.size else X.reshape(0, self.n_features)
        if X.ndim != 2 or (X.shape[0] > 0 and X.shape[1] != self.n_features):
            raise ValueError(
                f"model {self.name!r} expects {self.n_features} features per "
                f"sample, got shape {X.shape}"
            )
        return X

    def kernel(self, X: np.ndarray) -> np.ndarray:
        """The micro-batch kernel: class ids for *pre-validated* rows.

        The serving queue validates every request at submit time, so the
        worker thread skips re-validation and calls straight into the
        design's ``run_batch`` — this is the function each micro-batch runs.
        """
        return np.asarray(self.batch_fn(X), dtype=np.int64)

    def predict_ids(self, X: np.ndarray) -> np.ndarray:
        """Vectorized class ids for a batch of real-valued inputs.

        Validating public surface over :meth:`kernel`; a served prediction
        is bit-identical to calling the design's ``run_batch`` directly.
        """
        X = self.validate_batch(X)
        if X.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        return self.kernel(X)

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        """Original class labels for a batch of real-valued inputs."""
        return self.classes[self.predict_ids(X)]

    def decode(self, ids: np.ndarray) -> np.ndarray:
        """Map class ids back to the dataset's original labels."""
        return self.classes[np.asarray(ids, dtype=np.int64)]

    def metadata(self) -> Dict[str, object]:
        """JSON-serializable description (the ``/models`` HTTP route)."""
        return {
            "name": self.name,
            "dataset": self.dataset,
            "kind": self.kind,
            "design": type(self.design).__name__,
            "backend": self.backend,
            "n_features": self.n_features,
            "classes": np.asarray(self.classes).tolist(),
            **{k: v for k, v in self.info.items()},
        }
