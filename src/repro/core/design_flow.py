"""End-to-end design flow: train -> quantize -> generate -> estimate -> report.

One call of :func:`run_flow` reproduces one row of the paper's Table I:

* load the dataset (synthetic UCI stand-in), normalise inputs to [0, 1] and
  split 80/20 (the paper's setup);
* train the classifier (OvR linear SVM for the proposed design, OvO SVMs for
  the parallel baselines, a small MLP for the MLP baseline);
* post-training, quantize inputs/weights/biases — for the proposed design the
  weight precision is the lowest that retains accuracy (paper Sec. II);
* generate the bespoke circuit (sequential or parallel architecture);
* run timing / power / area analysis with the printed PDK and assemble a
  :class:`~repro.core.report.ClassifierHardwareReport`.

Results are cached per (dataset, model kind, configuration) because training
is by far the slowest step and the benchmarks revisit the same rows.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.parallel_mlp import ParallelMLPDesign
from repro.core.parallel_svm import ParallelSVMDesign
from repro.core.report import ClassifierHardwareReport
from repro.core.sequential_svm import SequentialSVMDesign
from repro.datasets import load_dataset
from repro.ml.mlp import MLPClassifier
from repro.ml.multiclass import OneVsOneClassifier, OneVsRestClassifier
from repro.ml.preprocessing import DatasetSplit, prepare_split
from repro.ml.quantization import (
    quantize_linear_classifier,
    quantize_mlp_classifier,
    search_lowest_precision,
)
from repro.ml.svm import LinearSVC

#: Model kinds understood by :func:`run_flow`, named after the Table I rows.
MODEL_KINDS = ("ours", "svm_parallel_exact", "svm_parallel_approx", "mlp_parallel")


@dataclass(frozen=True)
class FlowConfig:
    """All knobs of the reproduction flow (defaults follow the paper).

    The proposed design uses low-precision inputs, OvR and the
    lowest-retaining weight precision; the baselines follow their published
    descriptions (OvO bespoke parallel SVMs at higher precision for [2], the
    same with coefficient truncation for [3], a small bespoke MLP for [4]).
    """

    # Data preparation
    test_size: float = 0.2
    split_seed: int = 0
    dataset_seed: Optional[int] = None
    n_samples: Optional[int] = None

    # Proposed sequential SVM
    input_bits: int = 4
    max_weight_bits: int = 8
    min_weight_bits: int = 3
    accuracy_tolerance: float = 0.01
    svm_c: float = 1.0
    svm_max_iter: int = 60
    storage_style: str = "mux"

    # Parallel SVM baselines ([2] exact, [3] approximate)
    baseline_strategy: str = "ovo"
    baseline_input_bits: int = 5
    baseline_weight_bits: int = 7
    baseline_approx_drop_bits: int = 2

    # Parallel MLP baseline ([4])
    mlp_hidden_neurons: int = 6
    mlp_input_bits: int = 4
    mlp_weight_bits: int = 6
    mlp_max_epochs: int = 250
    mlp_learning_rate: float = 0.2

    def cache_key(self, dataset: str, kind: str) -> Tuple:
        """Hashable key identifying one flow invocation."""
        return (dataset, kind, tuple(sorted(self.__dict__.items())))


def job_content_key(dataset: str, kind: str, config: FlowConfig) -> str:
    """Content digest identifying one (dataset, kind, config) job.

    The same identity the persistent flow cache derives its entry digests
    from (:func:`repro.core.flow_executor._entry_digest` additionally mixes
    in the code fingerprint; the job's identity deliberately does not, so a
    package edit re-opens the cache misses without orphaning the manifest).

    Example::

        >>> len(job_content_key("redwine", "ours", FlowConfig()))
        16
    """
    payload = repr(config.cache_key(dataset, kind))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class FlowResult:
    """Everything produced by one flow run."""

    dataset: str
    kind: str
    report: ClassifierHardwareReport
    design: object
    split: DatasetSplit
    float_accuracy_percent: float
    weight_bits_used: int
    extra: Dict[str, float] = field(default_factory=dict)


class _BoundedCache:
    """An LRU-bounded mapping so long sessions cannot grow caches unboundedly.

    The flow caches used to be plain dicts: a service that sweeps many
    configurations (corner sweeps, precision scans, batch APIs) would retain
    every trained result forever.  This keeps the most recently used
    ``maxsize`` entries and evicts the oldest beyond that.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._data: "OrderedDict[Tuple, object]" = OrderedDict()

    def __contains__(self, key: Tuple) -> bool:
        return key in self._data

    def __getitem__(self, key: Tuple):
        value = self._data[key]
        self._data.move_to_end(key)
        return value

    def __setitem__(self, key: Tuple, value: object) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def get(self, key: Tuple, default=None):
        if key in self._data:
            return self[key]
        return default

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._data)

    def clear(self) -> None:
        self._data.clear()


#: Upper bounds on the in-process caches (entries, LRU-evicted beyond this).
SPLIT_CACHE_MAX_ENTRIES = 64
FLOW_CACHE_MAX_ENTRIES = 256

_SPLIT_CACHE = _BoundedCache(SPLIT_CACHE_MAX_ENTRIES)
_FLOW_CACHE = _BoundedCache(FLOW_CACHE_MAX_ENTRIES)

#: Total number of model trainings this process has executed; the persistent
#: cache layer (:mod:`repro.core.flow_executor`) uses it to prove that warm
#: runs retrain nothing.
_TRAINING_RUNS = 0


def training_run_count() -> int:
    """How many times any flow in this process has trained a model."""
    return _TRAINING_RUNS


def _count_training_run() -> None:
    global _TRAINING_RUNS
    _TRAINING_RUNS += 1


def clear_flow_cache(disk=False) -> None:
    """Drop all cached flow results and dataset splits.

    ``disk`` also invalidates the persistent on-disk layer managed by
    :mod:`repro.core.flow_executor`, so retrained results can never be
    shadowed by stale persisted rows: pass ``True`` to purge the default
    cache directory (``~/.cache/repro`` / ``$REPRO_CACHE_DIR``, regardless
    of ``$REPRO_NO_CACHE``), or a
    :class:`~repro.core.flow_executor.FlowResultCache` to purge a specific
    one (e.g. a ``--cache-dir`` location).
    """
    _SPLIT_CACHE.clear()
    _FLOW_CACHE.clear()
    if disk:
        # Imported lazily: flow_executor builds on this module.
        from repro.core.flow_executor import FlowResultCache

        cache = disk if isinstance(disk, FlowResultCache) else FlowResultCache()
        cache.clear()


def cached_flow_result(
    dataset_name: str, kind: str, config: "FlowConfig"
) -> Optional[FlowResult]:
    """The in-process cached result for one (dataset, kind, config), if any."""
    return _FLOW_CACHE.get(config.cache_key(dataset_name, kind))


def warm_flow_cache(result: FlowResult, config: "FlowConfig") -> None:
    """Insert an externally produced result (disk cache, worker process)."""
    _FLOW_CACHE[config.cache_key(result.dataset, result.kind)] = result


def prepare_dataset(name: str, config: FlowConfig) -> DatasetSplit:
    """Load a dataset and run the paper's preprocessing pipeline (cached)."""
    key = (name, config.dataset_seed, config.n_samples, config.test_size, config.split_seed)
    if key not in _SPLIT_CACHE:
        dataset = load_dataset(name, seed=config.dataset_seed, n_samples=config.n_samples)
        _SPLIT_CACHE[key] = prepare_split(
            dataset.X,
            dataset.y,
            test_size=config.test_size,
            random_state=config.split_seed,
            feature_names=dataset.feature_names,
        )
    return _SPLIT_CACHE[key]


def quantize_split_inputs(split: DatasetSplit, input_bits: int) -> DatasetSplit:
    """Snap the normalised features of a split onto a low-precision grid.

    The paper trains its SVMs *with* low-precision inputs (Sec. II), i.e. the
    training data already lives on the quantized input grid the hardware will
    see, so the learned hyperplanes are matched to it.  The returned split
    shares the scaler/encoder of the original split.
    """
    from repro.ml.fixed_point import unsigned_input_format

    fmt = unsigned_input_format(input_bits)
    return replace(
        split,
        X_train=fmt.quantize(split.X_train),
        X_test=fmt.quantize(split.X_test),
    )


# --------------------------------------------------------------------------- #
# Individual flows
# --------------------------------------------------------------------------- #
def run_sequential_svm_flow(
    dataset_name: str, config: Optional[FlowConfig] = None
) -> FlowResult:
    """The proposed design: OvR SVM, lowest-precision quantization, sequential circuit."""
    config = config or FlowConfig()
    key = config.cache_key(dataset_name, "ours")
    if key in _FLOW_CACHE:
        return _FLOW_CACHE[key]

    raw_split = prepare_dataset(dataset_name, config)
    # The paper trains with low-precision inputs, so quantize the features
    # before training; the hyperplanes then match what the hardware sees.
    split = quantize_split_inputs(raw_split, config.input_bits)
    classifier = OneVsRestClassifier(
        LinearSVC(C=config.svm_c, max_iter=config.svm_max_iter, random_state=0)
    )
    _count_training_run()
    classifier.fit(split.X_train, split.y_train)
    float_accuracy = 100.0 * classifier.score(split.X_test, split.y_test)

    search = search_lowest_precision(
        classifier,
        split.X_test,
        split.y_test,
        input_bits=config.input_bits,
        max_weight_bits=config.max_weight_bits,
        min_weight_bits=config.min_weight_bits,
        accuracy_tolerance=config.accuracy_tolerance,
    )
    design = SequentialSVMDesign(
        search.quantized_model,
        storage_style=config.storage_style,
        dataset=dataset_name,
    )
    report = design.evaluate(split.X_test, split.y_test, model_name="Ours (seq. SVM)")
    result = FlowResult(
        dataset=dataset_name,
        kind="ours",
        report=report,
        design=design,
        split=split,
        float_accuracy_percent=float_accuracy,
        weight_bits_used=search.weight_bits,
        extra={"precision_search_steps": float(len(search.trace))},
    )
    _FLOW_CACHE[key] = result
    return result


def run_parallel_svm_flow(
    dataset_name: str,
    approximate: bool = False,
    config: Optional[FlowConfig] = None,
) -> FlowResult:
    """The parallel SVM baselines: [2] (exact) and [3] (approximate)."""
    config = config or FlowConfig()
    kind = "svm_parallel_approx" if approximate else "svm_parallel_exact"
    key = config.cache_key(dataset_name, kind)
    if key in _FLOW_CACHE:
        return _FLOW_CACHE[key]

    raw_split = prepare_dataset(dataset_name, config)
    split = quantize_split_inputs(raw_split, config.baseline_input_bits)
    base = LinearSVC(C=config.svm_c, max_iter=config.svm_max_iter, random_state=0)
    if config.baseline_strategy == "ovo":
        classifier = OneVsOneClassifier(base)
    else:
        classifier = OneVsRestClassifier(base)
    _count_training_run()
    classifier.fit(split.X_train, split.y_train)
    float_accuracy = 100.0 * classifier.score(split.X_test, split.y_test)

    quantized = quantize_linear_classifier(
        classifier,
        input_bits=config.baseline_input_bits,
        weight_bits=config.baseline_weight_bits,
    )
    design = ParallelSVMDesign(
        quantized,
        style="approximate" if approximate else "exact",
        approx_drop_bits=config.baseline_approx_drop_bits,
        dataset=dataset_name,
    )
    report = design.evaluate(split.X_test, split.y_test)
    result = FlowResult(
        dataset=dataset_name,
        kind=kind,
        report=report,
        design=design,
        split=split,
        float_accuracy_percent=float_accuracy,
        weight_bits_used=config.baseline_weight_bits
        - (config.baseline_approx_drop_bits if approximate else 0),
    )
    _FLOW_CACHE[key] = result
    return result


def run_parallel_mlp_flow(
    dataset_name: str, config: Optional[FlowConfig] = None
) -> FlowResult:
    """The parallel MLP baseline [4]."""
    config = config or FlowConfig()
    key = config.cache_key(dataset_name, "mlp_parallel")
    if key in _FLOW_CACHE:
        return _FLOW_CACHE[key]

    raw_split = prepare_dataset(dataset_name, config)
    split = quantize_split_inputs(raw_split, config.mlp_input_bits)
    classifier = MLPClassifier(
        hidden_layer_sizes=(config.mlp_hidden_neurons,),
        learning_rate=config.mlp_learning_rate,
        max_epochs=config.mlp_max_epochs,
        random_state=0,
    )
    _count_training_run()
    classifier.fit(split.X_train, split.y_train)
    float_accuracy = 100.0 * classifier.score(split.X_test, split.y_test)

    quantized = quantize_mlp_classifier(
        classifier,
        input_bits=config.mlp_input_bits,
        weight_bits=config.mlp_weight_bits,
    )
    design = ParallelMLPDesign(quantized, dataset=dataset_name)
    report = design.evaluate(split.X_test, split.y_test)
    result = FlowResult(
        dataset=dataset_name,
        kind="mlp_parallel",
        report=report,
        design=design,
        split=split,
        float_accuracy_percent=float_accuracy,
        weight_bits_used=config.mlp_weight_bits,
    )
    _FLOW_CACHE[key] = result
    return result


def run_flow(
    dataset_name: str, kind: str, config: Optional[FlowConfig] = None
) -> FlowResult:
    """Dispatch to the flow implementing one Table I row family."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    if kind == "ours":
        return run_sequential_svm_flow(dataset_name, config)
    if kind == "svm_parallel_exact":
        return run_parallel_svm_flow(dataset_name, approximate=False, config=config)
    if kind == "svm_parallel_approx":
        return run_parallel_svm_flow(dataset_name, approximate=True, config=config)
    return run_parallel_mlp_flow(dataset_name, config)


def run_dataset_comparison(
    dataset_name: str,
    kinds: Optional[List[str]] = None,
    config: Optional[FlowConfig] = None,
    jobs: Optional[int] = None,
    cache=None,
) -> List[FlowResult]:
    """Run every requested model kind on one dataset (one Table I block).

    ``jobs`` shards the (dataset, kind) grid across worker processes and
    ``cache`` selects the persistent result cache; see
    :func:`repro.core.flow_executor.execute_flow_grid` for both knobs.
    """
    kinds = list(kinds) if kinds is not None else list(MODEL_KINDS)
    from repro.core.flow_executor import execute_flow_grid

    results = execute_flow_grid(
        [(dataset_name, kind) for kind in kinds],
        config=config,
        jobs=jobs,
        cache=cache,
    )
    return [results[(dataset_name, kind)] for kind in kinds]


def fast_config(n_samples: int = 400, svm_max_iter: int = 25, mlp_max_epochs: int = 40) -> FlowConfig:
    """A reduced configuration for quick tests (smaller datasets, fewer iterations).

    The hardware structure (and therefore the qualitative Table I shape) is
    unchanged; only training cost and statistical precision of the accuracy
    estimates are reduced.
    """
    return FlowConfig(
        n_samples=n_samples,
        svm_max_iter=svm_max_iter,
        mlp_max_epochs=mlp_max_epochs,
    )
