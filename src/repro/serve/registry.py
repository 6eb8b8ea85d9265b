"""Model registry: name -> trained design, via the persistent flow cache.

The serving layer never trains inline on the request path.  A
:class:`ModelRegistry` resolves ``"<dataset>/<kind>"`` names to
:class:`~repro.serve.model.ServedModel` instances by funneling through
:func:`repro.core.flow_executor.run_flow_cached` — so a model that was ever
trained on this machine (by the CLI, the benchmarks, a previous server run)
loads from the PR 2 persistent on-disk cache in milliseconds, and a cold
name trains exactly once and leaves the cache warm for the next process.
``preload`` fans cold names out across worker processes with
:func:`~repro.core.flow_executor.execute_flow_grid`.

Example::

    registry = ModelRegistry(config=fast_config())
    served = registry.get("redwine/ours")      # trains or loads from cache
    registry.names()                           # ["redwine/ours"]
    registry.get("redwine/ours") is served     # True (instance-cached)
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.design_flow import MODEL_KINDS, FlowConfig, job_content_key
from repro.core.flow_executor import CacheSpec, execute_flow_grid, run_flow_cached
from repro.datasets import available_datasets
from repro.serve.model import ServedModel


def parse_model_name(name: str) -> Tuple[str, str]:
    """Split ``"<dataset>/<kind>"`` (``":"`` also accepted) and validate it.

    Example::

        >>> parse_model_name("redwine/ours")
        ('redwine', 'ours')
    """
    for separator in ("/", ":"):
        if separator in name:
            dataset, _, kind = name.partition(separator)
            break
    else:
        raise ValueError(
            f"model name {name!r} is not of the form '<dataset>/<kind>'"
        )
    if dataset not in available_datasets():
        raise ValueError(
            f"unknown dataset {dataset!r}; expected one of {available_datasets()}"
        )
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    return dataset, kind


class ModelRegistry:
    """Lazily resolves model names to loaded :class:`ServedModel` instances.

    Parameters
    ----------
    config:
        Flow configuration every model is trained/loaded at (defaults to the
        paper's full configuration).
    cache:
        Persistent flow-cache selection, as accepted by
        :func:`~repro.core.flow_executor.execute_flow_grid` (``None`` = the
        default on-disk cache, ``False`` = always retrain).
    jobs:
        Worker-process count used by :meth:`preload` for cold names.
    opt_level:
        When set, each loaded linear design's hardwired constant-MAC
        datapath is run through the :mod:`repro.hw.opt` optimizer at this
        level and the optimized-vs-raw gate counts are surfaced in the
        model's ``/models`` metadata.

    Example::

        registry = ModelRegistry(config=fast_config(), cache=False)
        registry.preload(["redwine/ours", "redwine/mlp_parallel"])
        model = registry.get("redwine/ours")
    """

    def __init__(
        self,
        config: Optional[FlowConfig] = None,
        cache: CacheSpec = None,
        jobs: Optional[int] = None,
        opt_level: Optional[int] = None,
    ) -> None:
        self.config = config or FlowConfig()
        self.cache = cache
        self.jobs = jobs
        self.opt_level = opt_level
        self._lock = threading.Lock()
        self._models: Dict[str, ServedModel] = {}

    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        """Names currently loaded (sorted; lazily-resolvable names absent)."""
        with self._lock:
            return sorted(self._models)

    def register(self, model: ServedModel) -> ServedModel:
        """Install a prebuilt served model (tests, hand-rolled designs)."""
        with self._lock:
            self._models[model.name] = model
        return model

    def get(self, name: str) -> ServedModel:
        """The served model for one name, training/loading it on first use."""
        with self._lock:
            cached = self._models.get(name)
        if cached is not None:
            return cached
        dataset, kind = parse_model_name(name)
        result = run_flow_cached(dataset, kind, self.config, cache=self.cache)
        model = self._wrap(result, name)
        with self._lock:
            # First resolver wins, so concurrent get() calls share one model.
            return self._models.setdefault(name, model)

    def _wrap(self, result, name: str) -> ServedModel:
        """Build the served view, annotating MAC opt stats when requested."""
        model = ServedModel.from_flow_result(result, name=name)
        # The content key the job service files this result under: lets a
        # /models consumer join served metadata against a `repro-jobs` store.
        model.info["flow_job_id"] = job_content_key(
            result.dataset, result.kind, self.config
        )
        if self.opt_level is not None:
            from repro.eval.table1 import design_mac_netlist
            from repro.hw.opt import optimize

            netlist = design_mac_netlist(result.design)
            if netlist is not None:
                stats = optimize(netlist, level=self.opt_level).stats
                model.info["mac_gates_raw"] = stats.gates_before
                model.info["mac_gates_optimized"] = stats.gates_after
                model.info["mac_opt_level"] = stats.level
        return model

    def preload(self, names: Sequence[str]) -> List[ServedModel]:
        """Resolve many names at once, sharding cold flows across processes.

        Uses :func:`~repro.core.flow_executor.execute_flow_grid`, so names
        already in the persistent cache load without training and the rest
        train ``jobs``-wide (0 = all cores).
        """
        pairs = [parse_model_name(name) for name in names]
        results = execute_flow_grid(
            pairs, config=self.config, jobs=self.jobs, cache=self.cache
        )
        loaded = []
        for name, pair in zip(names, pairs):
            model = self._wrap(results[pair], name)
            with self._lock:
                model = self._models.setdefault(name, model)
            loaded.append(model)
        return loaded
