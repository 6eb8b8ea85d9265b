"""Sharded flow execution and the persistent on-disk result cache.

Every evaluation surface of this repository — Table I regeneration, the PDK
corner sweeps, the claims benchmark, the CLI — funnels through
:func:`repro.core.design_flow.run_flow`, which trains each (dataset, model)
pair.  Training dominates the wall clock, and the seed implementation ran it
serially and remembered results only in process-local dicts, so every fresh
process paid the whole training bill again on one core.

This module adds the two missing layers:

* :func:`execute_flow_grid` fans a grid of (dataset, kind) pairs out across
  worker processes (``fork``-based :class:`~concurrent.futures.ProcessPoolExecutor`)
  and merges the :class:`~repro.core.design_flow.FlowResult` objects back in
  the caller's requested order, so the output is bit-identical to the serial
  path regardless of completion order.
* :class:`FlowResultCache` persists flow results on disk (default
  ``~/.cache/repro``, overridable via ``--cache-dir`` / ``$REPRO_CACHE_DIR``).
  Entries are keyed by a digest of :meth:`FlowConfig.cache_key` **plus a
  fingerprint of the package's source code**, so editing any module under
  ``repro/`` invalidates every persisted row — stale results can never shadow
  retrained ones.  Hits warm the in-process ``_FLOW_CACHE``, so repeat CLI,
  benchmark and test runs skip retraining entirely.

Each cache entry is one pickle payload (the full ``FlowResult``: report,
design, split) plus a small JSON manifest carrying the human-readable Table I
row, making the cache inspectable without unpickling anything.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.design_flow import (
    FlowConfig,
    FlowResult,
    cached_flow_result,
    load_training_kernels,
    run_flow,
    warm_flow_cache,
)
from repro.toolchain import default_cache_dir

#: Environment variable disabling the persistent cache entirely ("1"/"true").
NO_CACHE_ENV = "REPRO_NO_CACHE"

#: Default upper bound on persisted entries (oldest evicted beyond this).
DISK_CACHE_MAX_ENTRIES = 256

_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of every ``repro`` source file plus the numeric environment.

    Any edit to the package — a PDK constant, a trainer, a quantizer —
    changes this fingerprint and thereby invalidates every persisted cache
    entry; so does switching the Python interpreter or the numpy build,
    since training numerics can change with either.  This is deliberately
    coarse: correctness over hit rate.  Computed once per process.

    Example::

        key = code_fingerprint()     # 64 hex chars; changes with any edit
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import platform

        import numpy as np

        package_root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        digest.update(f"python={platform.python_version()}".encode())
        digest.update(f"|numpy={np.__version__}|".encode())
        for source in sorted(package_root.rglob("*.py")):
            digest.update(str(source.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(source.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def _entry_digest(dataset: str, kind: str, config: FlowConfig) -> str:
    """Filename-safe digest of one (dataset, kind, config, code) combination."""
    payload = repr(config.cache_key(dataset, kind)) + "|" + code_fingerprint()
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


class FlowResultCache:
    """Persistent on-disk layer under the in-process ``_FLOW_CACHE``.

    Parameters
    ----------
    cache_dir:
        Directory holding the entries (created on first store); defaults to
        :func:`default_cache_dir`.
    max_entries:
        Size bound: after a store, the oldest entries beyond this count are
        evicted (by modification time).

    Example::

        cache = FlowResultCache("/tmp/repro-cache")
        result = run_flow_cached("redwine", "ours", cache=cache)  # trains once
        cache.has("redwine", "ours", FlowConfig())                # True
        cache.clear()                                             # drop all
    """

    def __init__(
        self,
        cache_dir: Union[str, Path, None] = None,
        max_entries: int = DISK_CACHE_MAX_ENTRIES,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.max_entries = max_entries

    # ------------------------------------------------------------------ #
    def _payload_path(self, digest: str) -> Path:
        return self.cache_dir / f"flow-{digest}.pkl"

    def _manifest_path(self, digest: str) -> Path:
        return self.cache_dir / f"flow-{digest}.json"

    def has(self, dataset: str, kind: str, config: FlowConfig) -> bool:
        """Whether a payload for this invocation is currently persisted."""
        return self._payload_path(_entry_digest(dataset, kind, config)).is_file()

    def load(self, dataset: str, kind: str, config: FlowConfig) -> Optional[FlowResult]:
        """The persisted result for one flow invocation, or ``None``.

        A corrupt or unreadable entry is treated as a miss and dropped.
        """
        digest = _entry_digest(dataset, kind, config)
        path = self._payload_path(digest)
        if not path.is_file():
            return None
        try:
            with path.open("rb") as handle:
                result = pickle.load(handle)
        except Exception:
            self._drop(digest)
            return None
        if not isinstance(result, FlowResult):
            self._drop(digest)
            return None
        return result

    def store(self, result: FlowResult, config: FlowConfig) -> Path:
        """Persist one flow result (payload + JSON manifest), then prune."""
        digest = _entry_digest(result.dataset, result.kind, config)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self._payload_path(digest)
        # Write-then-rename so a concurrent reader never sees a torn payload.
        fd, tmp_name = tempfile.mkstemp(dir=str(self.cache_dir), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        manifest = {
            "dataset": result.dataset,
            "kind": result.kind,
            "code_fingerprint": code_fingerprint(),
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "report": result.report.as_row(),
            "weight_bits_used": result.weight_bits_used,
        }
        self._manifest_path(digest).write_text(json.dumps(manifest, indent=2) + "\n")
        self.prune()
        return path

    def _drop(self, digest: str) -> None:
        for path in (self._payload_path(digest), self._manifest_path(digest)):
            try:
                path.unlink()
            except OSError:
                pass

    def entries(self) -> List[Path]:
        """Payload files currently persisted, oldest first."""
        if not self.cache_dir.is_dir():
            return []
        return sorted(self.cache_dir.glob("flow-*.pkl"), key=lambda p: p.stat().st_mtime)

    def __len__(self) -> int:
        return len(self.entries())

    def prune(self) -> int:
        """Evict the oldest entries beyond ``max_entries``; returns #evicted."""
        entries = self.entries()
        excess = entries[: max(0, len(entries) - self.max_entries)]
        for payload in excess:
            self._drop(payload.stem[len("flow-"):])
        return len(excess)

    def clear(self) -> int:
        """Remove every persisted entry; returns how many were dropped."""
        entries = self.entries()
        for payload in entries:
            self._drop(payload.stem[len("flow-"):])
        return len(entries)


def cache_disabled_by_env() -> bool:
    """Whether ``$REPRO_NO_CACHE`` turns the persistent layer off.

    Example::

        os.environ["REPRO_NO_CACHE"] = "1"
        cache_disabled_by_env()              # True -> default_cache() is None
    """
    return os.environ.get(NO_CACHE_ENV, "").strip().lower() in ("1", "true", "yes")


def default_cache() -> Optional[FlowResultCache]:
    """The default persistent cache, or ``None`` when disabled via env.

    Example::

        cache = default_cache()              # FlowResultCache(~/.cache/repro)
    """
    if cache_disabled_by_env():
        return None
    return FlowResultCache()


#: ``cache=`` arguments accepted by the execution entry points:
#: ``None``/``True`` -> the default persistent cache, ``False`` -> disabled,
#: or an explicit :class:`FlowResultCache`.
CacheSpec = Union[None, bool, FlowResultCache]


def resolve_cache(cache: CacheSpec) -> Optional[FlowResultCache]:
    """Normalise a ``cache=`` argument to a cache instance or ``None``.

    Example::

        resolve_cache(False)                 # None (caching disabled)
        resolve_cache(None)                  # the default persistent cache
    """
    if isinstance(cache, FlowResultCache):
        return cache
    if cache is False:
        return None
    return default_cache()


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs=`` argument: ``None``/1 serial, 0 = all cores.

    Example::

        resolve_jobs(None), resolve_jobs(0)  # (1, os.cpu_count())
    """
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = all cores)")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def run_flow_cached(
    dataset_name: str,
    kind: str,
    config: Optional[FlowConfig] = None,
    cache: CacheSpec = None,
) -> FlowResult:
    """:func:`run_flow` with the persistent layer consulted on a miss.

    Lookup order: in-process ``_FLOW_CACHE`` -> on-disk cache (hit warms the
    in-process layer) -> train via :func:`run_flow` (result persisted).
    A one-pair grid, so both entry points share one caching implementation.

    Example::

        result = run_flow_cached("redwine", "ours", fast_config())
        result.report.accuracy_percent       # Table I row, cached next time
    """
    return execute_flow_grid([(dataset_name, kind)], config=config, cache=cache)[
        (dataset_name, kind)
    ]


def _run_flow_worker(task: Tuple[str, str, FlowConfig]) -> FlowResult:
    """Worker-process body: plain serial flow, no persistent-cache writes.

    The parent merges and persists results; keeping workers read-only on the
    cache avoids concurrent writers and keeps the merge deterministic.
    """
    dataset, kind, config = task
    return run_flow(dataset, kind, config)


def execute_flow_grid(
    pairs: Sequence[Tuple[str, str]],
    config: Optional[FlowConfig] = None,
    jobs: Optional[int] = None,
    cache: CacheSpec = None,
) -> Dict[Tuple[str, str], FlowResult]:
    """Run a grid of (dataset, kind) pairs, sharded and cached.

    Parameters
    ----------
    pairs:
        The grid (duplicates are collapsed).  Each pair must name a dataset
        and one of :data:`~repro.core.design_flow.MODEL_KINDS`.
    config:
        Flow configuration shared by every pair.
    jobs:
        ``None``/``1`` runs in-process (bit-identical to the seed behaviour);
        ``N > 1`` shards cache misses across ``N`` forked worker processes;
        ``0`` uses every core.  Training is deterministic (fixed seeds), so
        the merged results are bit-identical to the serial path.
    cache:
        Persistent-layer selection (see :data:`CacheSpec`).

    Returns
    -------
    dict
        ``(dataset, kind) -> FlowResult`` for every requested pair, complete
        regardless of which layer produced each result.

    Example::

        grid = [("redwine", "ours"), ("cardio", "ours")]
        results = execute_flow_grid(grid, config=fast_config(), jobs=0)
        results[("redwine", "ours")].report  # bit-identical to the serial run
    """
    config = config or FlowConfig()
    disk = resolve_cache(cache)
    n_jobs = resolve_jobs(jobs)

    ordered: List[Tuple[str, str]] = []
    for pair in pairs:
        if pair not in ordered:
            ordered.append(tuple(pair))

    results: Dict[Tuple[str, str], FlowResult] = {}
    pending: List[Tuple[str, str]] = []
    for dataset, kind in ordered:
        result = cached_flow_result(dataset, kind, config)
        if result is not None:
            # Backfill the persistent layer so in-process hits still leave a
            # warm cache behind for the next process.
            if disk is not None and not disk.has(dataset, kind, config):
                disk.store(result, config)
        elif disk is not None:
            result = disk.load(dataset, kind, config)
            if result is not None:
                warm_flow_cache(result, config)
        if result is not None:
            results[(dataset, kind)] = result
        else:
            pending.append((dataset, kind))

    if pending:
        if n_jobs > 1 and len(pending) > 1:
            tasks = [(dataset, kind, config) for dataset, kind in pending]
            # Forked workers inherit the loaded kernels: none compiles one.
            load_training_kernels(kind for _, kind in pending)
            with ProcessPoolExecutor(max_workers=min(n_jobs, len(tasks))) as pool:
                # pool.map preserves task order, so the merge is deterministic
                # no matter which worker finishes first.
                computed = list(pool.map(_run_flow_worker, tasks))
            for (dataset, kind), result in zip(pending, computed):
                warm_flow_cache(result, config)
                results[(dataset, kind)] = result
        else:
            for dataset, kind in pending:
                results[(dataset, kind)] = run_flow(dataset, kind, config)
        if disk is not None:
            for pair in pending:
                disk.store(results[pair], config)

    return results
