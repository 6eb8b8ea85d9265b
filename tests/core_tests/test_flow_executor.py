"""Tests for the sharded flow executor and the persistent result cache."""

import os
import pickle

import pytest

import repro.toolchain as toolchain_mod
from repro.core import design_flow
from repro.core.design_flow import (
    FlowConfig,
    clear_flow_cache,
    fast_config,
    run_flow,
    training_run_count,
)
from repro.core import flow_executor
from repro.core.flow_executor import (
    FlowResultCache,
    cache_disabled_by_env,
    code_fingerprint,
    default_cache,
    default_cache_dir,
    execute_flow_grid,
    resolve_cache,
    resolve_jobs,
    run_flow_cached,
)
from repro.eval.table1 import generate_table1, table1_aggregates
from repro.toolchain import kernel_cache_dir


@pytest.fixture()
def disk_cache(tmp_path):
    return FlowResultCache(tmp_path / "cache")


@pytest.fixture(autouse=True)
def _fresh_in_process_caches():
    clear_flow_cache()
    yield
    clear_flow_cache()


class TestBoundedCache:
    def test_evicts_least_recently_used(self):
        cache = design_flow._BoundedCache(maxsize=2)
        cache[("a",)] = 1
        cache[("b",)] = 2
        assert cache[("a",)] == 1  # touch: "a" becomes most recent
        cache[("c",)] = 3
        assert ("a",) in cache and ("c",) in cache
        assert ("b",) not in cache
        assert len(cache) == 2

    def test_rejects_invalid_size(self):
        with pytest.raises(ValueError):
            design_flow._BoundedCache(maxsize=0)

    def test_flow_caches_are_bounded(self):
        assert design_flow._FLOW_CACHE.maxsize == design_flow.FLOW_CACHE_MAX_ENTRIES
        assert design_flow._SPLIT_CACHE.maxsize == design_flow.SPLIT_CACHE_MAX_ENTRIES


class TestFlowResultCache:
    def test_store_load_roundtrip(self, disk_cache, tiny_flow_config):
        result = run_flow("redwine", "ours", tiny_flow_config)
        disk_cache.store(result, tiny_flow_config)
        loaded = disk_cache.load("redwine", "ours", tiny_flow_config)
        assert loaded is not None
        assert loaded.report == result.report
        assert loaded.weight_bits_used == result.weight_bits_used

    def test_manifest_written_alongside_payload(self, disk_cache, tiny_flow_config):
        result = run_flow("redwine", "ours", tiny_flow_config)
        disk_cache.store(result, tiny_flow_config)
        manifests = list(disk_cache.cache_dir.glob("flow-*.json"))
        assert len(manifests) == 1
        assert '"redwine"' in manifests[0].read_text()

    def test_miss_for_other_config(self, disk_cache, tiny_flow_config):
        result = run_flow("redwine", "ours", tiny_flow_config)
        disk_cache.store(result, tiny_flow_config)
        other = FlowConfig(**{**tiny_flow_config.__dict__, "input_bits": 5})
        assert disk_cache.load("redwine", "ours", other) is None
        assert disk_cache.load("cardio", "ours", tiny_flow_config) is None

    def test_code_fingerprint_invalidates(
        self, disk_cache, tiny_flow_config, monkeypatch
    ):
        result = run_flow("redwine", "ours", tiny_flow_config)
        disk_cache.store(result, tiny_flow_config)
        monkeypatch.setattr(flow_executor, "_FINGERPRINT", "f" * 64)
        assert disk_cache.load("redwine", "ours", tiny_flow_config) is None

    def test_corrupt_payload_is_dropped(self, disk_cache, tiny_flow_config):
        result = run_flow("redwine", "ours", tiny_flow_config)
        path = disk_cache.store(result, tiny_flow_config)
        path.write_bytes(b"not a pickle")
        assert disk_cache.load("redwine", "ours", tiny_flow_config) is None
        assert not path.exists()  # the bad entry was evicted

    def test_non_flowresult_payload_is_dropped(self, disk_cache, tiny_flow_config):
        result = run_flow("redwine", "ours", tiny_flow_config)
        path = disk_cache.store(result, tiny_flow_config)
        path.write_bytes(pickle.dumps({"not": "a flow result"}))
        assert disk_cache.load("redwine", "ours", tiny_flow_config) is None

    def test_size_bound_evicts_oldest(self, tmp_path, tiny_flow_config):
        cache = FlowResultCache(tmp_path, max_entries=2)
        for kind in ("ours", "svm_parallel_exact", "mlp_parallel"):
            cache.store(run_flow("redwine", kind, tiny_flow_config), tiny_flow_config)
        assert len(cache) == 2
        # The oldest entry ("ours") was evicted, the newest survives.
        assert cache.load("redwine", "mlp_parallel", tiny_flow_config) is not None

    def test_clear_removes_everything(self, disk_cache, tiny_flow_config):
        disk_cache.store(run_flow("redwine", "ours", tiny_flow_config), tiny_flow_config)
        assert disk_cache.clear() == 1
        assert len(disk_cache) == 0

    def test_fingerprint_is_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64


class TestCacheResolution:
    def test_env_var_disables_default_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert cache_disabled_by_env()
        assert default_cache() is None
        assert resolve_cache(None) is None

    def test_env_var_sets_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        assert default_cache().cache_dir == tmp_path / "elsewhere"

    def test_suite_cache_is_the_session_directory(self, session_cache_dir):
        """The suite never reads or evicts the user's default flow cache:
        the repository's root ``conftest.py`` points its root at a session
        directory."""
        assert FlowResultCache().cache_dir.is_relative_to(session_cache_dir)
        assert kernel_cache_dir().is_relative_to(session_cache_dir)

    def test_explicit_cache_and_false_pass_through(self, disk_cache):
        assert resolve_cache(disk_cache) is disk_cache
        assert resolve_cache(False) is None

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_clear_flow_cache_disk_invalidates_persisted_rows(
        self, monkeypatch, tmp_path, tiny_flow_config
    ):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_flow_cached("redwine", "ours", tiny_flow_config)
        assert len(default_cache()) == 1
        # Purging must work even when the persistent layer is disabled for
        # lookups — an explicit clear is an explicit clear.
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        clear_flow_cache(disk=True)
        assert len(FlowResultCache()) == 0

    def test_clear_flow_cache_accepts_explicit_cache(
        self, disk_cache, tiny_flow_config
    ):
        run_flow_cached("redwine", "ours", tiny_flow_config, cache=disk_cache)
        assert len(disk_cache) == 1
        clear_flow_cache(disk=disk_cache)
        assert len(disk_cache) == 0


class TestRunFlowCached:
    def test_warm_run_skips_training(self, disk_cache, tiny_flow_config):
        cold = run_flow_cached("redwine", "ours", tiny_flow_config, cache=disk_cache)
        clear_flow_cache()
        before = training_run_count()
        warm = run_flow_cached("redwine", "ours", tiny_flow_config, cache=disk_cache)
        assert training_run_count() == before
        assert warm.report == cold.report

    def test_disk_hit_warms_in_process_cache(self, disk_cache, tiny_flow_config):
        run_flow_cached("redwine", "ours", tiny_flow_config, cache=disk_cache)
        clear_flow_cache()
        warm = run_flow_cached("redwine", "ours", tiny_flow_config, cache=disk_cache)
        again = run_flow_cached("redwine", "ours", tiny_flow_config, cache=disk_cache)
        assert again is warm  # second call served by the in-process layer

    def test_cache_false_always_retrains(self, tiny_flow_config):
        run_flow_cached("redwine", "ours", tiny_flow_config, cache=False)
        clear_flow_cache()
        before = training_run_count()
        run_flow_cached("redwine", "ours", tiny_flow_config, cache=False)
        assert training_run_count() == before + 1


class TestExecuteFlowGrid:
    def test_grid_collapses_duplicates(self, tiny_flow_config):
        pairs = [("redwine", "ours"), ("redwine", "ours")]
        results = execute_flow_grid(pairs, config=tiny_flow_config, cache=False)
        assert set(results) == {("redwine", "ours")}

    def test_serial_grid_matches_run_flow(self, tiny_flow_config):
        results = execute_flow_grid(
            [("redwine", "ours")], config=tiny_flow_config, cache=False
        )
        direct = run_flow("redwine", "ours", tiny_flow_config)
        assert results[("redwine", "ours")] is direct  # same in-process entry


@pytest.mark.skipif(
    not toolchain_mod.native_available(), reason="no C toolchain on this host"
)
def test_grid_workers_inherit_loaded_training_kernels(
    tmp_path, tiny_flow_config, monkeypatch
):
    """With an empty kernel cache, a 2-shard grid loads the SVM and MLP epoch
    kernels before it forks: only its own process invokes the compiler."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(toolchain_mod, "_SO_CACHE", {})
    monkeypatch.setattr(toolchain_mod, "_FUNCTION_CACHE", {})
    log = tmp_path / "compiler-pids"
    real = toolchain_mod._invoke_compiler

    def logged(*args):
        # Forked workers inherit this wrapper; a file sees all processes.
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(toolchain_mod, "_invoke_compiler", logged)
    pairs = [("redwine", "ours"), ("cardio", "mlp_parallel")]
    results = execute_flow_grid(pairs, config=tiny_flow_config, cache=False, jobs=2)
    assert set(results) == set(pairs)
    assert log.read_text().split() == [str(os.getpid())] * 2


class TestParallelEquivalence:
    """ISSUE acceptance: sharded == serial, bit-identically."""

    def test_generate_table1_sharded_is_bit_identical(self, tiny_flow_config):
        serial = generate_table1(
            datasets=["redwine"], config=tiny_flow_config, cache=False
        )
        clear_flow_cache()  # force the sharded run to recompute in workers
        sharded = generate_table1(
            datasets=["redwine"], config=tiny_flow_config, cache=False, jobs=2
        )
        assert [e.model for e in sharded.entries] == [e.model for e in serial.entries]
        assert [e.measured for e in sharded.entries] == [
            e.measured for e in serial.entries
        ]
        assert table1_aggregates(sharded) == table1_aggregates(serial)

    def test_warm_cache_table_is_bit_identical_with_zero_training(
        self, disk_cache, tiny_flow_config
    ):
        cold = generate_table1(
            datasets=["redwine"], config=tiny_flow_config, cache=disk_cache
        )
        clear_flow_cache()
        before = training_run_count()
        warm = generate_table1(
            datasets=["redwine"], config=tiny_flow_config, cache=disk_cache
        )
        assert training_run_count() == before
        assert [e.measured for e in warm.entries] == [e.measured for e in cold.entries]
        assert table1_aggregates(warm) == table1_aggregates(cold)
