"""Scheduler tests: dispatch, cache fast paths, and injected chaos.

Every fault here is injected deterministically through the scheduler's
``connection_wrapper`` seam by :mod:`jobs.chaos` — worker SIGKILL, torn
frames, delayed heartbeats — and each test asserts both the recovery
outcome (the job still completes, or fails for the right reason) and that
the fault actually fired (``plan.fired``).
"""

import os

import pytest
from jobs.chaos import ChaosPlan

import repro.toolchain as toolchain_mod
from repro.core.design_flow import FlowConfig, clear_flow_cache, run_flow
from repro.jobs import (
    DONE,
    FAILED,
    JobManifest,
    JobScheduler,
    JobSpec,
    ResultStore,
    SOURCE_CACHE,
    SOURCE_TRAINED,
    submit_grid,
)

@pytest.fixture()
def run_dir(tmp_path):
    return tmp_path


def _pair(run_dir):
    manifest = JobManifest(run_dir / "manifest.jsonl")
    store = ResultStore(run_dir / "results.jsonl")
    return manifest, store


def _scheduler(manifest, store, **kwargs):
    kwargs.setdefault("cache", False)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("job_timeout_s", 120.0)
    kwargs.setdefault("heartbeat_timeout_s", 30.0)
    kwargs.setdefault("retry_backoff_s", 0.01)
    return JobScheduler(manifest, store, **kwargs)


class TestSubmitGrid:
    def test_grid_order_and_idempotence(self, run_dir, tiny_flow_config):
        manifest, _ = _pair(run_dir)
        ids = submit_grid(
            manifest, ["redwine", "cardio"], ["ours", "mlp_parallel"],
            tiny_flow_config,
        )
        assert len(ids) == 4
        assert len(set(ids)) == 4
        assert ids[0] == JobSpec("redwine", "ours", tiny_flow_config).job_id
        # Resubmission after a crash is a journal no-op.
        again = submit_grid(
            manifest, ["redwine", "cardio"], ["ours", "mlp_parallel"],
            tiny_flow_config,
        )
        assert again == ids
        assert manifest.counts()["pending"] == 4
        assert len(manifest.path.read_text().splitlines()) == 4


class TestCacheFastPath:
    def test_in_process_cache_hit_skips_workers(self, run_dir, tiny_flow_config):
        result = run_flow("redwine", "mlp_parallel", tiny_flow_config)
        manifest, store = _pair(run_dir)
        job_id = manifest.submit(JobSpec("redwine", "mlp_parallel", tiny_flow_config))
        summary = _scheduler(manifest, store).run()
        assert summary.completed == 1
        assert summary.cache_hits == 1
        assert summary.trained == 0
        assert summary.workers_replaced == 0
        assert manifest.state.jobs[job_id].state == DONE
        assert manifest.state.jobs[job_id].source == SOURCE_CACHE
        record = store.get(job_id)
        assert record["row"] == result.report.as_row()

    def test_store_record_closes_crash_window(self, run_dir, tiny_flow_config):
        """A store record with no `done` line (died between the appends)."""
        clear_flow_cache()
        manifest, store = _pair(run_dir)
        job_id = manifest.submit(JobSpec("redwine", "ours", tiny_flow_config))
        store.append({"id": job_id, "dataset": "redwine", "kind": "ours"})
        summary = _scheduler(manifest, store).run()
        assert summary.cache_hits == 1
        assert summary.trained == 0
        assert manifest.state.jobs[job_id].state == DONE
        assert manifest.state.jobs[job_id].source == SOURCE_CACHE

    def test_empty_manifest_is_a_noop(self, run_dir):
        manifest, store = _pair(run_dir)
        summary = _scheduler(manifest, store).run()
        assert summary.completed == 0
        assert summary.failed == 0
        assert summary.manifest_counts["pending"] == 0


class TestChaos:
    def test_worker_sigkill_retries_to_done(self, run_dir, tiny_flow_config):
        """Connection 0's worker is SIGKILLed on the job send (send 2)."""
        clear_flow_cache()
        plan = ChaosPlan(faults={0: {"kill_on_send": 2}})
        manifest, store = _pair(run_dir)
        job_id = manifest.submit(JobSpec("redwine", "mlp_parallel", tiny_flow_config))
        summary = _scheduler(
            manifest, store, connection_wrapper=plan.wrapper()
        ).run()
        assert ("kill_on_send", 0, 2) in plan.fired
        assert summary.completed == 1
        assert summary.trained == 1
        assert summary.retries == 1
        assert summary.workers_replaced >= 1
        record = manifest.state.jobs[job_id]
        assert record.state == DONE
        assert record.attempts == 2
        assert record.source == SOURCE_TRAINED
        assert job_id in store

    def test_torn_frame_retries_to_done(self, run_dir, tiny_flow_config):
        """Connection 0 tears the job-response frame (recv 2)."""
        clear_flow_cache()
        plan = ChaosPlan(faults={0: {"tear_on_recv": 2}})
        manifest, store = _pair(run_dir)
        job_id = manifest.submit(JobSpec("redwine", "mlp_parallel", tiny_flow_config))
        summary = _scheduler(
            manifest, store, connection_wrapper=plan.wrapper()
        ).run()
        assert ("tear_on_recv", 0, 2) in plan.fired
        assert summary.completed == 1
        assert summary.retries == 1
        record = manifest.state.jobs[job_id]
        assert record.state == DONE
        assert record.attempts == 2
        assert "torn" in (record.error or "") or record.error is None

    def test_delayed_heartbeat_replaces_worker_without_charging(
        self, run_dir, tiny_flow_config
    ):
        """Connection 0's first pong arrives after the heartbeat deadline."""
        clear_flow_cache()
        plan = ChaosPlan(faults={0: {"delay_on_recv": 1}})
        manifest, store = _pair(run_dir)
        job_id = manifest.submit(JobSpec("redwine", "mlp_parallel", tiny_flow_config))
        summary = _scheduler(
            manifest,
            store,
            connection_wrapper=plan.wrapper(),
            heartbeat_timeout_s=0.2,
        ).run()
        assert ("delay_on_recv", 0, 1) in plan.fired
        assert summary.workers_replaced == 1
        assert summary.retries == 0  # the job was never charged an attempt
        record = manifest.state.jobs[job_id]
        assert record.state == DONE
        assert record.attempts == 1

    def test_worker_reported_error_fails_without_retry(
        self, run_dir, tiny_flow_config
    ):
        """A deterministic bad spec is permanent: no retries, no worker kill."""
        clear_flow_cache()
        manifest, store = _pair(run_dir)
        job_id = manifest.submit(JobSpec("nope", "ours", tiny_flow_config))
        summary = _scheduler(manifest, store).run()
        assert summary.failed == 1
        assert summary.retries == 0
        assert summary.workers_replaced == 0
        record = manifest.state.jobs[job_id]
        assert record.state == FAILED
        assert record.attempts == 1
        assert record.error
        assert len(store) == 0

    def test_retry_budget_exhaustion_fails_with_reason(
        self, run_dir, tiny_flow_config
    ):
        """Every worker dies on its job send; the budget runs out."""
        clear_flow_cache()
        plan = ChaosPlan(default_faults={"kill_on_send": 2})
        manifest, store = _pair(run_dir)
        job_id = manifest.submit(JobSpec("redwine", "mlp_parallel", tiny_flow_config))
        summary = _scheduler(
            manifest, store, connection_wrapper=plan.wrapper(), max_retries=1
        ).run()
        kills = [f for f in plan.fired if f[0] == "kill_on_send"]
        assert len(kills) == 2  # attempts = max_retries + 1
        assert summary.failed == 1
        assert summary.retries == 1
        assert summary.trained == 0
        record = manifest.state.jobs[job_id]
        assert record.state == FAILED
        assert record.attempts == 2
        assert "retry budget exhausted" in record.error
        assert len(store) == 0

    def test_backoff_sleeps_are_capped(self, run_dir, tiny_flow_config):
        """Retry backoff grows exponentially but never exceeds the cap."""
        clear_flow_cache()
        plan = ChaosPlan(default_faults={"kill_on_send": 2})
        manifest, store = _pair(run_dir)
        manifest.submit(JobSpec("redwine", "mlp_parallel", tiny_flow_config))
        sleeps = []
        _scheduler(
            manifest,
            store,
            connection_wrapper=plan.wrapper(),
            max_retries=4,
            retry_backoff_s=0.004,
            max_backoff_s=0.01,
            sleep=sleeps.append,
        ).run()
        assert len(sleeps) == 4
        assert sleeps[0] == pytest.approx(0.004)
        assert sleeps[1] == pytest.approx(0.008)
        assert all(s <= 0.01 for s in sleeps)


class TestEndToEnd:
    def test_grid_drains_and_resume_is_all_cache_hits(
        self, run_dir, tiny_flow_config
    ):
        """A trained grid, then a fresh manifest resume: zero retraining."""
        clear_flow_cache()
        manifest, store = _pair(run_dir)
        ids = submit_grid(manifest, ["redwine"], ["ours", "mlp_parallel"],
                          tiny_flow_config)
        summary = _scheduler(manifest, store, workers=2).run()
        assert summary.completed == 2
        assert summary.failed == 0
        assert summary.manifest_counts["done"] == 2
        assert all(job_id in store for job_id in ids)
        first_bytes = store.canonical_bytes()

        # Re-running the same drain on the same durable pair is a no-op.
        summary2 = _scheduler(manifest, store, workers=2).run()
        assert summary2.completed == 0
        assert store.canonical_bytes() == first_bytes


@pytest.mark.skipif(
    not toolchain_mod.native_available(), reason="no C toolchain on this host"
)
def test_workers_inherit_loaded_training_kernels(
    run_dir, tiny_flow_config, monkeypatch
):
    """With an empty kernel cache, the scheduler loads the SVM and MLP epoch
    kernels before it forks: only its own process invokes the compiler."""
    clear_flow_cache()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(run_dir / "cache"))
    monkeypatch.setattr(toolchain_mod, "_SO_CACHE", {})
    monkeypatch.setattr(toolchain_mod, "_FUNCTION_CACHE", {})
    log = run_dir / "compiler-pids"
    real = toolchain_mod._invoke_compiler

    def logged(*args):
        # Forked workers inherit this wrapper; a file sees all processes.
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(toolchain_mod, "_invoke_compiler", logged)
    manifest, store = _pair(run_dir)
    with manifest, store:
        submit_grid(manifest, ["redwine", "cardio"], ["ours", "mlp_parallel"],
                    tiny_flow_config)
        summary = _scheduler(manifest, store, workers=2).run()
    assert summary.trained == 4 and summary.failed == 0
    assert log.read_text().split() == [str(os.getpid())] * 2
