"""The resumable job scheduler: manifest in, pooled workers, store out.

:class:`JobScheduler` drains the pending set of a :class:`~repro.jobs.
manifest.JobManifest` by dispatching jobs to a pool of forked flow workers
(:class:`~repro.jobs.worker.FlowWorker`) over the frame transport, landing
every result in a :class:`~repro.jobs.store.ResultStore` and journaling
every transition back into the manifest.  It is built to be killed: at any
instant — including by SIGKILL, including mid-journal-write — the on-disk
manifest + store + flow cache contain everything a fresh scheduler needs to
resume exactly the outstanding work.

The invariants that make resume exact:

* **Cache fast-path first.**  Before spawning anything, jobs whose result
  the flow cache (in-process or on-disk) already holds are completed
  in-parent with ``source="cache"`` — a restarted scheduler never retrains
  what a previous run (or any other tool sharing the cache) already paid
  for.  A store record with no matching ``done`` journal line (the crash
  window between the two appends) is likewise recognised and closed out.
* **Durability ordering.**  On success the scheduler persists the flow
  cache entry, appends the store record, *then* journals ``done``.  A crash
  between any two steps leaves clues that resume re-derives — never a
  ``done`` job whose result is missing.
* **Retry vs reject.**  Crash-ish failures (worker SIGKILL, torn frame,
  per-job timeout, delayed heartbeat) kill the worker and retry the job —
  bounded by ``max_retries``, with exponentially backed-off, capped sleeps.
  Worker-*reported* failures (bad spec, deterministic training error) are
  permanent: the job is journaled ``failed`` on the first attempt.

Chaos seams (used by ``tests/jobs/``): ``connection_wrapper`` wraps each
fresh worker connection (fault injection lives outside the scheduler), and
``progress`` observes every completion (the crash-resume test uses it to
SIGKILL the scheduler at a deterministic point).

Example::

    manifest = JobManifest(run_dir / "manifest.jsonl")
    submit_grid(manifest, ["redwine", "cardio"], ["ours"], fast_config())
    store = ResultStore(run_dir / "results.jsonl")
    summary = JobScheduler(manifest, store, cache=cache, workers=2).run()
    summary.completed, summary.cache_hits
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence

from repro.core.design_flow import FlowConfig, cached_flow_result, load_training_kernels
from repro.core.flow_executor import CacheSpec, resolve_cache
from repro.jobs.manifest import JobManifest, JobRecord, JobSpec
from repro.jobs.store import ResultStore, result_record
from repro.jobs.worker import (
    SOURCE_CACHE,
    SOURCE_TRAINED,
    ConnectionWrapper,
    FlowWorker,
    JobRejected,
)
from repro.serve.transport import WorkerCrashed

#: Completion events handed to the ``progress`` callback.
EVENT_DONE = "done"
EVENT_FAILED = "failed"

ProgressCallback = Callable[[str, JobRecord], None]


def submit_grid(
    manifest: JobManifest,
    datasets: Sequence[str],
    kinds: Sequence[str],
    config: Optional[FlowConfig] = None,
) -> List[str]:
    """Submit the (dataset x kind) grid; returns the job ids in grid order.

    Submission is content-keyed and journaled, so resubmitting the same
    grid — e.g. by re-running ``repro-jobs submit`` after a crash — is a
    no-op for every job already known.

    Example::

        ids = submit_grid(manifest, ["redwine", "cardio"], ["ours", "mlp"])
        len(ids)        # 4
    """
    config = config or FlowConfig()
    return [
        manifest.submit(JobSpec(dataset, kind, config))
        for dataset in datasets
        for kind in kinds
    ]


@dataclass
class SchedulerSummary:
    """What one :meth:`JobScheduler.run` drain accomplished.

    Example::

        summary = scheduler.run()
        assert summary.failed == 0 and summary.trained <= summary.completed
    """

    #: Jobs that reached ``done`` this run (cache fast-path included).
    completed: int = 0
    #: ``done`` jobs whose result came from the flow cache (or store replay).
    cache_hits: int = 0
    #: ``done`` jobs a worker actually trained.
    trained: int = 0
    #: Jobs journaled permanently ``failed``.
    failed: int = 0
    #: Crash-ish attempts sent back to pending.
    retries: int = 0
    #: Workers killed and replaced (crash, timeout, or late heartbeat).
    workers_replaced: int = 0
    #: Final per-state manifest counts after the drain.
    manifest_counts: Dict[str, int] = field(default_factory=dict)


class JobScheduler:
    """Drains a manifest's pending set through a pool of flow workers.

    Parameters
    ----------
    manifest, store:
        The durable pair this run appends to (journal + results).
    cache:
        Flow-cache selection (:data:`~repro.core.flow_executor.CacheSpec`);
        the resolved cache is consulted in-parent for the fast path, passed
        to workers read-only, and written back by the parent on success.
    workers:
        Worker-pool size (one dispatch thread per worker; each worker runs
        one job at a time).
    job_timeout_s:
        Per-job deadline; a job that exceeds it is treated exactly like a
        worker crash (the worker is killed — a timed-out frame stream
        cannot be resynchronised).
    max_retries:
        Crash-ish retries per job beyond the first attempt.
    retry_backoff_s / max_backoff_s:
        Exponential backoff between attempts: ``min(retry_backoff_s *
        2**(attempt-1), max_backoff_s)``.
    heartbeat_timeout_s:
        Deadline on the pre-dispatch ping; a late pong replaces the worker
        without charging the job an attempt.
    connection_wrapper, progress, sleep:
        Test seams: fault-injection wrapper around each new worker
        connection, completion observer, and the backoff sleeper.

    Example::

        summary = JobScheduler(manifest, store, cache=False, workers=2,
                               job_timeout_s=120.0).run()
    """

    def __init__(
        self,
        manifest: JobManifest,
        store: ResultStore,
        cache: CacheSpec = None,
        workers: int = 2,
        job_timeout_s: Optional[float] = 600.0,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
        heartbeat_timeout_s: Optional[float] = 30.0,
        connection_wrapper: Optional[ConnectionWrapper] = None,
        progress: Optional[ProgressCallback] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.manifest = manifest
        self.store = store
        self.disk = resolve_cache(cache)
        self.workers = workers
        self.job_timeout_s = job_timeout_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.max_backoff_s = max_backoff_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.connection_wrapper = connection_wrapper
        self.progress = progress
        self.sleep = sleep
        self._lock = threading.Lock()
        self._queue: Deque[JobRecord] = deque()
        self._live: Dict[int, FlowWorker] = {}
        self.summary = SchedulerSummary()

    # ------------------------------------------------------------------ #
    def run(self) -> SchedulerSummary:
        """Reload the manifest, drain every pending job, stop the pool.

        Returns the run's :class:`SchedulerSummary`; the manifest and store
        carry the durable outcome.
        """
        state = self.manifest.reload()
        pending = [
            state.jobs[job_id]
            for job_id in state.jobs
            if state.jobs[job_id].state == "pending"
        ]
        remaining = [r for r in pending if not self._finish_from_cache(r)]
        self._queue = deque(remaining)
        if self._queue:
            # Forked workers inherit the loaded kernels: none compiles one.
            load_training_kernels(record.spec.kind for record in self._queue)
            n_threads = min(self.workers, len(self._queue))
            threads = [
                threading.Thread(
                    target=self._dispatch_loop,
                    args=(index,),
                    name=f"jobs-dispatch-{index}",
                    daemon=True,
                )
                for index in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        self.summary.manifest_counts = self.manifest.counts()
        return self.summary

    # ------------------------------------------------------------------ #
    def _finish_from_cache(self, record: JobRecord) -> bool:
        """Close out a pending job the cache (or store) already answers."""
        spec = record.spec
        if spec.job_id in self.store:
            # The crash window between the store append and the manifest
            # `done`: the result is durable, only the journal line is owed.
            self.manifest.done(spec.job_id, SOURCE_CACHE)
            self._note_done(record, SOURCE_CACHE)
            return True
        result = cached_flow_result(spec.dataset, spec.kind, spec.config)
        if result is None and self.disk is not None:
            result = self.disk.load(spec.dataset, spec.kind, spec.config)
        if result is None:
            return False
        self.store.append(result_record(spec.job_id, result))
        self.manifest.done(spec.job_id, SOURCE_CACHE)
        self._note_done(record, SOURCE_CACHE)
        return True

    def _note_done(self, record: JobRecord, source: str) -> None:
        with self._lock:
            self.summary.completed += 1
            if source == SOURCE_CACHE:
                self.summary.cache_hits += 1
            else:
                self.summary.trained += 1
        if self.progress is not None:
            self.progress(EVENT_DONE, record)

    def _note_failed(self, record: JobRecord) -> None:
        with self._lock:
            self.summary.failed += 1
        if self.progress is not None:
            self.progress(EVENT_FAILED, record)

    # ------------------------------------------------------------------ #
    def _pop_job(self) -> Optional[JobRecord]:
        with self._lock:
            return self._queue.popleft() if self._queue else None

    def _requeue(self, record: JobRecord, front: bool = False) -> None:
        with self._lock:
            if front:
                self._queue.appendleft(record)
            else:
                self._queue.append(record)

    def _spawn(self, index: int) -> FlowWorker:
        with self._lock:
            siblings = [w.conn for w in self._live.values()]
            cache_dir = str(self.disk.cache_dir) if self.disk is not None else None
            worker = FlowWorker(
                index,
                cache_dir,
                sibling_conns=siblings,
                connection_wrapper=self.connection_wrapper,
            )
            self._live[index] = worker
        return worker

    def _retire(self, index: int, worker: FlowWorker) -> None:
        worker.kill()
        with self._lock:
            if self._live.get(index) is worker:
                del self._live[index]
            self.summary.workers_replaced += 1

    # ------------------------------------------------------------------ #
    def _dispatch_loop(self, index: int) -> None:
        worker: Optional[FlowWorker] = None
        try:
            while True:
                record = self._pop_job()
                if record is None:
                    break
                if worker is None or not worker.alive:
                    worker = self._spawn(index)
                try:
                    worker.ping(self.heartbeat_timeout_s)
                except WorkerCrashed:
                    # Late/lost heartbeat: replace the worker; the job is
                    # not charged an attempt.
                    self._retire(index, worker)
                    worker = None
                    self._requeue(record, front=True)
                    continue
                worker = self._run_one(index, worker, record)
        finally:
            if worker is not None and worker.alive:
                worker.stop()
            with self._lock:
                if self._live.get(index) is not None:
                    del self._live[index]

    def _run_one(
        self, index: int, worker: FlowWorker, record: JobRecord
    ) -> Optional[FlowWorker]:
        """Dispatch one attempt; returns the (possibly replaced) worker."""
        spec = record.spec
        attempt = record.attempts + 1
        self.manifest.start(spec.job_id, attempt)
        try:
            result, source = worker.call(spec.to_json(), self.job_timeout_s)
        except JobRejected as error:
            self.manifest.failed(spec.job_id, str(error))
            self._note_failed(record)
            return worker
        except WorkerCrashed as error:
            self._retire(index, worker)
            if attempt > self.max_retries:
                self.manifest.failed(
                    spec.job_id, f"retry budget exhausted after {attempt} "
                    f"attempts: {error}"
                )
                self._note_failed(record)
            else:
                self.manifest.retry(spec.job_id, attempt, str(error))
                with self._lock:
                    self.summary.retries += 1
                self.sleep(
                    min(
                        self.retry_backoff_s * (2 ** (attempt - 1)),
                        self.max_backoff_s,
                    )
                )
                self._requeue(record)
            return None
        # Durability ordering: cache entry, store record, then the journal
        # line — a crash between any two is re-derived on resume.
        if self.disk is not None and source == SOURCE_TRAINED:
            self.disk.store(result, spec.config)
        self.store.append(result_record(spec.job_id, result))
        self.manifest.done(spec.job_id, source)
        self._note_done(record, source)
        return worker


def run_jobs(
    manifest_path,
    store_path,
    cache: CacheSpec = None,
    workers: int = 2,
    progress: Optional[ProgressCallback] = None,
    **scheduler_kwargs,
) -> SchedulerSummary:
    """Open the durable pair at the given paths and drain the pending set.

    The resume entry point used by ``repro-jobs resume`` (and ``submit``
    with ``--run``): everything is derived from the two files.

    Example::

        summary = run_jobs(run_dir / "manifest.jsonl",
                           run_dir / "results.jsonl", workers=2)
    """
    with JobManifest(manifest_path) as manifest, ResultStore(store_path) as store:
        scheduler = JobScheduler(
            manifest,
            store,
            cache=cache,
            workers=workers,
            progress=progress,
            **scheduler_kwargs,
        )
        return scheduler.run()
