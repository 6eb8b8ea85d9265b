"""The job manifest: an append-only JSON-lines journal of flow jobs.

The job service (:mod:`repro.jobs.scheduler`) must survive being killed at
any instant — mid-grid, mid-dispatch, even mid-write — and resume with
exactly the work that was still outstanding.  The mechanism is the same one
databases use: a *journal*.  Every job submission and every state
transition is one JSON object appended as one line to ``manifest.jsonl``;
the current state of the world is never stored, only derived by replaying
the journal from the top.

Jobs are **content-keyed**: a job's identity is a digest of
:meth:`repro.core.design_flow.FlowConfig.cache_key` — the same identity the
persistent flow cache is keyed by (minus the code fingerprint, which the
cache layer adds itself).  Submitting the same (dataset, kind, config)
twice is therefore a no-op, a restarted scheduler resumes exactly the
pending set, and a job whose result the flow cache already holds completes
without retraining.

Journal records (one JSON object per line)::

    {"event": "submit", "id": <job_id>, "job": {"dataset": ..., "kind": ...,
                                                "config": {...}}}
    {"event": "start",  "id": <job_id>, "attempt": N}
    {"event": "retry",  "id": <job_id>, "attempt": N, "error": "..."}
    {"event": "done",   "id": <job_id>, "source": "trained" | "cache"}
    {"event": "failed", "id": <job_id>, "error": "..."}

Crash semantics on replay:

* a **torn final line** (no trailing newline, or not valid JSON) is the
  write the dying process never finished — it is discarded, not fatal;
* a malformed line *before* the final one means the file was corrupted by
  something other than a crash-truncate and raises :class:`ManifestError`;
* a job left in ``running`` state (a ``start`` with no matching ``done`` /
  ``failed`` / ``retry``) was in flight when the scheduler died — replay
  normalises it back to ``pending`` so resume re-dispatches it.

Example::

    manifest = JobManifest(tmp_path / "manifest.jsonl")
    job_id = manifest.submit(JobSpec("redwine", "ours", fast_config()))
    manifest.state.jobs[job_id].state        # 'pending'
    reloaded = JobManifest(manifest.path)    # replays the journal
    reloaded.pending_ids() == [job_id]       # True
"""

from __future__ import annotations

import dataclasses
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.design_flow import MODEL_KINDS, FlowConfig, job_content_key

#: Job states derivable from the journal.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

JOB_STATES = (PENDING, RUNNING, DONE, FAILED)


class ManifestError(ValueError):
    """The journal is corrupt beyond what a crash-truncate can explain.

    Example::

        try:
            manifest = JobManifest(path)
        except ManifestError:
            ...  # a *non-final* line is malformed: refuse to guess
    """


@dataclass(frozen=True)
class JobSpec:
    """One flow job: a (dataset, kind, config) triple.

    Example::

        spec = JobSpec("redwine", "ours", fast_config())
        spec.job_id                          # 16-hex content key
    """

    dataset: str
    kind: str
    config: FlowConfig

    @property
    def job_id(self) -> str:
        return job_content_key(self.dataset, self.kind, self.config)

    def to_json(self) -> Dict:
        """JSON-safe representation (inverse of :meth:`from_json`)."""
        return {
            "dataset": self.dataset,
            "kind": self.kind,
            "config": dataclasses.asdict(self.config),
        }

    @classmethod
    def from_json(cls, doc: Dict) -> "JobSpec":
        """Rebuild a spec from its journal representation."""
        return cls(
            dataset=str(doc["dataset"]),
            kind=str(doc["kind"]),
            config=FlowConfig(**doc["config"]),
        )


@dataclass
class JobRecord:
    """The replayed state of one job."""

    spec: JobSpec
    state: str = PENDING
    attempts: int = 0
    error: Optional[str] = None
    #: ``"trained"`` or ``"cache"`` once done.
    source: Optional[str] = None

    @property
    def job_id(self) -> str:
        return self.spec.job_id


@dataclass
class ManifestState:
    """All jobs derived from one journal replay, in submission order."""

    jobs: "Dict[str, JobRecord]" = field(default_factory=dict)
    #: Journal lines replayed (complete lines only; the torn tail excluded).
    replayed_lines: int = 0
    #: Whether the final line was torn (discarded during replay).
    discarded_torn_tail: bool = False

    def by_state(self, state: str) -> List[JobRecord]:
        return [r for r in self.jobs.values() if r.state == state]

    def counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for record in self.jobs.values():
            counts[record.state] += 1
        return counts


def _replay_line(state: ManifestState, doc: Dict) -> None:
    """Apply one journal record to a replayed state."""
    event = doc.get("event")
    job_id = doc.get("id")
    if not isinstance(job_id, str) or not job_id:
        raise ManifestError(f"journal record without a job id: {doc!r}")
    if event == "submit":
        if job_id in state.jobs:
            return  # duplicate submit: content-keyed, so a no-op
        try:
            spec = JobSpec.from_json(doc["job"])
        except (KeyError, TypeError, ValueError) as error:
            raise ManifestError(f"unreadable job spec in {doc!r}: {error}")
        if spec.kind not in MODEL_KINDS:
            raise ManifestError(f"journal submits unknown model kind {spec.kind!r}")
        if spec.job_id != job_id:
            raise ManifestError(
                f"journal id {job_id} does not match its spec's content key "
                f"{spec.job_id} (edited journal?)"
            )
        state.jobs[job_id] = JobRecord(spec=spec)
        return
    record = state.jobs.get(job_id)
    if record is None:
        raise ManifestError(
            f"journal {event!r} for job {job_id} before its submit record"
        )
    if event == "start":
        record.state = RUNNING
        record.attempts = int(doc.get("attempt", record.attempts + 1))
    elif event == "retry":
        record.state = PENDING
        record.attempts = int(doc.get("attempt", record.attempts))
        record.error = str(doc.get("error", ""))
    elif event == "done":
        record.state = DONE
        record.error = None
        record.source = str(doc.get("source", "trained"))
    elif event == "failed":
        record.state = FAILED
        record.error = str(doc.get("error", ""))
    # Unknown events are skipped (forward compatibility), not fatal.


def replay_journal(text: str) -> ManifestState:
    """Replay journal text into a :class:`ManifestState`.

    A torn final line (crash mid-write) is discarded; any other malformed
    line raises :class:`ManifestError`.

    Example::

        state = replay_journal(path.read_text())
        [r.spec.dataset for r in state.by_state("pending")]
    """
    state = ManifestState()
    # splitlines() would hide whether the final line was newline-terminated,
    # which is exactly the torn-write signal — split manually instead.
    lines = text.split("\n")
    complete, tail = lines[:-1], lines[-1]
    if tail:
        state.discarded_torn_tail = True  # no trailing newline: torn write
    for index, line in enumerate(complete):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as error:
            raise ManifestError(
                f"journal line {index + 1} is not valid JSON "
                f"(not the final line, so not a crash-truncate): {error}"
            )
        if not isinstance(doc, dict):
            raise ManifestError(f"journal line {index + 1} is not an object")
        _replay_line(state, doc)
        state.replayed_lines += 1
    return state


class JobManifest:
    """The append-only journal plus its replayed in-memory state.

    Thread-safe: scheduler worker threads append transitions concurrently.
    Every append is written as one line and flushed immediately, so a
    SIGKILL can only ever lose (or tear) the very last record — which is
    exactly what :func:`replay_journal` tolerates.

    Example::

        manifest = JobManifest(tmp_path / "manifest.jsonl")
        job_id = manifest.submit(JobSpec("redwine", "ours", fast_config()))
        manifest.start(job_id, attempt=1)
        manifest.done(job_id, source="trained")
        JobManifest(manifest.path).state.counts()["done"]    # 1
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle = None
        if self.path.is_file():
            self.state = replay_journal(self.path.read_text())
        else:
            self.state = ManifestState()

    # ------------------------------------------------------------------ #
    def _write_line(self, text: str) -> None:
        """The single journal write choke point (one line + flush).

        Chaos tests monkeypatch this to simulate dying mid-write; the
        contract every caller relies on is line-at-a-time durability.
        """
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(text + "\n")
        self._handle.flush()

    def _append(self, doc: Dict) -> None:
        with self._lock:
            self._write_line(json.dumps(doc, sort_keys=True))
            _replay_line(self.state, doc)

    def close(self) -> None:
        """Close the journal handle (reopened lazily by the next append)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "JobManifest":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def submit(self, spec: JobSpec) -> str:
        """Journal one job submission; duplicate submissions are no-ops.

        Returns the job's content key either way.
        """
        job_id = spec.job_id
        with self._lock:
            known = job_id in self.state.jobs
        if not known:
            self._append({"event": "submit", "id": job_id, "job": spec.to_json()})
        return job_id

    def start(self, job_id: str, attempt: int) -> None:
        """Journal a dispatch (attempt numbers start at 1)."""
        self._append({"event": "start", "id": job_id, "attempt": int(attempt)})

    def retry(self, job_id: str, attempt: int, error: str) -> None:
        """Journal a crashed/timed-out attempt going back to pending."""
        self._append(
            {"event": "retry", "id": job_id, "attempt": int(attempt), "error": error}
        )

    def done(self, job_id: str, source: str) -> None:
        """Journal successful completion (``source``: ``trained``/``cache``)."""
        self._append({"event": "done", "id": job_id, "source": source})

    def failed(self, job_id: str, error: str) -> None:
        """Journal permanent failure (bad spec or retry budget exhausted)."""
        self._append({"event": "failed", "id": job_id, "error": error})

    # ------------------------------------------------------------------ #
    def reload(self) -> ManifestState:
        """Re-replay the journal from disk (crashed ``running`` -> pending).

        The resume entry point: jobs another process left mid-flight come
        back as pending, everything done stays done.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            if self.path.is_file():
                self.state = replay_journal(self.path.read_text())
            else:
                self.state = ManifestState()
            for record in self.state.jobs.values():
                if record.state == RUNNING:
                    record.state = PENDING
            return self.state

    def pending_ids(self) -> List[str]:
        """Ids of jobs still owed work (pending or orphaned mid-run)."""
        with self._lock:
            return [
                job_id
                for job_id, record in self.state.jobs.items()
                if record.state in (PENDING, RUNNING)
            ]

    def counts(self) -> Dict[str, int]:
        """Jobs per state (``pending``/``running``/``done``/``failed``)."""
        with self._lock:
            return self.state.counts()
