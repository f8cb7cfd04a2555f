"""Job model and durable queue of the campaign service.

A *job* is one submitted :class:`~repro.api.spec.ExperimentSpec` on its way
through the service:

    queued -> planning -> running -> done | failed

Its identity is ``<spec content_hash><submit nonce>`` -- 64 hex characters of
spec identity plus 8 hex characters distinguishing this submission -- which
doubles as the job's artifact key in the store (keys must be hex digests).
The record is persisted as a JSON artifact under the ``job`` stage of the
pipeline's :class:`~repro.store.ArtifactStore` at submit and at its terminal
state only; ``planning``/``running`` and progress live in memory, where
``GET /jobs/<id>`` reads them.  Recovery needs no more: a restarted server
calls :meth:`JobQueue.recover`, reloads every job record, and re-queues the
ones still reading ``queued`` (in flight when the previous process died),
plus ``failed`` jobs explicitly marked *resumable* by a graceful shutdown.

Submissions are **single-flight by spec hash**: while a job for a given
``content_hash`` is active, further submissions of the same spec coalesce
onto it -- they get the *same* job id back (flagged ``coalesced``) and ride
the one computation.  Finished results live in the
:class:`~repro.service.results.ResultTier`, not here; the job record only
points at its ``spec_hash``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.store import CODEC_JSON, ArtifactStore

if TYPE_CHECKING:
    from repro.api.spec import ExperimentSpec

#: Store stage that holds job records (sibling of harden/campaign/report).
JOB_STAGE = "job"

STATE_QUEUED = "queued"
STATE_PLANNING = "planning"
STATE_RUNNING = "running"
STATE_DONE = "done"
STATE_FAILED = "failed"

#: Every legal job state, in lifecycle order.
JOB_STATES = (STATE_QUEUED, STATE_PLANNING, STATE_RUNNING, STATE_DONE, STATE_FAILED)

#: States that occupy the single-flight slot for their spec hash.
ACTIVE_STATES = (STATE_QUEUED, STATE_PLANNING, STATE_RUNNING)

#: Length of the submit nonce in hex characters.
NONCE_HEX = 8


def new_nonce() -> str:
    """A fresh submit nonce (8 hex chars, cryptographically random)."""
    return os.urandom(NONCE_HEX // 2).hex()


@dataclass
class Job:
    """One submission's durable record.

    ``result_source`` records how the job's answer came to be: ``"computed"``
    for jobs the scheduler actually ran, ``"result-tier"`` for submissions
    answered straight from the memoised result store without touching a
    worker -- the cache provenance the acceptance criteria ask for.
    ``progress`` streams the pipeline position (stage/detail from the session,
    per-batch ``batches_done``/``batches_total`` from the worker fleet).
    """

    spec_hash: str
    nonce: str
    spec: Dict[str, Any]
    state: str = STATE_QUEUED
    submitted: float = field(default_factory=time.time)
    updated: float = field(default_factory=time.time)
    error: Optional[str] = None
    #: A failed job a graceful shutdown interrupted; recovery re-queues it.
    resumable: bool = False
    #: True when this record was re-queued by a restarted server.
    recovered: bool = False
    result_source: Optional[str] = None
    progress: Dict[str, Any] = field(default_factory=dict)
    #: The spec's report-stage key, where its result lives.  Set at submit,
    #: not persisted: a reloaded record derives it from ``spec``.
    report_key: Optional[str] = field(default=None, repr=False, compare=False)
    #: ``spec`` parsed, carried from submit to the scheduler so the document
    #: is parsed once.  Not persisted, and dropped when the job settles.
    parsed: Optional[ExperimentSpec] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ValueError(f"unknown job state {self.state!r} (known: {JOB_STATES})")

    @property
    def job_id(self) -> str:
        return self.spec_hash + self.nonce

    @property
    def active(self) -> bool:
        return self.state in ACTIVE_STATES

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "spec_hash": self.spec_hash,
            "nonce": self.nonce,
            "spec": self.spec,
            "state": self.state,
            "submitted": self.submitted,
            "updated": self.updated,
            "error": self.error,
            "resumable": self.resumable,
            "recovered": self.recovered,
            "result_source": self.result_source,
            "progress": dict(self.progress),  # copied: the scheduler mutates it
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Job":
        return cls(
            spec_hash=data["spec_hash"],
            nonce=data["nonce"],
            spec=data["spec"],
            state=data["state"],
            submitted=float(data["submitted"]),
            updated=float(data["updated"]),
            error=data.get("error"),
            resumable=bool(data.get("resumable", False)),
            recovered=bool(data.get("recovered", False)),
            result_source=data.get("result_source"),
            progress=dict(data.get("progress") or {}),
        )


def split_job_id(job_id: str) -> Tuple[str, str]:
    """Split a job id back into ``(spec_hash, nonce)``; raises on bad shape."""
    if (
        not isinstance(job_id, str)
        or len(job_id) != 64 + NONCE_HEX
        or any(c not in "0123456789abcdef" for c in job_id)
    ):
        raise ValueError(
            f"malformed job id {job_id!r} (expected {64 + NONCE_HEX} hex characters)"
        )
    return job_id[:64], job_id[64:]


class JobQueue:
    """Durable FIFO of jobs, persisted through the artifact store.

    Thread-safe: HTTP handler threads submit and read while the scheduler
    thread consumes.  The in-memory dict runs ahead of the store only while
    a job is active, so a crash leaves a ``queued`` or terminal record.
    """

    def __init__(self, store: ArtifactStore) -> None:
        self.store = store
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._active_by_hash: Dict[str, str] = {}  # spec_hash -> active job_id
        self._pending: deque = deque()  # job ids awaiting the scheduler
        self._available = threading.Condition(self._lock)
        #: Notified whenever a job reaches a terminal state, and on close().
        self._settled = threading.Condition(self._lock)
        self._closed = False

    # -- persistence ----------------------------------------------------

    def persist(self, job: Job) -> None:
        """Write the job record through to the store (atomic per record)."""
        job.updated = time.time()
        payload = json.dumps(job.to_dict(), sort_keys=True).encode("utf-8")
        self.store.save(JOB_STAGE, job.job_id, payload, CODEC_JSON)

    def _load_record(self, job_id: str) -> Optional[Job]:
        artifact = self.store.load(JOB_STAGE, job_id)
        if artifact is None:
            return None
        try:
            return Job.from_dict(json.loads(artifact.payload.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            self.store.delete(JOB_STAGE, job_id)
            return None

    def recover(self) -> Dict[str, int]:
        """Reload every persisted job record and re-queue interrupted work.

        Jobs found in an active state were in flight when the previous server
        died; they are reset to ``queued`` (flagged ``recovered``) and
        re-enqueued in submission order.  ``failed`` jobs marked ``resumable``
        (a graceful shutdown drained them out) are re-queued the same way.
        Terminal jobs are simply reloaded so status/result queries keep
        answering across restarts.
        """
        stats = {"loaded": 0, "requeued": 0}
        with self._lock:
            records: List[Job] = []
            for entry in list(self.store.entries()):
                if entry.stage != JOB_STAGE:
                    continue
                job = self._load_record(entry.key)
                if job is not None:
                    records.append(job)
            for job in sorted(records, key=lambda j: j.submitted):
                stats["loaded"] += 1
                if job.active or (job.state == STATE_FAILED and job.resumable):
                    job.state = STATE_QUEUED
                    job.recovered = True
                    job.error = None
                    job.resumable = False
                    job.progress = {}
                    self.persist(job)
                    stats["requeued"] += 1
                    self._enqueue_locked(job)
                else:
                    self._jobs[job.job_id] = job
            self._available.notify_all()
        return stats

    # -- submission (single-flight) -------------------------------------

    def _enqueue_locked(self, job: Job) -> None:
        self._jobs[job.job_id] = job
        self._active_by_hash[job.spec_hash] = job.job_id
        self._pending.append(job.job_id)
        self._available.notify()

    def submit(
        self, spec_hash: str, spec: Dict[str, Any], parsed: Optional[ExperimentSpec] = None
    ) -> Tuple[Job, bool]:
        """Enqueue one spec; returns ``(job, coalesced)``.

        Single-flight: while a job for ``spec_hash`` is active, resubmissions
        return that job (``coalesced=True``) instead of scheduling a second
        computation of the same spec.  ``parsed`` is ``spec`` already parsed,
        handed on to the scheduler.
        """
        with self._lock:
            active_id = self._active_by_hash.get(spec_hash)
            if active_id is not None:
                active = self._jobs.get(active_id)
                if active is not None and active.active:
                    return active, True
                del self._active_by_hash[spec_hash]
            job = Job(spec_hash=spec_hash, nonce=new_nonce(), spec=spec, parsed=parsed)
            self.persist(job)
            self._enqueue_locked(job)
            return job, False

    def record(self, job: Job) -> None:
        """Register an externally-created terminal job (e.g. a result-tier
        hit answered at submit time) so status/result queries can find it."""
        with self._lock:
            self.persist(job)
            self._jobs[job.job_id] = job
            self._settled.notify_all()

    # -- scheduler side --------------------------------------------------

    def next_job(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the oldest queued job, blocking up to ``timeout`` seconds or
        until :meth:`wake`."""
        with self._available:
            if not self._pending:
                self._available.wait(timeout)
            if not self._pending:
                return None
            return self._jobs[self._pending.popleft()]

    def wake(self) -> None:
        """Return every blocked :meth:`next_job` call at once, with no job
        unless one is queued."""
        with self._available:
            self._available.notify_all()

    def transition(self, job: Job, state: str, **fields) -> None:
        """Move a job to ``state`` (and set extra record fields).

        Only a terminal state is persisted: an active one changes nothing
        recovery acts on.  Leaving an active state releases the job's
        single-flight slot, so the next submission of the same spec starts a
        fresh computation (or hits the result tier).
        """
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r} (known: {JOB_STATES})")
        with self._lock:
            job.state = state
            for name, value in fields.items():
                setattr(job, name, value)
            if not job.active:
                if self._active_by_hash.get(job.spec_hash) == job.job_id:
                    del self._active_by_hash[job.spec_hash]
                job.parsed = None
                self.persist(job)
                self._settled.notify_all()

    def wait_settled(self, job_id: str, timeout: Optional[float] = None) -> Optional[Job]:
        """Block until job ``job_id`` is in a terminal state, ``timeout``
        seconds pass or the queue is closed; return the job as it then stands
        (``None`` if unknown)."""
        with self._settled:
            self._settled.wait_for(
                lambda: self._closed or not getattr(self._jobs.get(job_id), "active", True),
                timeout,
            )
        return self.get(job_id)

    def close(self) -> None:
        """Return every :meth:`wait_settled` call at once, now and from now on."""
        with self._settled:
            self._closed = True
            self._settled.notify_all()

    # -- introspection ---------------------------------------------------

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is not None:
            return job
        # Not in the mirror (e.g. a record written by a previous server that
        # recover() was never asked about) -- fall back to the store.
        job = self._load_record(job_id)
        if job is not None:
            with self._lock:
                job = self._jobs.setdefault(job_id, job)
        return job

    def jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.submitted)

    def counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs():
            counts[job.state] += 1
        return counts

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)
