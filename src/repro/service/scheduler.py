"""Scheduler and composition root of the campaign service.

The :class:`Scheduler` is a single background thread that pulls jobs off the
durable :class:`~repro.service.jobs.JobQueue` and executes each one through
one long-lived staged :class:`~repro.api.session.Session` -- the same
harden/campaign/report chain ``scfi run`` uses, against the same store --
given the service's persistent worker fleet (``Session(fleet=...)``): every
campaign executor is a :class:`~repro.fi.executor.FaultCampaign` sharding on
that fleet, scoped by the job's harden-stage hash so repeat netlists hit
warm compiled state.  The session outlives its jobs, so the next job on the
same hardened FSM reuses the netlist and executor the last one built.  The
session's one progress callback -- stages, scenarios and merged batches --
updates the running job's in-memory record, which ``GET /jobs/<id>`` reads.

A fully warm spec never touches the fleet at all: the session's campaign
stage hits the store before any executor is built, and a spec whose report
artifact is already in the :class:`~repro.service.results.ResultTier` is
answered at submit time without creating any scheduler work.

:class:`CampaignService` wires queue + fleet + scheduler + result tier over
one store and is what the HTTP frontend and the tests drive.  Shutdown is
graceful and deterministic: stop accepting, drain the in-flight job up to a
timeout, then cancel it through :meth:`~repro.fi.fleet.WorkerFleet.cancel`
-- marking it ``failed`` with ``resumable=True`` so the next server
re-queues it -- and close every fleet worker.
"""

from __future__ import annotations

import threading
import traceback
from typing import Any, Callable, Dict, Optional, Tuple

from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.fi.fleet import ServiceShutdown, WorkerFleet
from repro.service.jobs import (
    STATE_DONE,
    STATE_FAILED,
    STATE_PLANNING,
    STATE_RUNNING,
    Job,
    JobQueue,
    new_nonce,
)
from repro.service.results import (
    RESULT_TIER_COMPUTED,
    RESULT_TIER_HIT,
    ResultTier,
    stamp_provenance,
)
from repro.store import ArtifactStore

#: Optional service-level logger: ``(event, detail)`` pairs.
ServiceLog = Callable[[str, str], None]


class Scheduler:
    """One worker thread turning queued jobs into memoised results."""

    def __init__(
        self,
        store: ArtifactStore,
        queue: JobQueue,
        fleet: WorkerFleet,
        *,
        log: Optional[ServiceLog] = None,
    ) -> None:
        self.queue = queue
        self.fleet = fleet
        self._log = log
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._current_job: Optional[Job] = None
        self.jobs_executed = 0
        self.jobs_failed = 0
        self.session = Session(progress=self._session_progress, store=store, fleet=fleet)

    def _emit(self, event: str, detail: str = "") -> None:
        if self._log is not None:
            self._log(event, detail)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("scheduler already started")
        self._thread = threading.Thread(
            target=self._run_forever, name="scfi-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self, drain_timeout: float = 30.0) -> None:
        """Stop the loop: drain the in-flight job, then cancel if it overruns.

        Cancelling the fleet aborts collection between replies
        (:class:`~repro.fi.fleet.ServiceShutdown`), which the execute
        path turns into a ``failed`` + ``resumable`` job record -- recovery
        re-queues it on the next start.
        """
        self._stop.set()
        self.queue.wake()
        thread = self._thread
        if thread is None:
            return
        thread.join(drain_timeout)
        if thread.is_alive():
            self.fleet.cancel()
            thread.join(drain_timeout)
        self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- the loop --------------------------------------------------------

    def _run_forever(self) -> None:
        while not self._stop.is_set():
            job = self.queue.next_job(timeout=0.2)
            if job is not None:
                self._execute(job)

    def _execute(self, job: Job) -> None:
        self.queue.transition(job, STATE_PLANNING)
        self._emit("job", f"{job.job_id[:12]} planning")
        self._current_job = job
        try:
            result = self.session.run(job.parsed or ExperimentSpec.from_dict(job.spec))
        except ServiceShutdown:
            self.queue.transition(
                job,
                STATE_FAILED,
                error="interrupted by service shutdown",
                resumable=True,
            )
            self._emit("job", f"{job.job_id[:12]} drained (resumable)")
            return
        except Exception as error:  # noqa: BLE001 - job-level isolation
            self.jobs_failed += 1
            self.queue.transition(
                job,
                STATE_FAILED,
                error=f"{type(error).__name__}: {error}",
            )
            self._emit(
                "job",
                f"{job.job_id[:12]} failed: {traceback.format_exc(limit=3)}",
            )
            return
        finally:
            self._current_job = None
        job.progress["cache"] = {
            stage: record.get("status") for stage, record in result.cache.items()
        }
        self.queue.transition(job, STATE_DONE, result_source=RESULT_TIER_COMPUTED)
        self.jobs_executed += 1
        self._emit("job", f"{job.job_id[:12]} done")

    # -- session wiring ---------------------------------------------------

    def _session_progress(self, stage: str, detail: Any) -> None:
        """Fold the session's progress into the running job's record: the
        stage and its detail, and ``(done, total)`` of each merged batch,
        whose first moves the job to ``running``."""
        job = self._current_job
        if job is None:
            return
        if stage != "batch":
            job.progress["stage"] = stage
            job.progress["detail"] = detail
            return
        if job.state != STATE_RUNNING:
            self.queue.transition(job, STATE_RUNNING)
        job.progress["batches_done"], job.progress["batches_total"] = detail


class CampaignService:
    """Queue + fleet + scheduler + result tier over one artifact store.

    The front door the HTTP server (and tests) drive:

    * :meth:`submit` -- single-flight submission with result-tier short
      circuit; returns ``(job, status)`` where status is ``"queued"``,
      ``"coalesced"`` (an identical spec is already in flight) or
      ``"cached"`` (answered from the memoised result tier, no dispatch).
    * :meth:`job_status` / :meth:`job_result` -- job record and stamped
      result document.
    * :meth:`health` -- liveness plus queue/fleet/result-tier counters.

    Construction does not start anything; :meth:`start` recovers persisted
    jobs and launches the scheduler, :meth:`close` shuts the whole thing
    down gracefully.
    """

    def __init__(
        self,
        store: ArtifactStore,
        *,
        fleet_size: int = 2,
        log: Optional[ServiceLog] = None,
    ) -> None:
        self.store = store
        self.queue = JobQueue(store)
        self.results = ResultTier(store)
        self.fleet = WorkerFleet(fleet_size)
        self.scheduler = Scheduler(store, self.queue, self.fleet, log=log)
        self._log = log
        self._submit_lock = threading.Lock()
        self.recovered: Dict[str, int] = {}

    def _emit(self, event: str, detail: str = "") -> None:
        if self._log is not None:
            self._log(event, detail)

    def start(self) -> "CampaignService":
        self.recovered = self.queue.recover()
        if self.recovered.get("requeued"):
            self._emit(
                "recover",
                f"{self.recovered['requeued']} interrupted job(s) re-queued "
                f"({self.recovered['loaded']} records loaded)",
            )
        self.scheduler.start()
        return self

    def close(self, drain_timeout: float = 30.0) -> None:
        self.scheduler.stop(drain_timeout)
        self.queue.close()
        self.fleet.close()

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submissions ------------------------------------------------------

    def submit(self, spec_data: Dict[str, Any]) -> Tuple[Job, str]:
        """Submit one spec document; raises ``ValueError`` on a bad spec."""
        spec = ExperimentSpec.from_dict(spec_data)
        spec_hash = spec.content_hash()
        spec_doc = spec.to_dict()
        report_key = spec.stage_hashes()["report"]
        with self._submit_lock:
            # Result tier first: an already-computed spec never creates work.
            if self.results.probe(report_key):
                job = Job(
                    spec_hash=spec_hash,
                    nonce=new_nonce(),
                    spec=spec_doc,
                    state=STATE_DONE,
                    result_source=RESULT_TIER_HIT,
                    report_key=report_key,
                )
                self.queue.record(job)
                self._emit("submit", f"{job.job_id[:12]} result-tier hit")
                return job, "cached"
            job, coalesced = self.queue.submit(spec_hash, spec_doc, spec)
            job.report_key = report_key
        if coalesced:
            self._emit("submit", f"{job.job_id[:12]} coalesced (single-flight)")
            return job, "coalesced"
        self._emit("submit", f"{job.job_id[:12]} queued")
        return job, "queued"

    # -- queries ----------------------------------------------------------

    def job_status(self, job_id: str) -> Optional[Dict[str, Any]]:
        job = self.queue.get(job_id)
        if job is None:
            return None
        doc = job.to_dict()
        # The full spec can be large (inline Verilog); status replies carry
        # the identity, not the body.
        doc.pop("spec", None)
        return doc

    def job_result(
        self, job_id: str, hold: float = 0.0
    ) -> Tuple[Optional[Dict[str, Any]], str]:
        """``(document, state)`` for one job's result.

        ``document`` is the provenance-stamped result when the job is done,
        ``None`` otherwise (state tells the caller whether to keep polling,
        report failure, or 404).  While the scheduler runs, an active job is
        first waited on for up to ``hold`` seconds, or until :meth:`close`.
        Raises :class:`ValueError` for a done record reloaded after a
        restart whose stored spec this build rejects.
        """
        job = self.queue.get(job_id)
        if job is not None and job.active and hold > 0 and self.scheduler.running:
            job = self.queue.wait_settled(job_id, hold)
        if job is None:
            return None, "unknown"
        if job.state != STATE_DONE:
            return None, job.state
        if job.report_key is None:  # a record reloaded after a restart
            job.report_key = ExperimentSpec.from_dict(job.spec).stage_hashes()["report"]
        doc = self.results.get(job.report_key)
        if doc is None:  # store lost the result between done and fetch
            return None, "missing"
        return (
            stamp_provenance(
                doc,
                result_tier=job.result_source or RESULT_TIER_COMPUTED,
                job_id=job.job_id,
                spec_hash=job.spec_hash,
            ),
            STATE_DONE,
        )

    def health(self) -> Dict[str, Any]:
        return {
            "status": "ok" if self.scheduler.running else "stopped",
            "jobs": self.queue.counts(),
            "pending": self.queue.pending_count(),
            "fleet": self.fleet.stats(),
            "result_tier": {"hits": self.results.hits, "misses": self.results.misses},
            "jobs_executed": self.scheduler.jobs_executed,
            "jobs_failed": self.scheduler.jobs_failed,
        }
