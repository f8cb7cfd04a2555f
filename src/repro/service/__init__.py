"""repro.service -- the campaign service.

A long-running front end over the staged pipeline: a durable job queue
(:mod:`repro.service.jobs`), a scheduler wiring jobs through the ordinary
:class:`~repro.api.session.Session` handed one persistent
:class:`~repro.fi.fleet.WorkerFleet`, whose workers keep compiled netlists
warm per harden-stage key (:mod:`repro.service.scheduler`), a result tier
over the report stage (:mod:`repro.service.results`) and a stdlib-only HTTP
surface (:mod:`repro.service.http`).  Everything durable
lives in the same content-addressed :class:`~repro.store.ArtifactStore` the
CLI caches into, so ``scfi serve`` and ``scfi run`` share one cache and one
notion of identity.
"""

from repro.service.jobs import (
    ACTIVE_STATES,
    JOB_STAGE,
    JOB_STATES,
    STATE_DONE,
    STATE_FAILED,
    STATE_PLANNING,
    STATE_QUEUED,
    STATE_RUNNING,
    Job,
    JobQueue,
    new_nonce,
    split_job_id,
)
from repro.service.results import (
    RESULT_TIER_COMPUTED,
    RESULT_TIER_HIT,
    ResultTier,
    stamp_provenance,
)
from repro.service.http import (
    ServiceClient,
    ServiceError,
    ServiceHTTPServer,
    serve,
)
from repro.service.scheduler import CampaignService, Scheduler
from repro.fi.fleet import FleetError, FleetTaskError, ServiceShutdown, WorkerFleet

__all__ = [
    "ACTIVE_STATES",
    "JOB_STAGE",
    "JOB_STATES",
    "STATE_DONE",
    "STATE_FAILED",
    "STATE_PLANNING",
    "STATE_QUEUED",
    "STATE_RUNNING",
    "Job",
    "JobQueue",
    "new_nonce",
    "split_job_id",
    "RESULT_TIER_COMPUTED",
    "RESULT_TIER_HIT",
    "ResultTier",
    "stamp_provenance",
    "CampaignService",
    "Scheduler",
    "ServiceClient",
    "ServiceError",
    "ServiceHTTPServer",
    "serve",
    "FleetError",
    "FleetTaskError",
    "ServiceShutdown",
    "WorkerFleet",
]
