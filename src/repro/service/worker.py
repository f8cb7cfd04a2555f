"""Fleet-bound campaign executors for the campaign service.

The service keeps one long-lived :class:`~repro.fi.fleet.WorkerFleet` for its
whole lifetime.  Each fleet worker caches warm
:class:`~repro.fi.executor.FaultCampaign` executors keyed by a **config id**
-- a hash of the harden-stage key plus the execution parameters (engine, lane
budget, context packing, outcome retention).  The first job against a given
hardened netlist ships the :class:`~repro.core.structure.ScfiNetlist` once
and the workers compile it; every later job with the same config id reuses
the compiled netlists without any shipping or compiling ("warm netlist" in
the ROADMAP's sense).

:class:`FleetCampaign` is a :class:`~repro.fi.executor.FaultCampaign` that
runs its sharded path on that shared fleet instead of starting its own: the
same planner, the same task format, the same worker evaluation and merge
order, so counters are bit-identical to ``scfi run`` by construction.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Callable, Optional

from repro.api.spec import canonical_json
from repro.core.structure import ScfiNetlist
from repro.fi.executor import DEFAULT_ENGINE, FaultCampaign
from repro.fi.fleet import WorkerFleet


def fleet_config_id(
    scope: str,
    *,
    engine: str,
    lane_width: Optional[int],
    keep_outcomes: bool,
    pack_contexts: bool,
) -> str:
    """Identity of one warm executor: harden-stage scope + execution params."""
    doc = {
        "scope": scope,
        "engine": engine,
        "lane_width": lane_width,
        "keep_outcomes": keep_outcomes,
        "pack_contexts": pack_contexts,
    }
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


class FleetCampaign(FaultCampaign):
    """A campaign executor whose worker pool is the service's shared fleet.

    Behaves exactly like ``FaultCampaign(workers=N)`` -- same planner, same
    tasks, same merge order, bit-identical counters -- but dispatches to
    fleet workers that outlive the campaign.  ``close()`` therefore detaches
    instead of terminating anything: the session's ``with`` block must not
    tear the fleet down.  ``batch_progress(done, total)`` streams per-batch
    completion; ``cancel`` aborts between fleet replies for shutdown drains.
    """

    def __init__(
        self,
        fleet: WorkerFleet,
        scope: str,
        structure: ScfiNetlist,
        *,
        engine: str = DEFAULT_ENGINE,
        lane_width: Optional[int] = None,
        keep_outcomes: bool = False,
        pack_contexts: bool = True,
        batch_progress: Optional[Callable[[int, int], None]] = None,
        cancel: Optional[threading.Event] = None,
    ) -> None:
        super().__init__(
            structure,
            engine=engine,
            lane_width=lane_width,
            keep_outcomes=keep_outcomes,
            pack_contexts=pack_contexts,
        )
        # A supplied fleet is what makes every run of this executor shard.
        self._fleet = fleet
        self._batch_progress = batch_progress
        self._cancel = cancel
        params = self._worker_params()
        self.config_id = fleet_config_id(scope, **params)
        fleet.ensure_config(self.config_id, structure, params)

    def close(self) -> None:
        """Detach from the fleet (which outlives every campaign)."""
