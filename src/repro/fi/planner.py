"""Campaign planning: the lane-packing rule.

Campaign execution is split into a *plan* phase and an *execute* phase.
Planning cuts a scenario's job stream into :class:`PlannedBatch` entries --
nothing but cut points and the golden-lane contexts of each pass -- and
depends only on the sequence of transition contexts the jobs touch.
:func:`plan_batches` is the one planning rule; it walks *runs* of equal
context rather than single jobs (lowering sorts jobs by context, so runs are
few), which makes a plan cost microseconds.  The engines build each batch's
lane words themselves at execute time (see :mod:`repro.fi.executor`).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np


class PlannedBatch(NamedTuple):
    """One unit of bit-parallel work.

    ``[start, stop)`` slices the campaign's job list; the lanes of the pass
    are ``golden_contexts`` first (one golden lane per distinct transition
    context, in first-appearance order) followed by one fault lane per job.
    """

    start: int
    stop: int
    golden_contexts: Tuple[int, ...]

    @property
    def num_jobs(self) -> int:
        return self.stop - self.start


class CampaignPlan(NamedTuple):
    """The planned batches of one job stream."""

    batches: Tuple[PlannedBatch, ...]


def plan_batches(job_contexts: np.ndarray, lane_width: int, pack_contexts: bool) -> CampaignPlan:
    """Cut a job stream (one context index per job) into batches.

    A pass holds at most ``lane_width + 1`` lanes: one golden lane per
    distinct transition context in the batch plus one fault lane per job.
    With ``pack_contexts`` jobs from different contexts share a pass --
    admitting a job costs one lane, or two when it brings a context the batch
    has not seen yet; the batch is cut when the budget would overflow.
    Without it every context change cuts, and so does every ``lane_width``
    jobs (one context per pass).
    """
    contexts = np.asarray(job_contexts)
    num_jobs = int(contexts.size)
    if not num_jobs:
        return CampaignPlan(batches=())
    # Runs of equal context: [starts[i], stops[i]) all hold run_contexts[i].
    bounds = (np.flatnonzero(np.diff(contexts)) + 1).tolist()
    starts = [0] + bounds
    stops = bounds + [num_jobs]
    run_contexts = contexts[starts].tolist()
    batches: List[PlannedBatch] = []
    if not pack_contexts:
        for run_start, run_stop, index in zip(starts, stops, run_contexts):
            for start in range(run_start, run_stop, lane_width):
                batches.append(PlannedBatch(start, min(start + lane_width, run_stop), (index,)))
        return CampaignPlan(batches=tuple(batches))

    budget = lane_width + 1
    start = 0
    seen: Dict[int, None] = {}  # insertion-ordered golden-lane contexts
    for position, stop, index in zip(starts, stops, run_contexts):
        while position < stop:
            used = (position - start) + len(seen)
            if index not in seen:
                if position > start and used + 2 > budget:
                    batches.append(PlannedBatch(start, position, tuple(seen)))
                    start, seen = position, {}
                seen[index] = None
                position += 1
                continue
            take = min(budget - used, stop - position)
            if take <= 0:
                batches.append(PlannedBatch(start, position, tuple(seen)))
                start, seen = position, {}
                continue
            position += take
    batches.append(PlannedBatch(start, num_jobs, tuple(seen)))
    return CampaignPlan(batches=tuple(batches))
