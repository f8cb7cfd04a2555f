"""Campaign planning: lane assignment and the cached plan representation.

Campaign execution is split into an explicit *plan* phase and an *execute*
phase.  Planning turns a scenario's job stream into a :class:`CampaignPlan`
-- a list of self-contained :class:`PlannedBatch` entries carrying the lane
assignment and the pre-assembled per-context input/register lane words --
and depends only on the *shape* of the jobs (the sequence of transition
contexts they touch), so plans are cached on the campaign and reused across
scenarios with the same shape (e.g. the per-effect sweeps, which differ only
in the injected effect).  The executor lives in :mod:`repro.fi.executor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: Plans retained per campaign (LRU): bounds memory for long-lived campaigns
#: that run many differently-shaped scenarios (e.g. varying random seeds).
#: Entries are also bounded by total cached *jobs* (keys and lane words are
#: O(num_jobs) each), so a few huge scenarios cannot pin gigabytes.
PLAN_CACHE_LIMIT = 32

#: Total jobs across all cached plans; a single plan larger than this is
#: returned uncached.
PLAN_CACHE_MAX_JOBS = 1_000_000


@dataclass(frozen=True)
class PlannedBatch:
    """One self-contained unit of bit-parallel work.

    ``[start, stop)`` slices the campaign's materialised job list; the lanes
    of the pass are ``golden_contexts`` first (one golden lane per distinct
    transition context, in first-appearance order) followed by one fault lane
    per job.  ``input_words``/``register_words`` are the pre-assembled lane
    words over all lanes of the pass; ``None`` marks a single-context batch
    (``pack_contexts=False``) whose context vectors are broadcast to every
    lane at evaluation time instead.
    """

    start: int
    stop: int
    golden_contexts: Tuple[int, ...]
    input_words: Optional[Dict[str, int]] = None
    register_words: Optional[Dict[str, int]] = None

    @property
    def num_jobs(self) -> int:
        return self.stop - self.start

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form; lane words (arbitrary-width bignums) go out as hex."""
        return {
            "start": self.start,
            "stop": self.stop,
            "golden_contexts": list(self.golden_contexts),
            "input_words": (
                {net: format(word, "x") for net, word in self.input_words.items()}
                if self.input_words is not None else None
            ),
            "register_words": (
                {net: format(word, "x") for net, word in self.register_words.items()}
                if self.register_words is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PlannedBatch":
        input_words = data.get("input_words")
        register_words = data.get("register_words")
        return cls(
            start=data["start"],
            stop=data["stop"],
            golden_contexts=tuple(data["golden_contexts"]),
            input_words=(
                {net: int(text, 16) for net, text in input_words.items()}
                if input_words is not None else None
            ),
            register_words=(
                {net: int(text, 16) for net, text in register_words.items()}
                if register_words is not None else None
            ),
        )


@dataclass(frozen=True)
class CampaignPlan:
    """The planned batches of one job stream.

    A plan depends only on the *shape* of the jobs -- the sequence of
    transition-context indices -- never on the injected faults, so one plan
    serves every scenario with the same shape (the cross-scenario cache in
    :class:`FaultCampaign` exploits exactly that).
    """

    batches: Tuple[PlannedBatch, ...]
    num_jobs: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "batches": [batch.to_dict() for batch in self.batches],
            "num_jobs": self.num_jobs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignPlan":
        return cls(
            batches=tuple(PlannedBatch.from_dict(entry) for entry in data["batches"]),
            num_jobs=data["num_jobs"],
        )
