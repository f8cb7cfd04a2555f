"""The service's result tier: finished experiments served from the report stage.

The incremental pipeline (PR 8) memoises *stages* by their input hashes, and
its last stage, ``report``, already holds one complete
``ExperimentResult.to_dict()`` document per spec under
``spec.stage_hashes()["report"]``.  The result tier is a read-only view of
that artifact: a re-submitted spec whose report artifact is in the store is
answered straight from it -- no job dispatch, no worker touched -- and
because it lives in the store, a warm result tier survives restarts and
ships between hosts with ``scfi cache export``.  Nothing writes a second
copy; a computed job's session run writes the report artifact itself.

Every served document is stamped with **cache provenance** under a
``"service"`` key: whether it came from the result tier (``"hit"``) or from
a fresh computation, and which job produced it -- a memoised answer is always
recognisable as one, never silently indistinguishable from fresh work.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.api.session import load_json_artifact
from repro.store import ArtifactStore

#: ``service.result_tier`` values: a memoised answer vs a fresh computation.
RESULT_TIER_HIT = "hit"
RESULT_TIER_COMPUTED = "computed"


class ResultTier:
    """Report-key -> finished-result lookup over the artifact store.

    ``hits`` and ``misses`` count submissions: :meth:`probe`, the submit
    path's lookup, is the only call that moves them, so fetching a job's
    result (:meth:`get`) leaves them alone.
    """

    def __init__(self, store: ArtifactStore) -> None:
        self.store = store
        self.hits = 0
        self.misses = 0

    def get(self, report_key: str) -> Optional[Dict[str, Any]]:
        """The result document stored under ``report_key``, or ``None``.

        Byte-level corruption is already a store-level miss; an unparsable
        payload is evicted the same way, so the tier degrades to a recompute,
        never to a wrong answer.
        """
        return load_json_artifact(self.store, "report", report_key)

    def probe(self, report_key: str) -> bool:
        """Whether a submission of ``report_key`` is answered from the tier,
        counted as one hit or one miss."""
        if self.get(report_key) is None:
            self.misses += 1
            return False
        self.hits += 1
        return True


def stamp_provenance(
    doc: Dict[str, Any],
    *,
    result_tier: str,
    job_id: str,
    spec_hash: str,
    coalesced: bool = False,
) -> Dict[str, Any]:
    """A copy of ``doc`` carrying the service's cache provenance.

    ``result_tier`` is :data:`RESULT_TIER_HIT` when the answer was memoised
    (no worker dispatched for this submission) and
    :data:`RESULT_TIER_COMPUTED` when this job ran the pipeline.
    """
    stamped = dict(doc)
    stamped["service"] = {
        "result_tier": result_tier,
        "job_id": job_id,
        "spec_hash": spec_hash,
        "coalesced": coalesced,
    }
    return stamped
