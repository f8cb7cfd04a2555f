"""Legacy fault-campaign entry points (thin wrappers over the orchestrator).

The campaign machinery lives in :mod:`repro.fi.orchestrator`: a
:class:`~repro.fi.orchestrator.FaultCampaign` executor runs pluggable
scenarios on the bit-parallel engine (or on the scalar oracle).  The two
functions below keep the historical API of the Section 6.4 experiments:

* :func:`exhaustive_single_fault_campaign` -- every net of a target region
  (by default the MDS diffusion layer) is flipped once for every valid state
  transition, and every injection is classified as masked / detected /
  redirected / hijack.
* :func:`random_multi_fault_campaign` -- a sampled campaign injecting ``n``
  simultaneous flips at random locations, used to study the multi-fault
  scaling claims of the threat model.

Both run on :data:`~repro.fi.executor.DEFAULT_ENGINE` unless told
otherwise: ``engine="parallel"`` runs the bit-parallel batches on bignum lane
words and ``engine="scalar"`` replays the campaign on the reference
:class:`~repro.netlist.simulate.NetlistSimulator`; counters are identical
across all engines by construction and asserted in the tests and benchmarks.
Explicit ``target_nets`` lists are validated up front -- naming a net the
netlist does not contain raises :class:`ValueError` instead of silently
counting the injection as masked.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.structure import ScfiNetlist
from repro.fi.model import FaultEffect
from repro.fi.orchestrator import (
    DEFAULT_ENGINE,
    CampaignResult,
    ExhaustiveSingleFault,
    FaultCampaign,
    RandomMultiFault,
)

__all__ = [
    "CampaignResult",
    "exhaustive_single_fault_campaign",
    "random_multi_fault_campaign",
]


def exhaustive_single_fault_campaign(
    structure: ScfiNetlist,
    target_nets: Optional[Sequence[str]] = None,
    effects: Sequence[FaultEffect] = (FaultEffect.TRANSIENT_FLIP,),
    keep_outcomes: bool = False,
    engine: str = DEFAULT_ENGINE,
    lane_width: Optional[int] = None,
) -> CampaignResult:
    """Flip every target net once for every valid transition (Section 6.4).

    ``target_nets`` defaults to the gates of the MDS diffusion layer, matching
    the paper's formal analysis; pass ``"comb"`` (or an explicit net list) for
    a whole-next-state-logic campaign.
    """
    with FaultCampaign(
        structure, engine=engine, lane_width=lane_width, keep_outcomes=keep_outcomes
    ) as campaign:
        return campaign.run(ExhaustiveSingleFault(target_nets=target_nets, effects=effects))


def random_multi_fault_campaign(
    structure: ScfiNetlist,
    num_faults: int,
    trials: int,
    target_nets: Optional[Sequence[str]] = None,
    seed: int = 0,
    keep_outcomes: bool = False,
    engine: str = DEFAULT_ENGINE,
    lane_width: Optional[int] = None,
) -> CampaignResult:
    """Inject ``num_faults`` simultaneous random flips, ``trials`` times."""
    if num_faults < 1:
        raise ValueError("num_faults must be >= 1")
    with FaultCampaign(
        structure, engine=engine, lane_width=lane_width, keep_outcomes=keep_outcomes
    ) as campaign:
        if not campaign.contexts:
            raise ValueError("the FSM has no reachable transitions")
        return campaign.run(
            RandomMultiFault(num_faults=num_faults, trials=trials, target_nets=target_nets, seed=seed)
        )
