"""Section 6.4: formal fault analysis of the diffusion layer.

The paper synthesises a 14-transition FSM, protects it with SCFI at protection
level 2, and uses SYNFI to flip -- exhaustively -- every gate of the MDS
matrix multiplication for every state transition.  7644 single bit flips were
injected and 32 of them (0.42 %) hijacked the control flow.  This harness runs
the same experiment on our netlist: the absolute injection count differs (our
diffusion network is not gate-for-gate identical to the authors' synthesis
result), but the metric of interest -- the fraction of diffusion-layer faults
that reach another valid state undetected -- is directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi.executor import CampaignResult, FaultCampaign
from repro.fi.model import FaultEffect
from repro.fi.scenarios import ExhaustiveSingleFault
from repro.fsm.model import Fsm
from repro.fsmlib.formal import formal_analysis_fsm

#: The paper's reported numbers for the experiment.
PAPER_FORMAL_RESULT = {"injections": 7644, "hijacks": 32, "hijack_rate_percent": 0.42}


@dataclass
class FormalAnalysisResult:
    """Outcome of the formal diffusion-layer campaign."""

    campaign: CampaignResult
    protection_level: int
    transitions: int
    diffusion_gates: int

    @property
    def injections(self) -> int:
        return self.campaign.total_injections

    @property
    def hijacks(self) -> int:
        return self.campaign.hijacked

    @property
    def hijack_rate_percent(self) -> float:
        return 100.0 * self.campaign.hijack_rate

    def format(self) -> str:
        return (
            f"formal analysis (N={self.protection_level}): "
            f"{self.injections} single bit-flips into {self.diffusion_gates} diffusion gates "
            f"over {self.transitions} transitions -> {self.hijacks} hijacks "
            f"({self.hijack_rate_percent:.2f} %), paper: "
            f"{PAPER_FORMAL_RESULT['hijacks']}/{PAPER_FORMAL_RESULT['injections']} "
            f"({PAPER_FORMAL_RESULT['hijack_rate_percent']:.2f} %)"
        )


def run_formal_analysis(
    fsm: Optional[Fsm] = None,
    protection_level: int = 2,
    error_bits: int = 3,
    effects: Sequence[FaultEffect] = (FaultEffect.TRANSIENT_FLIP,),
    include_stuck_at: bool = False,
) -> FormalAnalysisResult:
    """Run the exhaustive diffusion-layer fault campaign of Section 6.4."""
    fsm = fsm or formal_analysis_fsm()
    if include_stuck_at:
        effects = (FaultEffect.TRANSIENT_FLIP, FaultEffect.STUCK_AT_0, FaultEffect.STUCK_AT_1)
    result = protect_fsm(
        fsm,
        ScfiOptions(
            protection_level=protection_level,
            error_bits=error_bits,
            generate_verilog=False,
        ),
    )
    with FaultCampaign(result.structure) as executor:
        campaign = executor.run(ExhaustiveSingleFault(effects=effects))
    return FormalAnalysisResult(
        campaign=campaign,
        protection_level=protection_level,
        transitions=campaign.transitions_evaluated,
        diffusion_gates=campaign.target_nets,
    )
