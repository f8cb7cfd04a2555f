"""Section 6.3: the probabilistic security argument.

The paper bounds the success probability of an attacker who injects ``N``
faults into the inputs of the hardened next-state function by

    P = (|S_Ne| + |E|) / (k * 2^(32 - (|S_Ne| + |E|)))

i.e. the number of valid output patterns divided by the size of the space a
diffused fault lands in.  This module evaluates that analytic model for a
hardened FSM and cross-checks it with Monte-Carlo campaigns from
:mod:`repro.fi.behavioral` as well as with gate-level per-target-region
sweeps executed on the bit-parallel campaign layer
(:func:`structural_fault_target_sweep`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.api.session import Session
from repro.api.spec import CampaignSpec
from repro.core.hardened import HardenedFsm
from repro.core.structure import ScfiNetlist
from repro.fi.model import FaultEffect
from repro.fi.executor import DEFAULT_ENGINE, CampaignResult
from repro.fi.behavioral import (
    TARGET_CONTROL,
    TARGET_DIFFUSION,
    TARGET_PHI_INPUT,
    TARGET_STATE,
    BehavioralCampaignResult,
    behavioral_fault_campaign,
)
from repro.core.layout import BLOCK_BITS


@dataclass
class SecurityModel:
    """Analytic security parameters of one hardened FSM."""

    protection_level: int
    state_width: int
    error_bits: int
    num_blocks: int
    num_valid_states: int

    @property
    def valid_output_patterns(self) -> int:
        """|S_Ne| + |E|: output patterns an attack must hit to stay undetected."""
        return self.num_valid_states

    @property
    def analytic_success_probability(self) -> float:
        """The paper's P for faults on the phi_FH inputs."""
        protected_bits = self.state_width + self.error_bits * self.num_blocks
        space = self.num_blocks * (2 ** (BLOCK_BITS - min(BLOCK_BITS - 1, protected_bits)))
        return self.valid_output_patterns / space

    @property
    def minimum_faults_for_hijack(self) -> int:
        """FT1/FT2 require at least N bit flips to reach another valid codeword."""
        return self.protection_level


def security_model(hardened: HardenedFsm) -> SecurityModel:
    """Extract the analytic security parameters from a hardened FSM."""
    return SecurityModel(
        protection_level=hardened.protection_level,
        state_width=hardened.state_width,
        error_bits=hardened.layout.error_bits_per_block,
        num_blocks=hardened.layout.num_blocks,
        num_valid_states=len(hardened.state_encoding),
    )


def attack_success_probability(
    hardened: HardenedFsm,
    num_faults: int,
    trials: int = 2000,
    targets: Sequence[str] = (TARGET_PHI_INPUT, TARGET_DIFFUSION),
    seed: int = 0,
) -> Dict[str, float]:
    """Empirical vs analytic success probability for ``num_faults`` faults on
    the hardened next-state function (the paper's Section 6.3 experiment)."""
    campaign: BehavioralCampaignResult = behavioral_fault_campaign(
        hardened, num_faults, trials, targets=targets, seed=seed
    )
    model = security_model(hardened)
    return {
        "empirical_hijack_rate": campaign.hijack_rate,
        "empirical_detection_rate": campaign.detection_rate,
        "analytic_bound": model.analytic_success_probability,
        "num_faults": float(num_faults),
        "trials": float(trials),
    }


def structural_fault_target_sweep(
    structure: ScfiNetlist,
    effects: Sequence[FaultEffect] = (FaultEffect.TRANSIENT_FLIP,),
    engine: str = DEFAULT_ENGINE,
    lane_width: Optional[int] = None,
    workers: int = 1,
    store=None,
    cache_scope=None,
) -> Dict[str, CampaignResult]:
    """Gate-level companion of :func:`fault_target_sweep` (Section 6.4 style).

    Runs one exhaustive single-fault campaign per structural target region
    (FT1 state register, FT2 encoded control inputs, FT3 selected control
    word and diffusion internals) and returns the per-region classification
    counters.  These sweeps are exactly the few-nets/many-transitions shape
    the context-batched lane packing was built for: every pass mixes
    transition contexts, so the bit-parallel engines fill their
    ``lane_width`` budget (the engine default when ``None``) instead of
    paying one pass per edge;
    ``engine="scalar"`` remains the cross-check oracle.  ``workers=N``
    dispatches the planned batches of every region to a process pool (shared
    across the regions of the sweep); counters are bit-identical to the
    single-process run.

    This is a compatibility shim over the declarative API: the parameters are
    lowered to a :class:`~repro.api.spec.CampaignSpec` (scenario
    ``"regions"``) and executed through
    :meth:`~repro.api.session.Session.run_campaign`.  ``store`` (an
    :class:`~repro.store.ArtifactStore`) plus ``cache_scope`` (the harden-stage
    input hash of the hardening that produced ``structure``, see
    :func:`repro.api.spec.harden_stage_key`) memoise the sweep's
    counters across repeat runs; both default to off.
    """
    campaign = CampaignSpec(
        scenario="regions",
        effects=tuple(effect.value for effect in effects),
        engine=engine,
        lane_width=lane_width,
        workers=workers,
    )
    return Session(store=store).run_campaign(
        structure, campaign, cache_scope=cache_scope
    )


def fault_target_sweep(
    hardened: HardenedFsm,
    num_faults: int,
    trials: int = 2000,
    seed: int = 0,
) -> Dict[str, BehavioralCampaignResult]:
    """Compare hijack rates per fault target (FT1: state, FT2: control, FT3: diffusion)."""
    return {
        "FT1_state": behavioral_fault_campaign(
            hardened, num_faults, trials, targets=(TARGET_STATE,), seed=seed
        ),
        "FT2_control": behavioral_fault_campaign(
            hardened, num_faults, trials, targets=(TARGET_CONTROL,), seed=seed + 1
        ),
        "FT3_phi_input": behavioral_fault_campaign(
            hardened, num_faults, trials, targets=(TARGET_PHI_INPUT,), seed=seed + 2
        ),
        "FT3_diffusion": behavioral_fault_campaign(
            hardened, num_faults, trials, targets=(TARGET_DIFFUSION,), seed=seed + 3
        ),
    }
