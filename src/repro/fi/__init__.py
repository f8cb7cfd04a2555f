"""SYNFI-like fault injection and campaign analysis."""

from repro.fi.model import Fault, FaultEffect, FaultOutcome, Classification
from repro.fi.activate import activating_inputs
from repro.fi.injector import ScfiFaultInjector, UnprotectedFaultInjector, RedundantFaultInjector
from repro.fi.executor import CampaignResult, FaultCampaign
from repro.fi.scenarios import (
    ExhaustiveSingleFault,
    JobArrays,
    LaserSpot,
    MultiShotGlitch,
    RandomMultiFault,
    TemporalSingleFault,
    effect_sweep_scenarios,
    region_sweep_scenarios,
    scfi_fault_regions,
)
from repro.fi.behavioral import (
    BehavioralBitFlip,
    BehavioralCampaignResult,
    behavioral_fault_campaign,
)

__all__ = [
    "Fault",
    "FaultEffect",
    "FaultOutcome",
    "Classification",
    "activating_inputs",
    "ScfiFaultInjector",
    "UnprotectedFaultInjector",
    "RedundantFaultInjector",
    "CampaignResult",
    "FaultCampaign",
    "JobArrays",
    "ExhaustiveSingleFault",
    "TemporalSingleFault",
    "MultiShotGlitch",
    "RandomMultiFault",
    "LaserSpot",
    "BehavioralBitFlip",
    "effect_sweep_scenarios",
    "region_sweep_scenarios",
    "scfi_fault_regions",
    "behavioral_fault_campaign",
    "BehavioralCampaignResult",
]
