"""Declarative experiment API: specs in, serializable results out.

``repro.api`` is the library front door of the SCFI reproduction.  Describe
an experiment as data (:class:`ExperimentSpec`), run it through a
:class:`Session`, get back an :class:`ExperimentResult` whose ``to_dict()``
round-trips through JSON -- the same contract the ``scfi run`` CLI and any
future distributed backend speak.
"""

from repro.api.registry import (
    SCENARIO_REGISTRY,
    available_engines,
    available_scenarios,
    register_scenario,
)
from repro.api.session import ExperimentResult, Session
from repro.api.spec import (
    SPEC_VERSION,
    CampaignSpec,
    ExperimentSpec,
    FsmSpec,
    ProtectSpec,
    ReportSpec,
    campaign_stage_keys,
    canonical_json,
    harden_stage_key,
    stage_key,
)

__all__ = [
    "SPEC_VERSION",
    "CampaignSpec",
    "ExperimentResult",
    "ExperimentSpec",
    "FsmSpec",
    "ProtectSpec",
    "ReportSpec",
    "SCENARIO_REGISTRY",
    "Session",
    "available_engines",
    "available_scenarios",
    "campaign_stage_keys",
    "canonical_json",
    "harden_stage_key",
    "register_scenario",
    "stage_key",
]
