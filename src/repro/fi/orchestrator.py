"""Compatibility facade for the split orchestrator modules.

The historical ``repro.fi.orchestrator`` module grew past 1900 lines and was
split along the array-IR boundary into three modules:

* :mod:`repro.fi.scenarios` -- the scenario dataclasses, the grouped
  :class:`JobArrays` IR they lower into, and the sweep helpers;
* :mod:`repro.fi.planner` -- the cached lane-assignment plan
  (:class:`PlannedBatch`/:class:`CampaignPlan`); and
* :mod:`repro.fi.executor` -- :class:`FaultCampaign` itself, the engines'
  dispatch logic and the worker-pool wire formats.

Every public (and pickle-relevant private) name is re-exported here, so
``from repro.fi.orchestrator import FaultCampaign`` and friends keep working
unchanged.
"""

from __future__ import annotations

from repro.fi.scenarios import (
    EVERY_CYCLE,
    FAULT_DURATIONS,
    ExhaustiveSingleFault,
    InjectionJob,
    JobArrays,
    LaserSpot,
    MultiShotGlitch,
    RandomMultiFault,
    TemporalSingleFault,
    _EFFECT_MODES,
    _MODE_EFFECTS,
    effect_sweep_scenarios,
    region_sweep_scenarios,
    scfi_fault_regions,
    transition_contexts,
)
from repro.fi.planner import (
    PLAN_CACHE_LIMIT,
    PLAN_CACHE_MAX_JOBS,
    CampaignPlan,
    PlannedBatch,
)
from repro.fi.executor import (
    DEFAULT_ENGINE,
    DEFAULT_LANE_WIDTH,
    DEFAULT_NUMPY_LANE_WIDTH,
    ENGINE_INFO,
    CampaignResult,
    EngineInfo,
    FaultCampaign,
    _CLASSIFICATIONS,
    _worker_init,
    _worker_run_batch,
    _worker_run_scalar,
)

__all__ = [
    "DEFAULT_ENGINE",
    "DEFAULT_LANE_WIDTH",
    "DEFAULT_NUMPY_LANE_WIDTH",
    "ENGINE_INFO",
    "EVERY_CYCLE",
    "FAULT_DURATIONS",
    "PLAN_CACHE_LIMIT",
    "PLAN_CACHE_MAX_JOBS",
    "CampaignPlan",
    "CampaignResult",
    "EngineInfo",
    "ExhaustiveSingleFault",
    "FaultCampaign",
    "InjectionJob",
    "JobArrays",
    "LaserSpot",
    "MultiShotGlitch",
    "PlannedBatch",
    "RandomMultiFault",
    "TemporalSingleFault",
    "effect_sweep_scenarios",
    "region_sweep_scenarios",
    "scfi_fault_regions",
    "transition_contexts",
]
