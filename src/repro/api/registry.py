"""Scenario resolution behind the declarative API.

A :class:`~repro.api.spec.CampaignSpec` names its scenario and engine as
strings.  The **scenario registry** maps a scenario name to a builder
``(spec, structure) -> {result_name: scenario}`` producing the pluggable
scenario objects of :mod:`repro.fi.scenarios`
(:class:`~repro.fi.scenarios.ExhaustiveSingleFault`,
:class:`~repro.fi.scenarios.RandomMultiFault`, the per-effect and per-region
sweeps, and :class:`~repro.fi.behavioral.BehavioralBitFlip` for the
behavioural FT1/FT2 bit-flip campaign).  A ``None`` target takes the
scenario's own default (exhaustive/effects/temporal target the diffusion
layer, random the whole comb cloud) and effects mode defaults to all three
effects, so spec replays are counter-identical to the matching ``scfi fi``
invocations.

The registry is also the one place that says which optional spec fields
each built-in scenario takes (:data:`SCENARIO_FIELDS`) and its value rules;
:func:`check_campaign` applies them when a ``CampaignSpec`` is built, so the
builders run only on specs that already passed.  Scenarios added through
:func:`register_scenario` get only the name check.

Engine names are the keys of ``FaultCampaign.ENGINES``;
:func:`make_executor` builds the :class:`~repro.fi.executor.FaultCampaign`
a spec names, on the caller's worker fleet when it is given one.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.structure import ScfiNetlist
from repro.fi.model import FaultEffect
from repro.fi.executor import FaultCampaign
from repro.fi.scenarios import (
    ExhaustiveSingleFault,
    LaserSpot,
    MultiShotGlitch,
    RandomMultiFault,
    TemporalSingleFault,
    effect_sweep_scenarios,
    region_sweep_scenarios,
)
from repro.api.spec import CampaignSpec

if TYPE_CHECKING:
    from repro.fi.fleet import WorkerFleet

ScenarioBuilder = Callable[[CampaignSpec, ScfiNetlist], Mapping[str, object]]

_FLIP_ONLY = (FaultEffect.TRANSIENT_FLIP,)
_ALL_EFFECTS = tuple(FaultEffect)


def _build_exhaustive(spec: CampaignSpec, structure: ScfiNetlist) -> Dict[str, object]:
    return {
        "exhaustive": ExhaustiveSingleFault(
            target_nets=spec.target,
            effects=spec.resolved_effects(_FLIP_ONLY),
        )
    }


def _build_random(spec: CampaignSpec, structure: ScfiNetlist) -> Dict[str, object]:
    return {
        "random": RandomMultiFault(
            num_faults=spec.faults,
            trials=spec.trials,
            target_nets=spec.target,
            seed=spec.seed,
            effects=spec.resolved_effects(_FLIP_ONLY),
        )
    }


def _build_effects(spec: CampaignSpec, structure: ScfiNetlist) -> Dict[str, object]:
    return effect_sweep_scenarios(
        effects=spec.resolved_effects(_ALL_EFFECTS),
        target_nets=spec.target,
    )


def _build_regions(spec: CampaignSpec, structure: ScfiNetlist) -> Dict[str, object]:
    return region_sweep_scenarios(structure, effects=spec.resolved_effects(_FLIP_ONLY))


def _build_temporal(spec: CampaignSpec, structure: ScfiNetlist) -> Dict[str, object]:
    return {
        "temporal": TemporalSingleFault(
            target_nets=spec.target,
            effects=spec.resolved_effects(_FLIP_ONLY),
            cycles=spec.cycles,
            duration=spec.fault_duration,
        )
    }


def _build_glitch(spec: CampaignSpec, structure: ScfiNetlist) -> Dict[str, object]:
    return {
        "glitch": MultiShotGlitch(
            glitches=tuple(
                (cycle, net, FaultEffect(effect))
                for cycle, net, effect in spec.glitch_schedule
            ),
            cycles=spec.cycles,
        )
    }


def _build_bitflip(spec: CampaignSpec, structure: ScfiNetlist) -> Dict[str, object]:
    from repro.fi.behavioral import BehavioralBitFlip  # loads only for bitflip campaigns

    return {
        "bitflip": BehavioralBitFlip(
            num_faults=spec.faults,
            trials=spec.trials,
            seed=spec.seed,
        )
    }


def _build_laser(spec: CampaignSpec, structure: ScfiNetlist) -> Dict[str, object]:
    return {
        "laser": LaserSpot(
            spot_radius=spec.spot_radius if spec.spot_radius is not None else 1.5,
            spot_trials=spec.spot_trials if spec.spot_trials is not None else 100,
            target_nets=spec.target,
            seed=spec.seed,
            effects=spec.resolved_effects(_FLIP_ONLY),
            cycles=spec.cycles,
            duration=spec.fault_duration if spec.cycles > 1 else "persistent",
        )
    }


#: name -> scenario builder.  Extend via :func:`register_scenario`.
SCENARIO_REGISTRY: Dict[str, ScenarioBuilder] = {
    "exhaustive": _build_exhaustive,
    "random": _build_random,
    "effects": _build_effects,
    "regions": _build_regions,
    "temporal": _build_temporal,
    "glitch": _build_glitch,
    "bitflip": _build_bitflip,
    "laser": _build_laser,
}

#: The optional :class:`CampaignSpec` fields each built-in scenario takes.
#: Setting any other optional field away from its default is an error when
#: the spec is built (:func:`check_campaign`).
SCENARIO_FIELDS: Dict[str, Tuple[str, ...]] = {
    "exhaustive": ("target", "effects"),
    "random": ("target", "effects"),
    "effects": ("target", "effects"),
    "regions": ("effects",),
    "temporal": ("target", "effects", "cycles", "fault_duration"),
    "glitch": ("cycles", "glitch_schedule"),
    "bitflip": ("effects",),
    "laser": ("target", "effects", "cycles", "fault_duration", "spot_radius", "spot_trials"),
}

#: Every optional field with its default.
_OPTIONAL_DEFAULTS = {
    f.name: f.default
    for f in fields(CampaignSpec)
    if f.name in ("target", "effects", "cycles", "fault_duration", "glitch_schedule",
                  "spot_radius", "spot_trials")
}


def check_campaign(spec: CampaignSpec) -> None:
    """Raise :class:`ValueError` unless ``spec`` names a registered scenario
    and, for a built-in one, sets only the optional fields it takes: a
    ``glitch`` campaign needs a schedule and ``bitflip`` flips bits only.

    ``CampaignSpec`` calls this on construction, so a bad campaign fails
    before anything is hardened or queued.
    """
    if spec.scenario not in SCENARIO_REGISTRY:
        raise ValueError(
            f"unknown scenario {spec.scenario!r}; registered: "
            + ", ".join(sorted(SCENARIO_REGISTRY))
        )
    takes = SCENARIO_FIELDS.get(spec.scenario)
    if takes is None:  # added through register_scenario: the name is all we know
        return
    for name, default in _OPTIONAL_DEFAULTS.items():
        if name not in takes and getattr(spec, name) != default:
            raise ValueError(
                f"the {spec.scenario!r} scenario does not take {name!r} "
                f"(takes: {', '.join(takes)})"
            )
    if spec.scenario == "glitch" and not spec.glitch_schedule:
        raise ValueError("the 'glitch' scenario needs a glitch_schedule of "
                         "(cycle, net, effect) triples")
    if spec.scenario == "bitflip" and spec.effects not in (None, ("flip",)):
        raise ValueError("the 'bitflip' scenario models bit flips only: "
                         "effects must be ['flip'] or unset")


def register_scenario(name: str, builder: ScenarioBuilder, *, overwrite: bool = False) -> None:
    """Publish a scenario builder under ``name`` for spec resolution."""
    if not overwrite and name in SCENARIO_REGISTRY:
        raise ValueError(f"scenario {name!r} is already registered (pass overwrite=True)")
    SCENARIO_REGISTRY[name] = builder
    SCENARIO_FIELDS.pop(name, None)


def build_scenarios(spec: CampaignSpec, structure: ScfiNetlist) -> Mapping[str, object]:
    """Resolve a campaign spec's scenario name into runnable scenario objects."""
    return SCENARIO_REGISTRY[spec.scenario](spec, structure)


def make_executor(
    spec: CampaignSpec,
    structure: ScfiNetlist,
    keep_outcomes: bool,
    fleet: Optional["WorkerFleet"] = None,
    scope: Optional[str] = None,
) -> FaultCampaign:
    """Build the campaign executor a spec names, on ``fleet`` when given
    (``scope`` is the harden-stage key that names the netlist there)."""
    return FaultCampaign(
        structure,
        engine=spec.engine,
        lane_width=spec.lane_width,
        workers=spec.workers,
        keep_outcomes=keep_outcomes,
        pack_contexts=spec.pack_contexts,
        fleet=fleet,
        scope=scope,
    )


def available_scenarios() -> List[str]:
    """Scenario names a spec may use."""
    return sorted(SCENARIO_REGISTRY)


def available_engines() -> Tuple[str, ...]:
    return FaultCampaign.ENGINES
