"""Scenario resolution behind the declarative API.

A :class:`~repro.api.spec.CampaignSpec` names its scenario and engine as
strings.  The **scenario registry** maps a scenario name to a builder
``(spec, structure) -> {result_name: scenario}`` producing the pluggable
scenario objects of :mod:`repro.fi.scenarios`
(:class:`~repro.fi.scenarios.ExhaustiveSingleFault`,
:class:`~repro.fi.scenarios.RandomMultiFault`, the per-effect and per-region
sweeps, and :class:`~repro.fi.behavioral.BehavioralBitFlip` for the
behavioural FT1/FT2 bit-flip campaign).  The builders encode the ``scfi fi``
mode defaults (exhaustive/effects target the diffusion layer, random targets
the whole comb cloud, effects mode defaults to all three effects), so spec
replays are counter-identical to the matching ``scfi fi`` invocations.

Engine names are the keys of ``FaultCampaign.ENGINES``;
:func:`make_executor` builds the :class:`~repro.fi.executor.FaultCampaign`
a spec names.  Alternative executors plug in through
``Session(executor_factory=...)``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Tuple

from repro.core.structure import ScfiNetlist
from repro.fi.behavioral import BehavioralBitFlip
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

ScenarioBuilder = Callable[[CampaignSpec, ScfiNetlist], Mapping[str, object]]

_FLIP_ONLY = (FaultEffect.TRANSIENT_FLIP,)
_ALL_EFFECTS = tuple(FaultEffect)


def _reject_spot_fields(spec: CampaignSpec, name: str) -> None:
    """Laser-spot geometry only parameterizes the 'laser' scenario."""
    if spec.spot_radius is not None or spec.spot_trials is not None:
        raise ValueError(
            f"the {name!r} scenario does not take spot_radius/spot_trials; "
            "use scenario='laser'"
        )


def _single_cycle_only(spec: CampaignSpec, name: str) -> None:
    """Classic scenarios evaluate exactly one transition per injection."""
    if spec.cycles != 1:
        raise ValueError(
            f"the {name!r} scenario is single-cycle; use scenario='temporal' "
            f"(or 'glitch') for cycles={spec.cycles} traces"
        )
    if spec.glitch_schedule is not None:
        raise ValueError(
            f"the {name!r} scenario does not take a glitch_schedule; "
            "use scenario='glitch'"
        )
    _reject_spot_fields(spec, name)


def _build_exhaustive(spec: CampaignSpec, structure: ScfiNetlist) -> Dict[str, object]:
    _single_cycle_only(spec, "exhaustive")
    return {
        "exhaustive": ExhaustiveSingleFault(
            target_nets=spec.target if spec.target is not None else "diffusion",
            effects=spec.resolved_effects(_FLIP_ONLY),
        )
    }


def _build_random(spec: CampaignSpec, structure: ScfiNetlist) -> Dict[str, object]:
    _single_cycle_only(spec, "random")
    return {
        "random": RandomMultiFault(
            num_faults=spec.faults,
            trials=spec.trials,
            target_nets=spec.target if spec.target is not None else "comb",
            seed=spec.seed,
            effects=spec.resolved_effects(_FLIP_ONLY),
        )
    }


def _build_effects(spec: CampaignSpec, structure: ScfiNetlist) -> Dict[str, object]:
    _single_cycle_only(spec, "effects")
    return effect_sweep_scenarios(
        effects=spec.resolved_effects(_ALL_EFFECTS),
        target_nets=spec.target if spec.target is not None else "diffusion",
    )


def _build_regions(spec: CampaignSpec, structure: ScfiNetlist) -> Dict[str, object]:
    _single_cycle_only(spec, "regions")
    if spec.target is not None:
        raise ValueError("the 'regions' scenario sweeps the fixed FT1/FT2/FT3 "
                         "net groups; 'target' must stay unset")
    return region_sweep_scenarios(structure, effects=spec.resolved_effects(_FLIP_ONLY))


def _build_temporal(spec: CampaignSpec, structure: ScfiNetlist) -> Dict[str, object]:
    if spec.glitch_schedule is not None:
        raise ValueError("the 'temporal' scenario holds one fault per trace; "
                         "use scenario='glitch' for a glitch_schedule")
    _reject_spot_fields(spec, "temporal")
    return {
        "temporal": TemporalSingleFault(
            target_nets=spec.target if spec.target is not None else "diffusion",
            effects=spec.resolved_effects(_FLIP_ONLY),
            cycles=spec.cycles,
            duration=spec.fault_duration,
        )
    }


def _build_glitch(spec: CampaignSpec, structure: ScfiNetlist) -> Dict[str, object]:
    if not spec.glitch_schedule:
        raise ValueError("the 'glitch' scenario needs a glitch_schedule of "
                         "(cycle, net, effect) triples")
    if spec.target is not None:
        raise ValueError("the 'glitch' scenario targets the nets named in its "
                         "glitch_schedule; 'target' must stay unset")
    _reject_spot_fields(spec, "glitch")
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
    _single_cycle_only(spec, "bitflip")
    if spec.target is not None:
        raise ValueError("the 'bitflip' scenario draws over the behavioural "
                         "FT1/FT2 position groups; 'target' must stay unset")
    if spec.effects is not None and tuple(spec.effects) != ("flip",):
        raise ValueError("the 'bitflip' scenario models bit flips only")
    return {
        "bitflip": BehavioralBitFlip(
            num_faults=spec.faults,
            trials=spec.trials,
            seed=spec.seed,
        )
    }


def _build_laser(spec: CampaignSpec, structure: ScfiNetlist) -> Dict[str, object]:
    if spec.glitch_schedule is not None:
        raise ValueError("the 'laser' scenario derives its faults from the "
                         "spot geometry; use scenario='glitch' for a "
                         "glitch_schedule")
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


def register_scenario(name: str, builder: ScenarioBuilder, *, overwrite: bool = False) -> None:
    """Publish a scenario builder under ``name`` for spec resolution."""
    if not overwrite and name in SCENARIO_REGISTRY:
        raise ValueError(f"scenario {name!r} is already registered (pass overwrite=True)")
    SCENARIO_REGISTRY[name] = builder


def build_scenarios(spec: CampaignSpec, structure: ScfiNetlist) -> Mapping[str, object]:
    """Resolve a campaign spec's scenario name into runnable scenario objects."""
    try:
        builder = SCENARIO_REGISTRY[spec.scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {spec.scenario!r}; registered: "
            + ", ".join(sorted(SCENARIO_REGISTRY))
        ) from None
    return builder(spec, structure)


def make_executor(spec: CampaignSpec, structure: ScfiNetlist, keep_outcomes: bool) -> FaultCampaign:
    """Build the campaign executor a spec names."""
    return FaultCampaign(
        structure,
        engine=spec.engine,
        lane_width=spec.lane_width,
        workers=spec.workers,
        keep_outcomes=keep_outcomes,
        pack_contexts=spec.pack_contexts,
    )


def available_scenarios() -> List[str]:
    """Scenario names a spec may use."""
    return sorted(SCENARIO_REGISTRY)


def available_engines() -> Tuple[str, ...]:
    return FaultCampaign.ENGINES
