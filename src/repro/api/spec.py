"""Typed, serializable experiment specifications.

An :class:`ExperimentSpec` is the complete declarative description of one
SCFI experiment -- which FSM to protect (:class:`FsmSpec`), how to protect it
(:class:`ProtectSpec`), which fault campaign to run against the protected
netlist (:class:`CampaignSpec`) and what to report (:class:`ReportSpec`).
Every spec round-trips through plain JSON-able dicts (``to_dict`` /
``from_dict``) and has a stable :meth:`ExperimentSpec.content_hash`, so any
frontend -- the CLIs, the library :class:`~repro.api.session.Session`, a
future distributed scheduler -- can ship, persist and deduplicate experiments
as data instead of threading keyword arguments through call chains.

Scenario and engine names are checked when the spec is built: the scenario
against :mod:`repro.api.registry`, which also says which optional campaign
fields each built-in scenario takes, and the engine against
``FaultCampaign.ENGINES``.  So a malformed campaign fails to parse, before
anything is hardened or queued.  FSM names resolve through
:mod:`repro.fsmlib.registry` at *run* time, so a spec may name an FSM that is
registered after it was written.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

from repro.fi.executor import DEFAULT_ENGINE, ENGINE_INFO, FaultCampaign
from repro.fi.model import FaultEffect
from repro.fi.scenarios import FAULT_DURATIONS

#: Bumped whenever the on-disk spec format changes incompatibly.
SPEC_VERSION = 1

#: Valid fault-effect wire names ("flip", "stuck0", "stuck1").
EFFECT_NAMES = tuple(effect.value for effect in FaultEffect)


def canonical_json(data: Any) -> str:
    """The canonical JSON serialization used for hashing: sorted keys, no
    whitespace -- insensitive to dict insertion order by construction."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def stage_key(stage: str, inputs: Any) -> str:
    """SHA-256 input hash for one pipeline stage.

    Stage keys reuse the spec's canonical-JSON scheme and embed the stage
    name plus :data:`SPEC_VERSION`, so a future format bump invalidates every
    cached artifact at once without touching the stores.  They are *separate*
    digests from :meth:`ExperimentSpec.content_hash`, which is unchanged by
    the staged pipeline.
    """
    doc = {"stage": stage, "version": SPEC_VERSION, "inputs": inputs}
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list(value: Any, item) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(v, item) for v in value)


def _is_number(value: Any) -> bool:
    return (_is_int(value) or isinstance(value, float)) and not math.isnan(value)


#: The JSON kind each field annotation accepts: (predicate, description).
_KINDS: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    "int": (_is_int, "an integer"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "Optional[str]": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "Optional[int]": (lambda v: v is None or _is_int(v), "an integer or null"),
    "Optional[float]": (lambda v: v is None or _is_number(v), "a number or null"),
    "Optional[Tuple[str, ...]]": (lambda v: v is None or _is_list(v, str), "a string list or null"),
    "CampaignTarget": (
        lambda v: v is None or isinstance(v, str) or _is_list(v, str),
        "null, a region name or a list of net names",
    ),
    "Optional[Tuple[Tuple[int, str, str], ...]]": (
        lambda v: v is None or _is_list(v, (list, tuple)),
        "null or a list of [cycle, net, effect] triples",
    ),
}


def _check_types(spec) -> None:
    """Raise :class:`ValueError` unless every field of a spec section holds
    the JSON kind of its annotation (``True`` is not an integer)."""
    for f in fields(spec):
        accepts, description = _KINDS[f.type]
        value = getattr(spec, f.name)
        if not accepts(value):
            raise ValueError(
                f"{type(spec).__name__}.{f.name} must be {description}, got {value!r}"
            )


def _check_keys(cls, data: Any) -> None:
    """Raise :class:`ValueError` unless ``data`` is a JSON object whose keys
    are fields of ``cls``."""
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {data!r}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(map(str, set(data) - known))
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} keys: {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )


@dataclass(frozen=True)
class FsmSpec:
    """Which FSM the experiment protects.

    Exactly one source must be given: ``name`` resolves through the shared
    registry (:data:`repro.fsmlib.FSM_REGISTRY`), ``verilog`` carries inline
    SystemVerilog source so the spec stays self-contained when the FSM is not
    a registered benchmark.
    """

    name: Optional[str] = None
    verilog: Optional[str] = None

    def __post_init__(self) -> None:
        _check_types(self)
        if (self.name is None) == (self.verilog is None):
            raise ValueError("FsmSpec needs exactly one of 'name' or 'verilog'")

    def resolve(self):
        """Build the described :class:`~repro.fsm.model.Fsm`."""
        if self.name is not None:
            from repro.fsmlib.registry import get_fsm

            return get_fsm(self.name)
        from repro.rtl.verilog_parser import parse_fsm_verilog

        return parse_fsm_verilog(self.verilog)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "verilog": self.verilog}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FsmSpec":
        _check_keys(cls, data)
        return cls(name=data.get("name"), verilog=data.get("verilog"))


@dataclass(frozen=True)
class ProtectSpec:
    """How the FSM is hardened -- mirrors :class:`~repro.core.scfi.ScfiOptions`.

    Defaults match ``ScfiOptions`` (the library defaults), not the CLI
    defaults; the CLI adapters pass their flag values explicitly.
    """

    protection_level: int = 2
    error_bits: int = 3
    share_xors: bool = True
    repair_diffusion: bool = True

    def __post_init__(self) -> None:
        _check_types(self)
        if self.protection_level < 1:
            raise ValueError("protection_level must be >= 1")
        if self.error_bits < 0:
            raise ValueError("error_bits must be >= 0")

    def to_options(self, generate_verilog: bool = False):
        from repro.core.scfi import ScfiOptions

        return ScfiOptions(
            protection_level=self.protection_level,
            error_bits=self.error_bits,
            share_xors=self.share_xors,
            repair_diffusion=self.repair_diffusion,
            generate_verilog=generate_verilog,
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProtectSpec":
        _check_keys(cls, data)
        return cls(**data)


#: A campaign target: None (scenario default), a named region alias
#: ("diffusion" / "comb") or an explicit list of net names.
CampaignTarget = Union[None, str, Tuple[str, ...]]


@dataclass(frozen=True)
class CampaignSpec:
    """Which fault campaign to run, on which engine.

    ``scenario`` names an entry of
    :data:`repro.api.registry.SCENARIO_REGISTRY` ("exhaustive", "random",
    "effects", "regions", "bitflip", ...) and ``engine`` one of
    ``FaultCampaign.ENGINES``; omitting the engine selects
    :data:`~repro.fi.executor.DEFAULT_ENGINE`.  Both are checked on
    construction, after the per-field checks, together with the registry's
    rules for the scenario (:func:`~repro.api.registry.check_campaign`): an
    optional field the scenario does not take must stay at its default.  A
    spec breaking any of them fails to parse.
    ``target``/``effects``/``faults``/``trials``/``seed`` parameterize the
    scenario with the same defaults the ``scfi fi`` modes use, so spec-driven
    runs reproduce legacy counters bit for bit.  ``lane_width=None`` (the
    default) resolves to the engine's own default lane budget at run time
    (256 for the bignum engine, 4096 for ``parallel-numpy``); pin it
    explicitly for hash-stable specs.
    ``compare=True`` additionally replays the campaign on the cross-check
    engine and records whether the counters agree.

    Temporal campaigns span ``cycles`` clock edges per injection:
    ``fault_duration`` picks between a *transient* fault (active for one cycle
    only) and a *persistent* stuck-at held across the whole trace, while
    ``glitch_schedule`` -- a tuple of ``(cycle, net, effect)`` triples -- drives
    the multi-shot ``glitch`` scenario instead.  All three default to the
    classic single-cycle shape and are omitted from the serialized form at
    their defaults, so pre-temporal spec hashes are unchanged.
    """

    scenario: str = "exhaustive"
    target: CampaignTarget = None
    effects: Optional[Tuple[str, ...]] = None
    faults: int = 2
    trials: int = 1000
    seed: int = 0
    engine: str = DEFAULT_ENGINE
    lane_width: Optional[int] = None
    workers: int = 1
    pack_contexts: bool = True
    compare: bool = False
    cycles: int = 1
    fault_duration: str = "transient"
    glitch_schedule: Optional[Tuple[Tuple[int, str, str], ...]] = None
    spot_radius: Optional[float] = None
    spot_trials: Optional[int] = None

    def __post_init__(self) -> None:
        _check_types(self)
        if self.engine not in FaultCampaign.ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r} "
                f"(registered: {', '.join(FaultCampaign.ENGINES)})"
            )
        if self.effects is not None:
            object.__setattr__(self, "effects", tuple(self.effects))
            if not self.effects:
                raise ValueError(
                    "effects must be non-empty (omit the field for the "
                    "scenario default)"
                )
            unknown = sorted(set(self.effects) - set(EFFECT_NAMES))
            if unknown:
                raise ValueError(
                    f"unknown fault effects: {', '.join(unknown)} "
                    f"(known: {', '.join(EFFECT_NAMES)})"
                )
        if self.target is not None and not isinstance(self.target, str):
            object.__setattr__(self, "target", tuple(self.target))
        if self.faults < 1:
            raise ValueError("faults must be >= 1")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        if self.lane_width is not None and self.lane_width < 1:
            raise ValueError(
                f"lane_width must be an integer >= 1, got {self.lane_width!r} "
                "(every engine accepts any positive lane count; leave it None "
                "for the engine default)"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.cycles < 1:
            raise ValueError(f"cycles must be an integer >= 1, got {self.cycles!r}")
        if self.fault_duration not in FAULT_DURATIONS:
            raise ValueError(
                f"unknown fault_duration {self.fault_duration!r} "
                f"(known: {', '.join(FAULT_DURATIONS)})"
            )
        if self.glitch_schedule is not None:
            shots = []
            for entry in self.glitch_schedule:
                entry = tuple(entry)
                if len(entry) != 3:
                    raise ValueError(
                        f"glitch_schedule entries must be (cycle, net, effect) "
                        f"triples, got {entry!r}"
                    )
                cycle, net, effect = entry
                if not isinstance(cycle, int) or isinstance(cycle, bool) or cycle < 0:
                    raise ValueError(f"glitch cycle must be an integer >= 0, got {cycle!r}")
                if cycle >= self.cycles:
                    raise ValueError(
                        f"glitch cycle {cycle} is outside the {self.cycles}-cycle "
                        "trace (raise 'cycles')"
                    )
                if not isinstance(net, str) or not net:
                    raise ValueError(f"glitch net must be a non-empty net name, got {net!r}")
                if effect not in EFFECT_NAMES:
                    raise ValueError(
                        f"unknown glitch effect {effect!r} (known: {', '.join(EFFECT_NAMES)})"
                    )
                shots.append((cycle, net, effect))
            object.__setattr__(self, "glitch_schedule", tuple(shots))
        if self.spot_radius is not None and self.spot_radius <= 0:
            raise ValueError(f"spot_radius must be a number > 0, got {self.spot_radius!r}")
        if self.spot_trials is not None and self.spot_trials < 0:
            raise ValueError(f"spot_trials must be an integer >= 0, got {self.spot_trials!r}")
        # Imported here because the registry imports this module; importing
        # repro.api loads the registry first, so this is a dict lookup.
        from repro.api.registry import check_campaign

        check_campaign(self)

    def resolved_effects(self, default: Sequence[FaultEffect]) -> Tuple[FaultEffect, ...]:
        """The requested :class:`FaultEffect` tuple, or ``default`` when unset."""
        if self.effects is None:
            return tuple(default)
        return tuple(FaultEffect(name) for name in self.effects)

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["effects"] = list(self.effects) if self.effects is not None else None
        data["target"] = list(self.target) if isinstance(self.target, tuple) else self.target
        # Temporal fields appear only when they deviate from the classic
        # single-cycle shape, keeping pre-temporal content hashes stable.
        if self.cycles == 1:
            del data["cycles"]
        if self.fault_duration == "transient":
            del data["fault_duration"]
        if self.glitch_schedule is None:
            del data["glitch_schedule"]
        else:
            data["glitch_schedule"] = [list(shot) for shot in self.glitch_schedule]
        # Laser-spot fields likewise appear only when set, keeping pre-laser
        # content hashes stable.
        if self.spot_radius is None:
            del data["spot_radius"]
        if self.spot_trials is None:
            del data["spot_trials"]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        _check_keys(cls, data)
        return cls(**data)

    #: Fields that do not change *which* injections a campaign performs, only
    #: how they are executed or what is additionally replayed.  They are kept
    #: out of the campaign shape, so e.g. a worker-count change reuses the
    #: cached campaign counters (which are worker-independent by construction).
    EXECUTION_FIELDS = ("engine", "lane_width", "workers", "pack_contexts", "compare")

    def shape_dict(self) -> Dict[str, Any]:
        """The campaign's injection *shape*: scenario + parameters, minus the
        execution fields listed in :data:`EXECUTION_FIELDS`."""
        data = self.to_dict()
        for name in self.EXECUTION_FIELDS:
            data.pop(name, None)
        return data

    def lane_budget_id(self) -> Any:
        """The lane budget that shapes a campaign's batches (hashed into its
        campaign-stage key).

        A pinned ``lane_width`` is returned as-is; otherwise the engine's
        default budget is resolved from the executor's engine table.
        """
        if self.lane_width is not None:
            return self.lane_width
        return ENGINE_INFO[self.engine].default_lane_width


@dataclass(frozen=True)
class ReportSpec:
    """What the experiment result should carry beyond the raw counters."""

    keep_outcomes: bool = False
    include_area: bool = True
    include_timing: bool = False
    emit_verilog: bool = False

    def __post_init__(self) -> None:
        _check_types(self)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ReportSpec":
        _check_keys(cls, data)
        return cls(**data)


def harden_stage_key(fsm: "FsmSpec", protect: "ProtectSpec", emit_verilog: bool) -> str:
    """Input hash of the harden stage: FSM source + protection options +
    whether Verilog is generated (it shapes the hardening artifact)."""
    return stage_key("harden", {
        "fsm": fsm.to_dict(),
        "protect": protect.to_dict(),
        "emit_verilog": emit_verilog,
    })


def campaign_stage_keys(campaign: "CampaignSpec", keep_outcomes: bool, harden_key: str) -> str:
    """Input hash of the campaign stage for one campaign downstream of
    ``harden_key``.

    The key hashes an intermediate ``plan`` digest (harden key, campaign
    shape, lane budget and packing).  No plan artifact is stored under it any
    more; it stays in the chain so campaign and report keys keep their values
    and existing stores keep hitting.
    """
    plan = stage_key("plan", {
        "harden": harden_key,
        "shape": campaign.shape_dict(),
        "lane_width": campaign.lane_budget_id(),
        "pack_contexts": campaign.pack_contexts,
    })
    return stage_key("campaign", {
        "plan": plan,
        "engine": campaign.engine,
        "keep_outcomes": keep_outcomes,
    })


@dataclass(frozen=True)
class ExperimentSpec:
    """One complete experiment: harden -> campaign -> report.

    ``campaign=None`` describes a pure hardening run (the ``scfi harden``
    shape).  The spec is hashable content: :meth:`content_hash` is stable
    across dict ordering and across processes, so schedulers can deduplicate
    and result stores can key on it.
    """

    fsm: FsmSpec = field(default_factory=lambda: FsmSpec(name="formal_fsm"))
    protect: ProtectSpec = field(default_factory=ProtectSpec)
    campaign: Optional[CampaignSpec] = None
    report: ReportSpec = field(default_factory=ReportSpec)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SPEC_VERSION,
            "fsm": self.fsm.to_dict(),
            "protect": self.protect.to_dict(),
            "campaign": self.campaign.to_dict() if self.campaign is not None else None,
            "report": self.report.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Parse a spec document; a malformed one raises :class:`ValueError`
        naming the field.  A missing or null section takes its defaults."""
        if not isinstance(data, dict):
            raise ValueError(f"an experiment spec must be a JSON object, got {data!r}")
        data = dict(data)
        version = data.pop("version", SPEC_VERSION)
        if not _is_int(version) or version != SPEC_VERSION:
            raise ValueError(
                f"unsupported spec version {version!r} (this build reads {SPEC_VERSION})"
            )
        _check_keys(cls, data)
        fsm, protect, campaign, report = map(data.get, ("fsm", "protect", "campaign", "report"))
        return cls(
            fsm=FsmSpec.from_dict({} if fsm is None else fsm),
            protect=ProtectSpec.from_dict({} if protect is None else protect),
            campaign=None if campaign is None else CampaignSpec.from_dict(campaign),
            report=ReportSpec.from_dict({} if report is None else report),
        )

    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON form -- the spec's stable identity."""
        return hashlib.sha256(canonical_json(self.to_dict()).encode("utf-8")).hexdigest()

    def stage_hashes(self) -> Dict[str, Optional[str]]:
        """Per-stage input hashes for the incremental pipeline.

        Each stage's key embeds its upstream stage's key, so the keys compose
        into an invalidation chain ``harden -> campaign -> report``:

        * **harden** hashes the FSM source, the protection options and
          whether Verilog is emitted (it shapes the hardening artifact).
        * **campaign** (:func:`campaign_stage_keys`) adds the campaign
          *shape* -- scenario and injection parameters -- the resolved lane
          budget, context packing, the engine and ``keep_outcomes``.
        * **report** covers everything via :meth:`content_hash` plus the
          report options, so it keys the complete result document.

        Mutating a single spec field therefore invalidates exactly the stages
        downstream of it: a seed change recomputes campaign/report but reuses
        the hardened netlist; a worker-count change (counters are
        worker-independent by construction) recomputes only the report.
        ``campaign`` is ``None`` when the spec has no campaign section.
        """
        harden = harden_stage_key(self.fsm, self.protect, self.report.emit_verilog)
        campaign_key: Optional[str] = None
        if self.campaign is not None:
            campaign_key = campaign_stage_keys(self.campaign, self.report.keep_outcomes, harden)
        report = stage_key("report", {
            "harden": harden,
            "campaign": campaign_key,
            "report": self.report.to_dict(),
            "spec_hash": self.content_hash(),
        })
        return {"harden": harden, "campaign": campaign_key, "report": report}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        """Read a spec from a JSON file (the ``scfi run`` input format)."""
        with open(path) as handle:
            return cls.from_json(handle.read())

    def save(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    def with_overrides(self, **campaign_overrides) -> "ExperimentSpec":
        """A copy with campaign fields replaced (e.g. ``workers`` from the CLI)."""
        if not campaign_overrides:
            return self
        if self.campaign is None:
            raise ValueError("spec has no campaign section to override")
        return replace(self, campaign=replace(self.campaign, **campaign_overrides))
