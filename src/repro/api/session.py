"""The :class:`Session` runner: executes :class:`~repro.api.spec.ExperimentSpec`.

A session resolves a declarative spec through the registries (FSMs in
:mod:`repro.fsmlib.registry`, scenarios in :mod:`repro.api.registry`) and
executes it as an explicit **staged pipeline**

    harden -> campaign -> report

where every stage declares its inputs as a content hash
(:meth:`~repro.api.spec.ExperimentSpec.stage_hashes`) and its output as a
serializable artifact.  Handing the session an
:class:`~repro.store.ArtifactStore` memoises each stage independently: a
changed :class:`~repro.api.spec.CampaignSpec` reuses the cached hardened
netlist, an unchanged spec replays the stored counters without compiling
anything, and a worker-count override recomputes nothing but the report.
Without a store the pipeline degenerates to the original monolithic run --
stage by stage, nothing cached.

Every campaign takes one path: its scenario builder lowers it to scenario
objects, which run on a :class:`~repro.fi.executor.FaultCampaign` that
:func:`~repro.api.registry.make_executor` builds on a campaign-stage miss.
``Session(fleet=...)`` shards every such executor on a caller-owned
:class:`~repro.fi.fleet.WorkerFleet` (the campaign service's long-lived
one), scoped by the harden-stage key so the fleet's workers keep each
hardened netlist compiled across runs.

Progress is reported through one optional ``(stage, detail)`` callback --
cache hits included (``("harden", "cache hit 3f2a…")``), and the executor's
``("campaign", name)`` before each scenario and ``("batch", (done, total))``
after each merged batch -- so long campaigns can drive CLIs, notebooks or
service frontends alike::

    from repro.api import ExperimentSpec, CampaignSpec, FsmSpec, Session
    from repro.store import open_store

    spec = ExperimentSpec(fsm=FsmSpec(name="traffic_light"),
                          campaign=CampaignSpec(scenario="exhaustive"))
    session = Session(store=open_store("~/.cache/scfi"))
    result = session.run(spec)          # cold: computes and stores each stage
    result = session.run(spec)          # warm: pure artifact replay
    print(result.cache["campaign"]["status"])   # "hit"

The evaluation harnesses (:mod:`repro.eval.security`,
:mod:`repro.eval.table1`, :mod:`repro.eval.figure8`) and both CLIs route
their campaign execution through this layer; a future multi-host scheduler
only needs to ship the JSON spec and share the store.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.api.registry import build_scenarios, make_executor
from repro.api.spec import (
    SPEC_VERSION,
    CampaignSpec,
    ExperimentSpec,
    FsmSpec,
    ProtectSpec,
    ReportSpec,
    campaign_stage_keys,
    harden_stage_key,
)
from repro.core.scfi import ScfiResult, protect_fsm
from repro.core.structure import ScfiNetlist
from repro.fi.executor import ENGINE_INFO, CampaignResult, FaultCampaign, ProgressCallback
from repro.store import CODEC_JSON, CODEC_PICKLE, ArtifactStore
from repro.synth.serialize import (
    ScfiCodecError,
    deserialize_scfi_result,
    serialize_scfi_result,
)

if TYPE_CHECKING:
    from repro.fi.fleet import WorkerFleet

#: Warm executors (and, with a store, hardened FSMs) one :class:`Session` keeps
#: across runs.  A campaign suite touches a few structures; ``run_table1``
#: walks many through one session, so the least recently used is dropped.
EXECUTOR_CACHE_LIMIT = 4


def _lru_put(cache: "OrderedDict", key, value) -> None:
    """Insert ``key`` as most recently used, evicting down to the limit."""
    cache.pop(key, None)
    while len(cache) >= EXECUTOR_CACHE_LIMIT:
        cache.popitem(last=False)
    cache[key] = value


def load_json_artifact(store: ArtifactStore, stage: str, key: str) -> Optional[Dict]:
    """Load + parse one JSON artifact; an unparsable payload is evicted and
    treated as a miss (the store already handled byte-level corruption)."""
    artifact = store.load(stage, key)
    if artifact is None:
        return None
    try:
        doc = json.loads(artifact.payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        store.delete(stage, key)
        return None
    if not isinstance(doc, dict):
        store.delete(stage, key)
        return None
    return doc


def _save_json_artifact(store: ArtifactStore, stage: str, key: str, doc: Dict) -> None:
    store.save(stage, key, json.dumps(doc, sort_keys=True).encode("utf-8"), CODEC_JSON)


@dataclass
class ExperimentResult:
    """Everything one spec execution produced.

    The live result objects (:class:`~repro.core.scfi.ScfiResult`,
    :class:`~repro.fi.executor.CampaignResult`) stay accessible for
    library callers; :meth:`to_dict` lowers the whole bundle -- spec, spec
    hash, hardening summary, campaign counters, engine provenance -- to plain
    JSON-able data for persistence and golden-snapshot comparisons.
    """

    spec: ExperimentSpec
    spec_hash: str
    scfi: ScfiResult
    campaigns: Dict[str, CampaignResult] = field(default_factory=dict)
    compare: Optional[Dict[str, Any]] = None
    timing: Optional[Dict[str, float]] = None
    #: Execution parameters overridden at run time (e.g. ``{"workers": 4}``
    #: from ``scfi run --workers``).  Kept out of ``spec``/``spec_hash`` --
    #: the hash identifies the submitted experiment, not how it was placed --
    #: and folded into :meth:`provenance` instead.
    overrides: Dict[str, Any] = field(default_factory=dict)
    #: Per-stage cache provenance: ``{stage: {"key": <input hash>, "status":
    #: "hit" | "miss" | "skipped" | "disabled"}}``.  ``skipped`` marks a
    #: campaign that ran uncached although a store was present (no harden key
    #: scoped it); ``disabled`` marks runs without a store.  This
    #: is what makes cached results auditable: a warm run is recognisable by
    #: its all-``hit`` record, never by silently absent work.
    cache: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def compare_agrees(self) -> bool:
        """True when no cross-check ran or the cross-check counters matched."""
        return self.compare is None or bool(self.compare["agree"])

    def provenance(self) -> Optional[Dict[str, Any]]:
        """How the campaign was executed (None for pure hardening runs).

        Records the *effective* engine and lane budget: run-time overrides
        applied, a ``lane_width`` of ``None`` resolved through the engine's
        default, and the engine's machine word width (``None`` for the
        arbitrary-precision bignum and scalar engines, 64 for ``parallel-numpy``).
        """
        campaign = self.spec.campaign
        if campaign is None:
            return None
        engine = self.overrides.get("engine", campaign.engine)
        info = ENGINE_INFO[engine]
        lane_width = campaign.lane_width
        if lane_width is None:
            lane_width = info.default_lane_width
        return {
            "scenario": campaign.scenario,
            "engine": engine,
            "engine_word_width": info.word_width,
            "lane_width": lane_width,
            "workers": self.overrides.get("workers", campaign.workers),
            "pack_contexts": campaign.pack_contexts,
        }

    def to_dict(self) -> Dict[str, Any]:
        harden = self.scfi.to_dict(include_area=self.spec.report.include_area)
        if self.timing is not None:
            harden["timing"] = dict(self.timing)
        data = {
            "version": SPEC_VERSION,
            "spec_hash": self.spec_hash,
            "spec": self.spec.to_dict(),
            "provenance": self.provenance(),
            "harden": harden,
            "campaigns": {name: result.to_dict() for name, result in self.campaigns.items()},
            "compare": self.compare,
        }
        if self.cache:
            data["cache"] = self.cache
        return data


class Session:
    """Resolves and executes experiment specs as a staged pipeline.

    ``progress`` receives ``(stage, detail)`` pairs as the run advances
    ("resolve", "harden", "campaign", "batch", "compare", "report", "done");
    memoised stages report ``"cache hit <key prefix>"`` details instead of
    silently skipping, and a ``"batch"`` detail is ``(done, total)``.
    ``store`` is an optional :class:`~repro.store.ArtifactStore` that
    persists each stage's artifact under its input hash; without one every
    run recomputes everything (the pre-incremental behaviour).  ``fleet`` is
    an optional :class:`~repro.fi.fleet.WorkerFleet` every campaign shards
    on, whatever its spec's ``workers``; the session never closes it.
    Between runs a session keeps only up to :data:`EXECUTOR_CACHE_LIMIT`
    warm executors, one per structure, execution params and cache scope, so
    repeated campaigns on one structure reuse its compiled netlists,
    lowering tables and verdict tables.  With a store it also keeps as many
    hardened FSMs, by harden-stage key, so a repeat harden returns the same
    structure.
    """

    def __init__(
        self,
        progress: Optional[ProgressCallback] = None,
        store: Optional[ArtifactStore] = None,
        fleet: Optional["WorkerFleet"] = None,
    ):
        self._progress = progress
        self.store = store
        self.fleet = fleet
        # (id(structure), params, cache scope) -> (structure, executor), least
        # recently used first.  Holding the structure keeps its id unique.
        self._executors: "OrderedDict[tuple, Tuple[ScfiNetlist, FaultCampaign]]" = OrderedDict()
        # Harden-stage key -> hardened FSM, least recently used first.
        self._hardened: "OrderedDict[str, ScfiResult]" = OrderedDict()

    def _emit(self, stage: str, detail: str = "") -> None:
        if self._progress is not None:
            self._progress(stage, detail)

    def _executor(self, campaign: CampaignSpec, structure: ScfiNetlist, keep_outcomes: bool,
                  cache_scope: Optional[str]):
        """The session's warm executor for this structure and execution params.

        On a fleet the fleet's size decides placement, so ``workers`` is no
        part of the key there."""
        workers = campaign.workers if self.fleet is None else None
        key = (id(structure), campaign.engine, campaign.lane_width, workers,
               keep_outcomes, campaign.pack_contexts, cache_scope)
        entry = self._executors.get(key)
        if entry is None:
            executor = make_executor(
                campaign, structure, keep_outcomes=keep_outcomes,
                fleet=self.fleet, scope=cache_scope,
            )
            entry = (structure, executor)
        _lru_put(self._executors, key, entry)
        return entry[1]

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def harden(
        self,
        fsm_spec: FsmSpec,
        protect: ProtectSpec,
        *,
        emit_verilog: bool = False,
        fsm=None,
        cache: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> ScfiResult:
        """The harden stage: produce (or replay) one hardened FSM.

        Keyed by :func:`~repro.api.spec.harden_stage_key` -- the FSM source
        as *described by the spec* (a registry name hashes as the name, the
        registry-resolution semantic the declarative API already commits to),
        the protection options and whether Verilog is generated.  On a store
        hit the pickled :class:`~repro.core.scfi.ScfiResult` is restored
        without resolving or compiling anything; ``fsm`` lets trusted library
        callers that already hold the resolved machine skip the registry
        lookup on a miss.  A hardened FSM the session already holds is a hit
        with no store read.  ``cache`` (when given) receives the stage's
        hit/miss record under ``"harden"``.
        """
        key = harden_stage_key(fsm_spec, protect, emit_verilog)
        record = {"key": key, "status": "disabled" if self.store is None else "miss"}
        if cache is not None:
            cache["harden"] = record
        scfi = None
        if self.store is not None:
            scfi = self._hardened.get(key)
            artifact = self.store.load("harden", key) if scfi is None else None
            if artifact is not None:
                try:
                    scfi = deserialize_scfi_result(artifact.payload)
                except ScfiCodecError:
                    # Produced by an incompatible build: evict and recompute.
                    self.store.delete("harden", key)
            if scfi is not None:
                record["status"] = "hit"
                self._emit("harden", f"cache hit {key[:12]}")
        if scfi is None:
            if fsm is None:
                fsm = fsm_spec.resolve()
            self._emit("harden", f"{fsm.name} N={protect.protection_level}")
            scfi = protect_fsm(fsm, protect.to_options(generate_verilog=emit_verilog))
            if self.store is not None:
                self.store.save("harden", key, serialize_scfi_result(scfi), CODEC_PICKLE)
        if self.store is not None:
            _lru_put(self._hardened, key, scfi)
        return scfi

    def run_campaign(
        self,
        structure: ScfiNetlist,
        campaign: CampaignSpec,
        report: Optional[ReportSpec] = None,
        *,
        cache_scope: Optional[str] = None,
        cache: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> Dict[str, CampaignResult]:
        """The campaign stage against an already-hardened netlist.

        This is the seam the evaluation harnesses use: they hold a
        :class:`~repro.core.structure.ScfiNetlist` already and only need the
        scenario/engine resolution plus execution, without re-hardening.

        ``cache_scope`` is the upstream (harden-stage) input hash; it scopes
        the campaign key to the netlist the counters were measured on, so
        memoisation only engages when both a store and a scope are present.
        On a campaign-stage hit the stored counters are replayed without
        building an executor.  ``cache`` (when given) receives the
        ``"campaign"`` hit/miss record.
        """
        report = report or ReportSpec()
        # Resolve the scenario first: spec validation behaves identically on
        # cold and warm runs.
        scenarios = build_scenarios(campaign, structure)

        campaign_key = None
        if self.store is not None and cache_scope is not None:
            campaign_key = campaign_stage_keys(campaign, report.keep_outcomes, cache_scope)
        cached = self.store is not None and campaign_key is not None
        record = {
            "key": campaign_key,
            "status": "disabled" if self.store is None else ("miss" if cached else "skipped"),
        }
        if cache is not None:
            cache["campaign"] = record

        if cached:
            doc = load_json_artifact(self.store, "campaign", campaign_key)
            if doc is not None:
                try:
                    results = {
                        name: CampaignResult.from_dict(entry)
                        for name, entry in doc["results"].items()
                    }
                except (KeyError, TypeError, ValueError):
                    self.store.delete("campaign", campaign_key)
                else:
                    record["status"] = "hit"
                    self._emit("campaign", f"cache hit {campaign_key[:12]}")
                    return results

        # Leaving the block closes the executor, which stops an owned
        # workers>1 fleet; a reused executor starts a new fleet on its next
        # sharded run.  A borrowed fleet keeps running.
        with self._executor(campaign, structure, report.keep_outcomes, cache_scope) as executor:
            results = executor.run_sweep(scenarios, self._progress)
        if cached:
            _save_json_artifact(
                self.store,
                "campaign",
                campaign_key,
                {"results": {name: result.to_dict() for name, result in results.items()}},
            )
        return results

    # ------------------------------------------------------------------
    def run(
        self,
        spec: ExperimentSpec,
        *,
        fsm=None,
        workers: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> ExperimentResult:
        """Execute one spec end to end through the staged pipeline.

        ``workers`` overrides the campaign's worker count and ``engine`` the
        evaluation engine (the ``scfi run --workers``/``--engine`` escape
        hatches; classification counters are worker-count and engine
        independent by construction).  Overrides never enter the spec or its
        hash -- ``spec_hash`` identifies the submitted experiment while
        :meth:`ExperimentResult.provenance` records the effective execution
        parameters -- but they do enter the *stage keys*, which always
        describe the effective pipeline (an engine override addresses that
        engine's campaign artifact).  ``fsm`` lets trusted library callers
        that already hold the resolved :class:`~repro.fsm.model.Fsm` skip the
        registry lookup; the spec must still describe the same machine, since
        it is what gets hashed and persisted.
        """
        spec_hash = spec.content_hash()
        overrides: Dict[str, Any] = {}
        effective = spec.campaign
        if workers is not None and effective is not None and workers != effective.workers:
            overrides["workers"] = workers
            effective = spec.with_overrides(workers=workers).campaign
        if engine is not None and effective is not None and engine != effective.engine:
            overrides["engine"] = engine
            effective = replace(effective, engine=engine)
        effective_spec = replace(spec, campaign=effective) if overrides else spec
        keys = effective_spec.stage_hashes()
        store = self.store
        cache: Dict[str, Dict[str, Any]] = {}

        self._emit("resolve", spec.fsm.name or "<inline verilog>")

        # Report-stage artifact: the complete result document.  A hit spares
        # the derived sections (timing analysis, compare cross-check); the
        # primary sections are still restored through their own stages below,
        # which is what keeps the live result objects available to callers.
        report_record = {
            "key": keys["report"],
            "status": "disabled" if store is None else "miss",
        }
        report_doc = None
        if store is not None:
            report_doc = load_json_artifact(store, "report", keys["report"])
            if report_doc is not None:
                report_record["status"] = "hit"
                self._emit("report", f"cache hit {keys['report'][:12]}")

        scfi = self.harden(
            spec.fsm,
            spec.protect,
            emit_verilog=spec.report.emit_verilog,
            fsm=fsm,
            cache=cache,
        )
        result = ExperimentResult(
            spec=spec, spec_hash=spec_hash, scfi=scfi, overrides=overrides, cache=cache
        )

        if spec.report.include_timing:
            stored_timing = (
                report_doc.get("harden", {}).get("timing") if report_doc else None
            )
            if stored_timing is not None:
                result.timing = dict(stored_timing)
            else:
                from repro.netlist.timing import TimingAnalyzer

                timing = TimingAnalyzer(scfi.structure.netlist).analyze()
                result.timing = {
                    "min_clock_period_ps": timing.min_clock_period_ps,
                    "max_frequency_mhz": timing.max_frequency_mhz,
                }

        campaign = effective
        if campaign is not None:
            result.campaigns = self.run_campaign(
                scfi.structure,
                campaign,
                report=spec.report,
                cache_scope=keys["harden"],
                cache=cache,
            )
            if campaign.compare:
                stored_compare = report_doc.get("compare") if report_doc else None
                if stored_compare is not None:
                    result.compare = stored_compare
                    self._emit("compare", f"cache hit {keys['report'][:12]}")
                else:
                    result.compare = self._cross_check(
                        scfi.structure, campaign, result.campaigns
                    )

        cache["report"] = report_record
        if store is not None and report_record["status"] != "hit":
            doc = result.to_dict()
            # The cache record describes *this* execution, not the artifact.
            doc.pop("cache", None)
            _save_json_artifact(store, "report", keys["report"], doc)
        self._emit("done", spec_hash[:12])
        return result

    def _cross_check(
        self,
        structure: ScfiNetlist,
        campaign: CampaignSpec,
        results: Dict[str, CampaignResult],
    ) -> Dict[str, Any]:
        """Replay the campaign on the cross-check engine and diff the counters.

        The oracle always runs single-process, so a sharded run's merge is
        cross-checked along with the engine.  The oracle replay is
        deliberately *uncached* (no ``cache_scope``): a cross-check that
        replayed stored counters against stored counters would verify
        nothing.  The verdict is *recorded*, not raised: frontends decide
        whether a divergence is fatal (the CLI exits non-zero).
        """
        oracle_engine = "parallel" if campaign.engine == "scalar" else "scalar"
        oracle_spec = replace(
            campaign, engine=oracle_engine, workers=1, compare=False
        )
        self._emit("compare", oracle_engine)
        references = self.run_campaign(structure, oracle_spec)
        scenarios: Dict[str, Any] = {}
        agree = True
        for name, reference in references.items():
            matches = reference.counters() == results[name].counters()
            agree = agree and matches
            scenarios[name] = {
                "agree": matches,
                "engine_counters": list(results[name].counters()),
                "oracle_counters": list(reference.counters()),
            }
        return {
            "engine": campaign.engine,
            "oracle_engine": oracle_engine,
            "agree": agree,
            "scenarios": scenarios,
        }
