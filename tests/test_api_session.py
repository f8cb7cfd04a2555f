"""Session execution: registry resolution, engine equality, serializable results."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import (
    CampaignSpec,
    ExperimentSpec,
    FsmSpec,
    ProtectSpec,
    ReportSpec,
    Session,
    available_engines,
    available_scenarios,
    register_scenario,
)
from repro.api.registry import SCENARIO_REGISTRY, make_executor
from repro.core.scfi import ScfiOptions, protect_fsm
from repro.fi.executor import DEFAULT_ENGINE, FaultCampaign
from repro.fi.scenarios import ExhaustiveSingleFault
from repro.fsm.encoding import binary_encoding
from repro.fsmlib import FSM_REGISTRY, register_fsm, traffic_light_fsm
from repro.rtl.verilog_writer import emit_fsm

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def exhaustive_spec(**campaign) -> ExperimentSpec:
    return ExperimentSpec(
        fsm=FsmSpec(name="traffic_light"),
        protect=ProtectSpec(protection_level=2),
        campaign=CampaignSpec(**{"scenario": "exhaustive", **campaign}),
    )


class TestSessionRun:
    def test_counters_match_legacy_invocation_on_every_engine(self):
        """Spec-driven runs reproduce the direct-FaultCampaign counters bit
        for bit on all three engines (the acceptance criterion)."""
        legacy_scfi = protect_fsm(
            traffic_light_fsm(), ScfiOptions(protection_level=2, generate_verilog=False)
        )
        for engine in FaultCampaign.ENGINES:
            with FaultCampaign(legacy_scfi.structure, engine=engine) as legacy:
                reference = legacy.run(ExhaustiveSingleFault())
            result = Session().run(exhaustive_spec(engine=engine))
            assert result.campaigns["exhaustive"].counters() == reference.counters()
            assert result.campaigns["exhaustive"].total_injections == reference.total_injections

    def test_progress_callback_sees_every_stage(self):
        events = []
        Session(progress=lambda stage, detail: events.append(stage)).run(exhaustive_spec())
        assert events[0] == "resolve"
        assert "harden" in events
        assert "campaign" in events
        assert events[-1] == "done"

    def test_spec_hash_recorded(self):
        spec = exhaustive_spec()
        result = Session().run(spec)
        assert result.spec_hash == spec.content_hash()

    def test_workers_override_stays_out_of_spec_and_hash(self):
        """A runtime workers override is provenance, not experiment identity:
        the submitted spec and its hash must not drift."""
        spec = exhaustive_spec()
        result = Session().run(spec, workers=2)
        assert result.spec == spec
        assert result.spec_hash == spec.content_hash()
        assert result.overrides == {"workers": 2}
        assert result.provenance()["workers"] == 2
        baseline = Session().run(spec)
        assert baseline.overrides == {}
        assert result.campaigns["exhaustive"].counters() == baseline.campaigns[
            "exhaustive"
        ].counters()

    def test_bitflip_scenario_runs_on_the_campaign_path(self):
        spec = ExperimentSpec(
            fsm=FsmSpec(name="traffic_light"),
            campaign=CampaignSpec(scenario="bitflip", faults=1, trials=25, seed=3),
        )
        result = Session().run(spec)
        assert set(result.campaigns) == {"bitflip"}
        assert sum(result.campaigns["bitflip"].counters()) == 25
        assert result.provenance()["scenario"] == "bitflip"
        assert result.provenance()["engine"] == DEFAULT_ENGINE
        assert not hasattr(result, "behavioral")
        assert "behavioral" not in result.to_dict()

    def test_compare_records_agreement(self):
        result = Session().run(exhaustive_spec(compare=True))
        assert result.compare is not None
        assert result.compare["agree"] is True
        assert result.compare_agrees
        assert result.compare["oracle_engine"] == "scalar"
        verdict = result.compare["scenarios"]["exhaustive"]
        assert verdict["engine_counters"] == verdict["oracle_counters"]

    def test_inline_verilog_fsm_resolves(self, traffic_light):
        source = emit_fsm(traffic_light, binary_encoding(traffic_light.states), 2)
        spec = ExperimentSpec(
            fsm=FsmSpec(verilog=source),
            campaign=CampaignSpec(scenario="exhaustive"),
        )
        result = Session().run(spec)
        assert result.campaigns["exhaustive"].total_injections > 0

    def test_unknown_fsm_name_raises(self):
        with pytest.raises(KeyError, match="no_such_fsm"):
            Session().run(
                ExperimentSpec(fsm=FsmSpec(name="no_such_fsm"))
            )

    def test_unknown_scenario_and_engine_raise(self):
        with pytest.raises(ValueError, match="scenario"):
            Session().run(exhaustive_spec(scenario="meltdown"))
        with pytest.raises(ValueError, match="engine"):
            Session().run(exhaustive_spec(engine="quantum"))

    def test_behavioral_is_not_a_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario 'behavioral'"):
            Session().run(exhaustive_spec(scenario="behavioral"))


class TestExperimentResultDict:
    def test_result_serializes_to_plain_json(self):
        result = Session().run(exhaustive_spec(compare=True))
        data = json.loads(json.dumps(result.to_dict()))
        assert data["spec_hash"] == result.spec_hash
        assert data["provenance"]["engine"] == DEFAULT_ENGINE
        assert data["provenance"]["workers"] == 1
        assert data["harden"]["fsm"] == "traffic_light"
        assert data["harden"]["area"]["total_ge"] > 0
        assert data["campaigns"]["exhaustive"]["hijacked"] == 0
        assert data["compare"]["agree"] is True

    def test_keep_outcomes_serialized_without_enums(self):
        spec = ExperimentSpec(
            fsm=FsmSpec(name="traffic_light"),
            campaign=CampaignSpec(scenario="exhaustive"),
            report=ReportSpec(keep_outcomes=True),
        )
        result = Session().run(spec)
        data = json.loads(json.dumps(result.to_dict()))
        outcomes = data["campaigns"]["exhaustive"]["outcomes"]
        assert len(outcomes) == data["campaigns"]["exhaustive"]["total_injections"]
        first = outcomes[0]
        assert first["classification"] in {"masked", "detected", "redirected", "hijack"}
        assert first["faults"][0][1] == "flip"

    def test_timing_included_on_request(self):
        spec = ExperimentSpec(
            fsm=FsmSpec(name="traffic_light"),
            report=ReportSpec(include_timing=True),
        )
        data = Session().run(spec).to_dict()
        assert data["harden"]["timing"]["min_clock_period_ps"] > 0


class TestCommittedExample:
    def test_example_spec_replays_to_golden_counters(self):
        """The committed examples/experiment.json must keep producing the
        committed golden counters through the library API."""
        spec = ExperimentSpec.load(EXAMPLES / "experiment.json")
        golden = json.loads((EXAMPLES / "experiment.golden.json").read_text())
        assert spec.content_hash() == golden["spec_hash"]
        result = Session().run(spec)
        emitted = result.to_dict()["campaigns"]
        assert set(emitted) == set(golden["campaigns"])
        for name, expected in golden["campaigns"].items():
            for key, value in expected.items():
                assert emitted[name][key] == value, (name, key)

    def test_example_spec_counters_identical_on_every_engine(self):
        spec = ExperimentSpec.load(EXAMPLES / "experiment.json")
        golden = json.loads((EXAMPLES / "experiment.golden.json").read_text())
        for engine in FaultCampaign.ENGINES:
            result = Session().run(spec.with_overrides(engine=engine))
            for name, expected in golden["campaigns"].items():
                counters = result.campaigns[name].counters()
                assert counters == (
                    expected["masked"],
                    expected["detected"],
                    expected["redirected"],
                    expected["hijacked"],
                ), (engine, name)

    def test_example_spec_matches_legacy_orchestrator_invocation(self):
        """The committed example reproduces the pre-API code path (direct
        protect_fsm + FaultCampaign effect sweep) counter for counter."""
        from repro.fi.scenarios import effect_sweep_scenarios

        spec = ExperimentSpec.load(EXAMPLES / "experiment.json")
        legacy_scfi = protect_fsm(
            traffic_light_fsm(), ScfiOptions(protection_level=2, generate_verilog=False)
        )
        for engine in FaultCampaign.ENGINES:
            with FaultCampaign(legacy_scfi.structure, engine=engine) as legacy:
                references = legacy.run_sweep(
                    effect_sweep_scenarios(target_nets="diffusion")
                )
            result = Session().run(spec.with_overrides(engine=engine))
            assert set(result.campaigns) == set(references)
            for name, reference in references.items():
                assert result.campaigns[name].counters() == reference.counters(), (
                    engine,
                    name,
                )


class TestRegistries:
    def test_default_engines_track_fault_campaign(self):
        assert set(available_engines()) == set(FaultCampaign.ENGINES)

    def test_default_scenarios(self):
        assert {"exhaustive", "random", "effects", "regions", "bitflip"} <= set(
            available_scenarios()
        )
        assert "behavioral" not in available_scenarios()

    def test_register_fsm_visible_to_specs(self):
        register_fsm("api_test_fsm", traffic_light_fsm)
        try:
            result = Session().run(
                ExperimentSpec(
                    fsm=FsmSpec(name="api_test_fsm"),
                    campaign=CampaignSpec(scenario="exhaustive"),
                )
            )
            assert result.campaigns["exhaustive"].total_injections > 0
        finally:
            del FSM_REGISTRY["api_test_fsm"]

    def test_register_fsm_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_fsm("traffic_light", traffic_light_fsm)

    def test_register_scenario_resolves(self):
        register_scenario(
            "api_test_scenario",
            lambda spec, structure: {
                "custom": ExhaustiveSingleFault(target_nets="diffusion")
            },
        )
        try:
            result = Session().run(exhaustive_spec(scenario="api_test_scenario"))
            assert set(result.campaigns) == {"custom"}
        finally:
            del SCENARIO_REGISTRY["api_test_scenario"]

    def test_make_executor_builds_the_named_engine(self, protected_traffic_light):
        campaign = CampaignSpec(engine="parallel", lane_width=32)
        structure = protected_traffic_light.structure
        with make_executor(campaign, structure, keep_outcomes=False) as executor:
            assert isinstance(executor, FaultCampaign)
            assert executor.engine == "parallel"
            assert executor.lane_width == 32


class TestCampaignProvenance:
    """Whether counters were computed or replayed is the campaign stage's
    cache record; the provenance describes how they were computed."""

    def test_computed_campaign_records_its_cache_status(self):
        result = Session().run(exhaustive_spec(engine="parallel-numpy"))
        assert result.cache["campaign"]["status"] == "disabled"
        assert "dispatch" not in result.provenance()

    def test_bignum_engine_matches_the_oracle(self):
        result = Session().run(exhaustive_spec(engine="parallel"))
        oracle = Session().run(exhaustive_spec(engine="scalar"))
        assert (
            result.campaigns["exhaustive"].counters()
            == oracle.campaigns["exhaustive"].counters()
        )

    def test_cached_replay_records_a_hit(self, tmp_path):
        from repro.store import open_store

        store = open_store(tmp_path / "cache")
        spec = exhaustive_spec()
        cold = Session(store=store).run(spec)
        assert cold.cache["campaign"]["status"] == "miss"
        warm = Session(store=store).run(spec)
        assert warm.cache["campaign"]["status"] == "hit"
        assert warm.to_dict()["provenance"] == cold.to_dict()["provenance"]

    def test_bitflip_runs_through_the_executor(self, monkeypatch):
        import repro.api.session as session_mod

        built = []
        original = session_mod.make_executor
        monkeypatch.setattr(
            session_mod, "make_executor", lambda *a, **k: built.append(1) or original(*a, **k)
        )
        result = Session().run(
            ExperimentSpec(
                fsm=FsmSpec(name="traffic_light"),
                campaign=CampaignSpec(scenario="bitflip", trials=50),
            )
        )
        assert built == [1]
        assert result.campaigns["bitflip"].total_injections == 50

    def test_laser_replays_golden_through_session(self):
        spec = ExperimentSpec.load(EXAMPLES / "laser_experiment.json")
        golden = json.load(open(EXAMPLES / "laser_experiment.golden.json"))
        result = Session().run(spec)
        assert result.spec_hash == golden["spec_hash"]
        emitted = result.to_dict()["campaigns"]["laser"]
        for key, value in golden["campaigns"]["laser"].items():
            assert emitted[key] == value, key


class TestSessionFleet:
    """``Session(fleet=...)``: every campaign executor shards on the caller's
    fleet, scoped by the harden-stage key, and the session never closes it."""

    def _spec(self):
        return ExperimentSpec(
            fsm=FsmSpec(name="traffic_light"),
            campaign=CampaignSpec(scenario="effects", trials=20, seed=3),
        )

    def test_executor_borrows_the_fleet_scoped_by_the_harden_key(self, tmp_path, monkeypatch):
        import repro.api.session as session_mod
        from repro.fi.fleet import WorkerFleet
        from repro.store import open_store

        calls = []
        original = session_mod.make_executor

        def recording(campaign, structure, keep_outcomes, fleet=None, scope=None):
            calls.append((campaign, structure, keep_outcomes, fleet, scope))
            return original(campaign, structure, keep_outcomes, fleet=fleet, scope=scope)

        monkeypatch.setattr(session_mod, "make_executor", recording)
        spec = self._spec()
        baseline = Session().run(spec)
        calls.clear()
        with WorkerFleet(1) as fleet:
            result = Session(store=open_store(tmp_path / "cache"), fleet=fleet).run(spec)
            assert result.to_dict()["campaigns"] == baseline.to_dict()["campaigns"]
            assert fleet.stats()["tasks_completed"] > 0
            # Leaving the session's ``with`` block left the fleet running.
            assert fleet.alive_count() == 1
        assert len(calls) == 1
        campaign, structure, keep_outcomes, passed_fleet, scope = calls[0]
        assert campaign.scenario == "effects"
        assert structure.netlist.name.startswith("traffic_light")
        assert keep_outcomes is False
        assert passed_fleet is fleet
        # The scope is the harden-stage input hash -- the key the fleet uses
        # to reuse warm compiled netlists.
        assert scope == spec.stage_hashes()["harden"]

    def test_warm_campaign_stage_builds_no_executor(self, tmp_path, monkeypatch):
        import repro.api.session as session_mod
        from repro.fi.fleet import WorkerFleet
        from repro.store import open_store

        store = open_store(tmp_path / "cache")
        spec = self._spec()
        Session(store=store).run(spec)  # populate every stage

        def exploding(*args, **kwargs):
            raise AssertionError("no executor may be built on a campaign-stage hit")

        monkeypatch.setattr(session_mod, "make_executor", exploding)
        with WorkerFleet(1) as fleet:
            warm = Session(store=store, fleet=fleet).run(spec)
            assert fleet.stats()["configs_shipped"] == 0
        assert warm.cache["campaign"]["status"] == "hit"

    def test_no_fleet_builds_an_in_process_fault_campaign(self, monkeypatch):
        import repro.api.session as session_mod

        built = []
        original = session_mod.make_executor

        def recording(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(session_mod, "make_executor", recording)
        result = Session().run(self._spec())
        assert result.to_dict()["campaigns"]
        assert len(built) == 1 and built[0]._fleet is None


class TestExecutorReuse:
    """One warm executor per (structure, execution params) inside a Session."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every executor the default factory builds, in build order."""
        import repro.api.session as session_mod

        built = []
        original = session_mod.make_executor

        def counting(campaign, structure, keep_outcomes, **kwargs):
            executor = original(campaign, structure, keep_outcomes=keep_outcomes, **kwargs)
            built.append(executor)
            return executor

        monkeypatch.setattr(session_mod, "make_executor", counting)
        return built

    @staticmethod
    def _dicts(results):
        return {name: result.to_dict() for name, result in results.items()}

    def test_equal_params_build_one_executor(self, built, protected_traffic_light):
        structure = protected_traffic_light.structure
        specs = (
            CampaignSpec(scenario="effects"),
            CampaignSpec(scenario="laser", spot_radius=2.0, spot_trials=60, cycles=2),
            CampaignSpec(scenario="laser", spot_radius=2.0, spot_trials=60, cycles=2),
            CampaignSpec(scenario="random", faults=2, trials=300, seed=4),
        )
        session = Session()
        reused = [self._dicts(session.run_campaign(structure, spec)) for spec in specs]
        assert len(built) == 1
        fresh = [self._dicts(Session().run_campaign(structure, spec)) for spec in specs]
        assert reused == fresh

    def test_other_params_or_structure_build_another(self, built, protected_traffic_light):
        structure = protected_traffic_light.structure
        spec = CampaignSpec(scenario="exhaustive")
        session = Session()
        session.run_campaign(structure, spec)
        session.run_campaign(structure, spec, ReportSpec(keep_outcomes=True))
        assert len(built) == 2
        session.run_campaign(structure, CampaignSpec(scenario="exhaustive", lane_width=64))
        assert len(built) == 3
        # An equal but distinct structure is another structure.
        twin = protect_fsm(
            traffic_light_fsm(), ScfiOptions(protection_level=2, generate_verilog=False)
        ).structure
        session.run_campaign(twin, spec)
        assert len(built) == 4
        session.run_campaign(structure, spec)
        session.run_campaign(structure, spec, ReportSpec(keep_outcomes=True))
        assert len(built) == 4

    def test_repeat_run_with_a_store_reuses_structure_and_executor(self, built):
        from repro.store import MemoryStore

        spec = ExperimentSpec(
            fsm=FsmSpec(name="traffic_light"),
            campaign=CampaignSpec(scenario="random", faults=2, trials=200, seed=5),
        )
        session = Session(store=MemoryStore())
        first = session.run(spec)
        second = session.run(replace(spec, campaign=replace(spec.campaign, seed=6)))
        assert second.scfi.structure is first.scfi.structure
        assert second.cache["harden"]["status"] == "hit"
        assert len(built) == 1

    def test_worker_pool_released_after_each_call(self, built, protected_traffic_light):
        import multiprocessing

        structure = protected_traffic_light.structure
        spec = CampaignSpec(scenario="random", faults=2, trials=300, seed=4, workers=2)
        before = set(multiprocessing.active_children())
        session = Session()
        first = self._dicts(session.run_campaign(structure, spec))
        assert built[0]._fleet is None
        assert set(multiprocessing.active_children()) <= before
        # The reused executor starts a new fleet and stops it again.
        assert self._dicts(session.run_campaign(structure, spec)) == first
        assert len(built) == 1
        assert built[0]._fleet is None
        assert set(multiprocessing.active_children()) <= before

    def test_cache_is_bounded(self, built, traffic_light):
        from repro.api.session import EXECUTOR_CACHE_LIMIT

        options = ScfiOptions(protection_level=2, generate_verilog=False)
        structures = [
            protect_fsm(traffic_light, options).structure
            for _ in range(EXECUTOR_CACHE_LIMIT + 2)
        ]
        spec = CampaignSpec(scenario="exhaustive", engine="parallel")
        session = Session()
        for structure in structures:
            session.run_campaign(structure, spec)
        assert len(built) == EXECUTOR_CACHE_LIMIT + 2
        assert len(session._executors) == EXECUTOR_CACHE_LIMIT
        session.run_campaign(structures[-1], spec)  # still warm
        assert len(built) == EXECUTOR_CACHE_LIMIT + 2
        session.run_campaign(structures[0], spec)  # evicted first
        assert len(built) == EXECUTOR_CACHE_LIMIT + 3
        assert len(session._executors) == EXECUTOR_CACHE_LIMIT
