"""The content-addressed incremental pipeline: stage hashes and memoisation.

Covers the staged ``Session`` contract end to end:

* pre-existing ``content_hash`` values (the committed ``examples/*.json``
  goldens) are byte-identical after the per-stage sub-hash refactor;
* a warm re-run of the committed example specs performs zero netlist
  compiles and zero campaign batches on every engine, with counters
  bit-identical to the cold run (the tentpole's correctness bar);
* a single-field spec mutation invalidates exactly the downstream stages;
* corrupted artifacts are recomputed, never replayed;
* the evaluation-harness seams (``run_campaign`` with ``cache_scope``,
  ``run_table1(store=...)``) memoise through the same store.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import CampaignSpec, ExperimentSpec, FsmSpec, ProtectSpec, ReportSpec, Session
from repro.api.spec import campaign_stage_keys, harden_stage_key
from repro.fi.executor import CampaignResult, FaultCampaign
from repro.store import MemoryStore
from repro.synth.serialize import (
    ScfiCodecError,
    deserialize_scfi_result,
    serialize_scfi_result,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: The committed example specs with their published content hashes.  These
#: literals are the compatibility contract: the per-stage sub-hash refactor
#: derives *new* keys from the canonical-JSON scheme but must leave the
#: full-spec hashes -- persisted in the goldens and in downstream result
#: stores -- unchanged.
PINNED_CONTENT_HASHES = {
    "experiment.json": "8e0e9a0a55c3b8bc15f66c466c480d5860e2a57bfff43cb5f3c7de1e572f0f5c",
    "temporal_experiment.json": "a0c8059b025a336fba54af45bd6a65058fd768671fe413e602c971b6a67075dc",
}

ALL_ENGINES = ("parallel", "parallel-numpy", "scalar")


def _statuses(result):
    return {stage: record["status"] for stage, record in result.cache.items()}


def _counters(result):
    return {name: campaign.counters() for name, campaign in result.campaigns.items()}


def _poison_compute(monkeypatch):
    """Make any netlist compile or campaign-executor construction fatal."""

    def no_protect(*args, **kwargs):
        raise AssertionError("warm run called protect_fsm (netlist compile)")

    def no_executor(*args, **kwargs):
        raise AssertionError("warm run built a campaign executor (batches)")

    monkeypatch.setattr("repro.api.session.protect_fsm", no_protect)
    monkeypatch.setattr("repro.api.session.make_executor", no_executor)


class TestContentHashRegression:
    @pytest.mark.parametrize("name", sorted(PINNED_CONTENT_HASHES))
    def test_committed_example_hashes_are_unchanged(self, name):
        spec = ExperimentSpec.load(EXAMPLES / name)
        assert spec.content_hash() == PINNED_CONTENT_HASHES[name]

    @pytest.mark.parametrize("name", sorted(PINNED_CONTENT_HASHES))
    def test_goldens_agree_with_recomputed_hashes(self, name):
        golden = json.loads(
            (EXAMPLES / name.replace(".json", ".golden.json")).read_text()
        )
        assert ExperimentSpec.load(EXAMPLES / name).content_hash() == golden["spec_hash"]

    def test_stage_hashes_do_not_perturb_content_hash(self):
        spec = ExperimentSpec.load(EXAMPLES / "experiment.json")
        before = spec.content_hash()
        spec.stage_hashes()
        assert spec.content_hash() == before


class TestStageHashes:
    def test_all_stages_keyed_for_a_campaign_spec(self):
        spec = ExperimentSpec.load(EXAMPLES / "experiment.json")
        keys = spec.stage_hashes()
        assert sorted(keys) == ["campaign", "harden", "plan", "report"]
        assert all(isinstance(v, str) and len(v) == 64 for v in keys.values())
        assert len(set(keys.values())) == 4  # stage names are domain-separated

    def test_hardening_only_spec_has_no_campaign_stages(self):
        keys = ExperimentSpec(fsm=FsmSpec(name="traffic_light")).stage_hashes()
        assert keys["plan"] is None and keys["campaign"] is None
        assert keys["harden"] is not None and keys["report"] is not None

    def test_behavioral_spec_skips_the_plan_stage(self):
        spec = ExperimentSpec(
            fsm=FsmSpec(name="traffic_light"),
            campaign=CampaignSpec(scenario="behavioral", trials=10),
        )
        keys = spec.stage_hashes()
        assert keys["plan"] is None
        assert keys["campaign"] is not None

    # -- the invalidation matrix: one mutated field, exactly the downstream
    # -- stages change key.
    @pytest.fixture
    def base(self):
        return ExperimentSpec(
            fsm=FsmSpec(name="traffic_light"),
            campaign=CampaignSpec(scenario="random", faults=2, trials=50, engine="parallel"),
        )

    def _diff(self, base, mutated):
        a, b = base.stage_hashes(), mutated.stage_hashes()
        return sorted(stage for stage in a if a[stage] != b[stage])

    def test_seed_invalidates_plan_campaign_report(self, base):
        mutated = replace(base, campaign=replace(base.campaign, seed=7))
        assert self._diff(base, mutated) == ["campaign", "plan", "report"]

    def test_engine_swap_at_same_lane_budget_keeps_the_plan(self, base):
        # parallel and scalar share the 256-lane default.
        mutated = replace(base, campaign=replace(base.campaign, engine="scalar"))
        assert self._diff(base, mutated) == ["campaign", "report"]

    def test_engine_swap_with_different_default_lanes_replans(self, base):
        mutated = replace(base, campaign=replace(base.campaign, engine="parallel-numpy"))
        assert self._diff(base, mutated) == ["campaign", "plan", "report"]

    def test_lane_width_invalidates_plan_campaign_report(self, base):
        mutated = replace(base, campaign=replace(base.campaign, lane_width=64))
        assert self._diff(base, mutated) == ["campaign", "plan", "report"]

    def test_workers_invalidate_only_the_report(self, base):
        mutated = replace(base, campaign=replace(base.campaign, workers=4))
        assert self._diff(base, mutated) == ["report"]

    def test_compare_invalidates_only_the_report(self, base):
        mutated = replace(base, campaign=replace(base.campaign, compare=True))
        assert self._diff(base, mutated) == ["report"]

    def test_keep_outcomes_invalidates_campaign_and_report(self, base):
        mutated = replace(base, report=ReportSpec(keep_outcomes=True))
        assert self._diff(base, mutated) == ["campaign", "report"]

    def test_include_timing_invalidates_only_the_report(self, base):
        mutated = replace(base, report=ReportSpec(include_timing=True))
        assert self._diff(base, mutated) == ["report"]

    def test_emit_verilog_invalidates_everything(self, base):
        mutated = replace(base, report=ReportSpec(emit_verilog=True))
        assert self._diff(base, mutated) == ["campaign", "harden", "plan", "report"]

    def test_protection_level_invalidates_everything(self, base):
        mutated = replace(base, protect=ProtectSpec(protection_level=3))
        assert self._diff(base, mutated) == ["campaign", "harden", "plan", "report"]

    def test_pinned_lane_width_keeps_keys_engine_agnostic(self):
        pinned = CampaignSpec(engine="parallel", lane_width=128)
        assert pinned.lane_budget_id() == 128
        assert CampaignSpec(engine="parallel").lane_budget_id() == 256
        assert CampaignSpec(engine="parallel-numpy").lane_budget_id() == 4096


class TestWarmRunReplaysEverything:
    """The acceptance bar: warm runs of the committed examples do zero
    compiles and zero campaign batches, with bit-identical counters."""

    @pytest.mark.parametrize("name", sorted(PINNED_CONTENT_HASHES))
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_warm_run_is_pure_replay_on_every_engine(self, name, engine, monkeypatch):
        spec = ExperimentSpec.load(EXAMPLES / name)
        spec = replace(spec, campaign=replace(spec.campaign, engine=engine))
        store = MemoryStore()
        session = Session(store=store)

        cold = session.run(spec)
        assert _statuses(cold) == {
            "harden": "miss", "plan": "miss", "campaign": "miss", "report": "miss",
        }

        _poison_compute(monkeypatch)
        warm = session.run(spec)
        assert _statuses(warm) == {
            "harden": "hit", "plan": "skipped", "campaign": "hit", "report": "hit",
        }
        assert _counters(warm) == _counters(cold)
        assert warm.to_dict()["campaigns"] == cold.to_dict()["campaigns"]

    def test_warm_run_emits_cache_hit_progress(self):
        spec = ExperimentSpec.load(EXAMPLES / "experiment.json")
        store = MemoryStore()
        events = []
        session = Session(progress=lambda s, d: events.append((s, d)), store=store)
        session.run(spec)
        events.clear()
        session.run(spec)
        assert events[0][0] == "resolve" and events[-1][0] == "done"
        details = {stage: detail for stage, detail in events}
        keys = spec.stage_hashes()
        assert details["harden"] == f"cache hit {keys['harden'][:12]}"
        assert details["campaign"] == f"cache hit {keys['campaign'][:12]}"
        assert details["report"] == f"cache hit {keys['report'][:12]}"

    def test_changed_campaign_reuses_the_hardened_netlist(self, monkeypatch):
        spec = ExperimentSpec.load(EXAMPLES / "experiment.json")
        store = MemoryStore()
        session = Session(store=store)
        session.run(spec)

        # Harden must be replayed, so compiling is fatal; the campaign is new,
        # so executors stay allowed.
        monkeypatch.setattr(
            "repro.api.session.protect_fsm",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("re-hardened")),
        )
        mutated = replace(spec, campaign=replace(spec.campaign, seed=123, scenario="random"))
        result = session.run(mutated)
        assert _statuses(result) == {
            "harden": "hit", "plan": "miss", "campaign": "miss", "report": "miss",
        }

    def test_engine_swap_reuses_netlist_and_plan(self):
        spec = ExperimentSpec.load(EXAMPLES / "experiment.json")
        store = MemoryStore()
        session = Session(store=store)
        cold = session.run(spec)
        swapped = session.run(
            replace(spec, campaign=replace(spec.campaign, engine="scalar"))
        )
        assert _statuses(swapped) == {
            "harden": "hit", "plan": "hit", "campaign": "miss", "report": "miss",
        }
        assert _counters(swapped) == _counters(cold)

    def test_workers_override_recomputes_only_the_report(self, monkeypatch):
        spec = ExperimentSpec.load(EXAMPLES / "experiment.json")
        store = MemoryStore()
        session = Session(store=store)
        cold = session.run(spec)
        _poison_compute(monkeypatch)
        # Override path (scfi run --workers): campaigns replay from cache.
        warm = session.run(spec, workers=2)
        assert _statuses(warm) == {
            "harden": "hit", "plan": "skipped", "campaign": "hit", "report": "miss",
        }
        assert _counters(warm) == _counters(cold)
        assert warm.spec_hash == cold.spec_hash  # override stays out of the hash
        assert warm.provenance()["workers"] == 2

    def test_behavioral_campaign_is_cached(self, monkeypatch):
        spec = ExperimentSpec(
            fsm=FsmSpec(name="traffic_light"),
            campaign=CampaignSpec(scenario="behavioral", faults=2, trials=40),
        )
        store = MemoryStore()
        session = Session(store=store)
        cold = session.run(spec)
        _poison_compute(monkeypatch)
        monkeypatch.setattr(
            "repro.api.session.behavioral_fault_campaign",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("re-sampled")),
        )
        warm = session.run(spec)
        assert warm.cache["campaign"]["status"] == "hit"
        assert warm.behavioral.to_dict() == cold.behavioral.to_dict()

    def test_corrupted_campaign_artifact_is_recomputed_not_replayed(self):
        spec = ExperimentSpec.load(EXAMPLES / "experiment.json")
        store = MemoryStore()
        session = Session(store=store)
        cold = session.run(spec)
        key = spec.stage_hashes()["campaign"]
        blob = bytearray(store.blobs[("campaign", key)])
        blob[-1] ^= 0x01
        store.blobs[("campaign", key)] = bytes(blob)
        result = session.run(spec)
        assert result.cache["campaign"]["status"] == "miss"
        assert _counters(result) == _counters(cold)
        assert store.integrity_failures == 1
        # The rewrite healed the store: the next run replays cleanly.
        assert _statuses(session.run(spec))["campaign"] == "hit"

    def test_without_a_store_nothing_is_cached(self):
        spec = ExperimentSpec.load(EXAMPLES / "experiment.json")
        result = Session().run(spec)
        assert _statuses(result) == {
            "harden": "disabled", "plan": "disabled",
            "campaign": "disabled", "report": "disabled",
        }
        assert "cache" in result.to_dict()

    def test_stored_result_document_has_no_cache_section(self):
        spec = ExperimentSpec.load(EXAMPLES / "experiment.json")
        store = MemoryStore()
        Session(store=store).run(spec)
        key = spec.stage_hashes()["report"]
        doc = json.loads(store.load("report", key).payload.decode("utf-8"))
        assert "cache" not in doc
        assert doc["spec_hash"] == spec.content_hash()


class TestSerializationRoundTrips:
    def test_scfi_result_codec_roundtrip(self, protected_traffic_light):
        payload = serialize_scfi_result(protected_traffic_light)
        restored = deserialize_scfi_result(payload)
        assert restored.fsm.name == protected_traffic_light.fsm.name
        assert sorted(restored.structure.netlist.gates) == sorted(
            protected_traffic_light.structure.netlist.gates
        )
        assert restored.structure.state_q == protected_traffic_light.structure.state_q

    def test_scfi_codec_rejects_foreign_payloads(self):
        import pickle

        with pytest.raises(ScfiCodecError):
            deserialize_scfi_result(b"not a pickle")
        with pytest.raises(ScfiCodecError):
            deserialize_scfi_result(pickle.dumps((999, None)))

    def test_campaign_result_roundtrip_with_outcomes(self, protected_traffic_light):
        from repro.api.registry import build_scenarios

        campaign = CampaignSpec(scenario="exhaustive")
        structure = protected_traffic_light.structure
        with FaultCampaign(structure, keep_outcomes=True) as executor:
            scenarios = build_scenarios(campaign, structure)
            original = executor.run(scenarios["exhaustive"])
        restored = CampaignResult.from_dict(original.to_dict())
        assert restored.counters() == original.counters()
        assert restored.to_dict() == original.to_dict()
        assert restored.keep_outcomes and len(restored.outcomes) == len(original.outcomes)

    def test_campaign_plan_roundtrip_and_import(self, protected_traffic_light):
        from repro.fi.planner import CampaignPlan

        structure = protected_traffic_light.structure
        with FaultCampaign(structure) as campaign:
            contexts = tuple(i % 3 for i in range(40))
            plan = campaign.plan_jobs(contexts)
            assert CampaignPlan.from_dict(plan.to_dict()) == plan
            payloads = campaign.export_plans()
        assert payloads, "planning should leave a cached plan to export"
        with FaultCampaign(structure) as fresh:
            assert fresh.import_plans(payloads) == len(payloads)
            before = fresh.plan_cache_hits
            assert fresh.plan_jobs(contexts) == plan
            assert fresh.plan_cache_hits == before + 1

    def test_plan_artifact_holds_only_its_runs_plans(self, protected_traffic_light):
        """One session reuses its executor across seeds; each run's plan
        artifact must carry that run's plan, not the whole plan cache."""
        store = MemoryStore()
        session = Session(store=store)
        scope = harden_stage_key(
            FsmSpec(name="traffic_light"), ProtectSpec(protection_level=2), False
        )
        for seed in (1, 2, 3):
            cache = {}
            session.run_campaign(
                protected_traffic_light.structure,
                CampaignSpec(scenario="random", faults=3, trials=200, seed=seed),
                cache_scope=scope,
                cache=cache,
            )
            assert cache["plan"]["status"] == "miss"
            artifact = store.load("plan", cache["plan"]["key"])
            assert len(json.loads(artifact.payload)["plans"]) == 1, seed

    def test_import_plans_skips_foreign_lane_budgets(self, protected_traffic_light):
        structure = protected_traffic_light.structure
        with FaultCampaign(structure, lane_width=8) as campaign:
            campaign.plan_jobs((0, 1, 2, 0, 1, 2))
            payloads = campaign.export_plans()
        with FaultCampaign(structure, lane_width=16) as other:
            assert other.import_plans(payloads) == 0


class TestEvalHarnessSeams:
    def test_run_campaign_cache_scope_memoises(self, protected_traffic_light, monkeypatch):
        structure = protected_traffic_light.structure
        scope = harden_stage_key(
            FsmSpec(name="traffic_light"), ProtectSpec(protection_level=2), False
        )
        store = MemoryStore()
        session = Session(store=store)
        campaign = CampaignSpec(scenario="exhaustive")
        cache = {}
        cold = session.run_campaign(structure, campaign, cache_scope=scope, cache=cache)
        assert cache["campaign"]["status"] == "miss"
        monkeypatch.setattr(
            "repro.api.session.make_executor",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("executor built")),
        )
        cache = {}
        warm = session.run_campaign(structure, campaign, cache_scope=scope, cache=cache)
        assert cache["campaign"]["status"] == "hit"
        assert {n: r.counters() for n, r in warm.items()} == {
            n: r.counters() for n, r in cold.items()
        }

    def test_run_campaign_without_scope_stays_uncached(self, protected_traffic_light):
        store = MemoryStore()
        session = Session(store=store)
        session.run_campaign(protected_traffic_light.structure, CampaignSpec(scenario="exhaustive"))
        assert list(store.entries()) == []

    def test_campaign_keys_match_session_stage_hashes(self):
        spec = ExperimentSpec.load(EXAMPLES / "experiment.json")
        keys = spec.stage_hashes()
        plan, campaign = campaign_stage_keys(
            spec.campaign, spec.report.keep_outcomes, keys["harden"]
        )
        assert (plan, campaign) == (keys["plan"], keys["campaign"])

    def test_run_table1_memoises_hardenings(self, monkeypatch):
        from repro.eval.table1 import run_table1
        from repro.synth.flow import ModuleModel
        from repro.fsmlib import traffic_light_fsm

        model = ModuleModel(fsm=traffic_light_fsm(), module_area_ge=500.0)
        store = MemoryStore()
        cold = run_table1([model], protection_levels=(2,), verify_security=True, store=store)
        monkeypatch.setattr(
            "repro.api.session.protect_fsm",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("re-hardened")),
        )
        monkeypatch.setattr(
            "repro.api.session.make_executor",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("executor built")),
        )
        warm = run_table1([model], protection_levels=(2,), verify_security=True, store=store)
        assert warm.rows[0].scfi_overhead == cold.rows[0].scfi_overhead
        assert (
            warm.rows[0].scfi_security[2].counters()
            == cold.rows[0].scfi_security[2].counters()
        )
