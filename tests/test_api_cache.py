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

#: The campaign- and report-stage keys of the committed examples.  The
#: campaign key still hashes the digest the retired ``plan`` stage was stored
#: under, so these stay what earlier builds wrote and existing stores keep
#: hitting.
PINNED_STAGE_KEYS = {
    "experiment.json": {
        "campaign": "6e0fbe692e562ba33f99cf9859540b58fa830169d4d0d1b09f1ca203c76c7c0c",
        "report": "25b920274d5568e56eea705693b47c58159f8af2bf5b8bac378e0a0bc1a0fae9",
    },
    "temporal_experiment.json": {
        "campaign": "c831ad48972d9f2112d72380fe1b9936327028282061959d959e24628d665d40",
        "report": "e8a613f232813f2b1d0790d463271c12b3ea22bd8734b498cb743bf5d4e8edb7",
    },
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

    @pytest.mark.parametrize("name", sorted(PINNED_STAGE_KEYS))
    def test_committed_example_stage_keys_are_unchanged(self, name):
        keys = ExperimentSpec.load(EXAMPLES / name).stage_hashes()
        assert {stage: keys[stage] for stage in ("campaign", "report")} == (
            PINNED_STAGE_KEYS[name]
        )


class TestStageHashes:
    def test_all_stages_keyed_for_a_campaign_spec(self):
        spec = ExperimentSpec.load(EXAMPLES / "experiment.json")
        keys = spec.stage_hashes()
        assert sorted(keys) == ["campaign", "harden", "report"]
        assert all(isinstance(v, str) and len(v) == 64 for v in keys.values())
        assert len(set(keys.values())) == 3  # stage names are domain-separated

    def test_hardening_only_spec_has_no_campaign_stage(self):
        keys = ExperimentSpec(fsm=FsmSpec(name="traffic_light")).stage_hashes()
        assert keys["campaign"] is None
        assert keys["harden"] is not None and keys["report"] is not None

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

    def test_seed_invalidates_campaign_and_report(self, base):
        mutated = replace(base, campaign=replace(base.campaign, seed=7))
        assert self._diff(base, mutated) == ["campaign", "report"]

    # scalar shares parallel's 256-lane default; parallel-numpy does not.
    @pytest.mark.parametrize("engine", ["scalar", "parallel-numpy"])
    def test_engine_swap_invalidates_campaign_and_report(self, base, engine):
        mutated = replace(base, campaign=replace(base.campaign, engine=engine))
        assert self._diff(base, mutated) == ["campaign", "report"]

    def test_lane_width_invalidates_campaign_and_report(self, base):
        mutated = replace(base, campaign=replace(base.campaign, lane_width=64))
        assert self._diff(base, mutated) == ["campaign", "report"]

    def test_pack_contexts_invalidates_campaign_and_report(self, base):
        mutated = replace(base, campaign=replace(base.campaign, pack_contexts=False))
        assert self._diff(base, mutated) == ["campaign", "report"]

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
        assert self._diff(base, mutated) == ["campaign", "harden", "report"]

    def test_protection_level_invalidates_everything(self, base):
        mutated = replace(base, protect=ProtectSpec(protection_level=3))
        assert self._diff(base, mutated) == ["campaign", "harden", "report"]

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
        assert _statuses(cold) == {"harden": "miss", "campaign": "miss", "report": "miss"}

        _poison_compute(monkeypatch)
        warm = session.run(spec)
        assert _statuses(warm) == {"harden": "hit", "campaign": "hit", "report": "hit"}
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
        assert _statuses(result) == {"harden": "hit", "campaign": "miss", "report": "miss"}

    def test_engine_swap_reuses_the_netlist(self):
        spec = ExperimentSpec.load(EXAMPLES / "experiment.json")
        store = MemoryStore()
        session = Session(store=store)
        cold = session.run(spec)
        swapped = session.run(
            replace(spec, campaign=replace(spec.campaign, engine="scalar"))
        )
        assert _statuses(swapped) == {"harden": "hit", "campaign": "miss", "report": "miss"}
        assert _counters(swapped) == _counters(cold)
        assert not [key for key in store.blobs if key[0] == "plan"]

    def test_workers_override_recomputes_only_the_report(self, monkeypatch):
        spec = ExperimentSpec.load(EXAMPLES / "experiment.json")
        store = MemoryStore()
        session = Session(store=store)
        cold = session.run(spec)
        _poison_compute(monkeypatch)
        # Override path (scfi run --workers): campaigns replay from cache.
        warm = session.run(spec, workers=2)
        assert _statuses(warm) == {"harden": "hit", "campaign": "hit", "report": "miss"}
        assert _counters(warm) == _counters(cold)
        assert warm.spec_hash == cold.spec_hash  # override stays out of the hash
        assert warm.provenance()["workers"] == 2

    def test_bitflip_campaign_is_cached(self, monkeypatch):
        spec = ExperimentSpec(
            fsm=FsmSpec(name="traffic_light"),
            campaign=CampaignSpec(scenario="bitflip", faults=2, trials=40),
        )
        store = MemoryStore()
        session = Session(store=store)
        cold = session.run(spec)
        _poison_compute(monkeypatch)
        warm = session.run(spec)
        assert warm.cache["campaign"]["status"] == "hit"
        assert _counters(warm) == _counters(cold)

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
            "harden": "disabled", "campaign": "disabled", "report": "disabled",
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
        campaign = campaign_stage_keys(spec.campaign, spec.report.keep_outcomes, keys["harden"])
        assert campaign == keys["campaign"]

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
