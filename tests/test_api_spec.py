"""Spec round-trips: to_dict/from_dict identity, stable hashes, validation."""

import json
import re
from dataclasses import replace

import pytest

from repro.api import (
    SCENARIO_REGISTRY,
    CampaignSpec,
    ExperimentSpec,
    FsmSpec,
    ProtectSpec,
    ReportSpec,
    register_scenario,
)
from repro.api.registry import SCENARIO_FIELDS
from repro.api.spec import SPEC_VERSION
from repro.fi.executor import DEFAULT_ENGINE


def full_spec() -> ExperimentSpec:
    return ExperimentSpec(
        fsm=FsmSpec(name="traffic_light"),
        protect=ProtectSpec(protection_level=3, error_bits=2),
        campaign=CampaignSpec(
            scenario="random",
            target="comb",
            effects=("flip", "stuck1"),
            faults=2,
            trials=40,
            seed=7,
            engine="scalar",
            lane_width=64,
            workers=2,
            compare=True,
        ),
        report=ReportSpec(keep_outcomes=True, include_timing=True),
    )


class TestRoundTrip:
    def test_from_dict_to_dict_identity(self):
        spec = full_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_without_campaign(self):
        spec = ExperimentSpec(fsm=FsmSpec(name="uart_rx"))
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.campaign is None

    def test_json_round_trip(self):
        spec = full_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = full_spec()
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ExperimentSpec.load(path) == spec

    def test_explicit_net_list_target_round_trips(self):
        spec = ExperimentSpec(
            fsm=FsmSpec(name="traffic_light"),
            campaign=CampaignSpec(scenario="exhaustive", target=["n1", "n2"]),
        )
        clone = ExperimentSpec.from_dict(json.loads(spec.to_json()))
        assert clone.campaign.target == ("n1", "n2")
        assert clone == spec

    def test_missing_sections_get_defaults(self):
        spec = ExperimentSpec.from_dict({"fsm": {"name": "uart_rx"}})
        assert spec.protect == ProtectSpec()
        assert spec.report == ReportSpec()
        assert spec.campaign is None


class TestContentHash:
    def test_hash_stable_across_dict_ordering(self):
        spec = full_spec()
        data = spec.to_dict()
        # Reverse every key order; a canonical hash must not notice.
        shuffled = json.loads(
            json.dumps({k: data[k] for k in reversed(list(data))})
        )
        shuffled["campaign"] = {
            k: data["campaign"][k] for k in reversed(list(data["campaign"]))
        }
        assert ExperimentSpec.from_dict(shuffled).content_hash() == spec.content_hash()

    def test_hash_changes_with_content(self):
        spec = full_spec()
        assert spec.content_hash() != spec.with_overrides(seed=8).content_hash()

    def test_hash_is_hex_sha256(self):
        digest = full_spec().content_hash()
        assert len(digest) == 64
        int(digest, 16)


def _fresh_hashes(spec: ExperimentSpec):
    """``(content_hash, stage_hashes)`` computed past the spec's memo."""
    return ExperimentSpec._content_hash.func(spec), ExperimentSpec._stage_hashes.func(spec)


class TestHashMemo:
    """A frozen spec computes its hashes once; the memo must always equal a
    fresh computation, also on specs derived from a spec whose memo is full."""

    @pytest.mark.parametrize(
        "derive",
        [
            lambda spec: spec,
            lambda spec: spec.with_overrides(seed=8),
            lambda spec: spec.with_overrides(workers=3, engine="parallel"),
            lambda spec: replace(spec, report=ReportSpec()),
            lambda spec: replace(spec, protect=replace(spec.protect, error_bits=1)),
            lambda spec: replace(spec, campaign=None),
            lambda spec: ExperimentSpec.from_dict(spec.to_dict()),
        ],
    )
    def test_memo_equals_a_fresh_computation(self, derive):
        base = full_spec()
        base_hashes = (base.content_hash(), base.stage_hashes())
        spec = derive(base)
        for _ in range(2):  # computed, then answered from the memo
            assert (spec.content_hash(), spec.stage_hashes()) == _fresh_hashes(spec)
        assert (spec.content_hash() == base_hashes[0]) == (spec == base)
        assert (base.content_hash(), base.stage_hashes()) == base_hashes

    def test_stage_hashes_returns_a_copy(self):
        spec = full_spec()
        keys = spec.stage_hashes()
        keys["report"] = "0" * 64
        assert spec.stage_hashes() == _fresh_hashes(spec)[1]
        assert spec.stage_hashes() is not spec.stage_hashes()

    def test_memo_is_not_a_spec_key(self):
        spec = full_spec()
        spec.content_hash()
        spec.stage_hashes()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert "_content_hash" not in spec.to_dict()


class TestValidation:
    def test_fsm_spec_needs_exactly_one_source(self):
        with pytest.raises(ValueError):
            FsmSpec()
        with pytest.raises(ValueError):
            FsmSpec(name="x", verilog="module m; endmodule")

    def test_unknown_keys_rejected(self):
        data = full_spec().to_dict()
        data["campaign"]["lane_widht"] = data["campaign"].pop("lane_width")
        with pytest.raises(ValueError, match="lane_widht"):
            ExperimentSpec.from_dict(data)

    def test_unknown_effect_rejected(self):
        with pytest.raises(ValueError, match="melt"):
            CampaignSpec(effects=("melt",))

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            CampaignSpec(lane_width=0)
        with pytest.raises(ValueError):
            CampaignSpec(workers=0)
        with pytest.raises(ValueError):
            CampaignSpec(faults=0)
        with pytest.raises(ValueError):
            ProtectSpec(protection_level=0)

    def test_unknown_engine_rejected_with_registered_names(self):
        with pytest.raises(
            ValueError,
            match=r"unknown engine 'bogus-engine' \(registered: parallel, parallel-numpy, scalar\)",
        ):
            CampaignSpec(engine="bogus-engine")

    def test_saved_spec_naming_parallel_compiled_fails_to_parse(self):
        data = full_spec().to_dict()
        data["campaign"]["engine"] = "parallel-compiled"
        with pytest.raises(ValueError, match="unknown engine 'parallel-compiled'"):
            ExperimentSpec.from_dict(data)


    def test_default_engine_is_the_executor_default(self):
        assert CampaignSpec().engine == DEFAULT_ENGINE == "parallel-numpy"

    def test_future_version_rejected(self):
        data = full_spec().to_dict()
        data["version"] = SPEC_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            ExperimentSpec.from_dict(data)

    def test_override_without_campaign_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(fsm=FsmSpec(name="uart_rx")).with_overrides(workers=2)

    def test_with_overrides_replaces_campaign_fields(self):
        spec = full_spec().with_overrides(workers=4, engine="parallel")
        assert spec.campaign.workers == 4
        assert spec.campaign.engine == "parallel"
        assert spec.campaign.trials == full_spec().campaign.trials


#: (campaign section, error fragment): each rule the registry enforces when
#: a spec is built.
BAD_CAMPAIGNS = [
    ({"scenario": "meltdown"}, "unknown scenario 'meltdown'"),
    ({"scenario": "exhaustive", "cycles": 3}, "the 'exhaustive' scenario does not take 'cycles'"),
    (
        {"scenario": "exhaustive", "fault_duration": "persistent"},
        "the 'exhaustive' scenario does not take 'fault_duration'",
    ),
    (
        {"scenario": "random", "glitch_schedule": [[0, "n1", "flip"]]},
        "the 'random' scenario does not take 'glitch_schedule'",
    ),
    ({"scenario": "effects", "spot_radius": 2.0}, "the 'effects' scenario does not take 'spot_radius'"),
    ({"scenario": "regions", "target": "comb"}, "the 'regions' scenario does not take 'target'"),
    (
        {"scenario": "temporal", "cycles": 2, "glitch_schedule": [[0, "n1", "flip"]]},
        "the 'temporal' scenario does not take 'glitch_schedule'",
    ),
    ({"scenario": "temporal", "spot_trials": 5}, "the 'temporal' scenario does not take 'spot_trials'"),
    ({"scenario": "glitch", "cycles": 2}, "the 'glitch' scenario needs a glitch_schedule"),
    ({"scenario": "glitch", "glitch_schedule": []}, "the 'glitch' scenario needs a glitch_schedule"),
    (
        {"scenario": "glitch", "glitch_schedule": [[0, "n1", "flip"]], "target": "comb"},
        "the 'glitch' scenario does not take 'target'",
    ),
    (
        {"scenario": "glitch", "glitch_schedule": [[0, "n1", "flip"]], "effects": ["stuck0"]},
        "the 'glitch' scenario does not take 'effects'",
    ),
    ({"scenario": "bitflip", "cycles": 2}, "the 'bitflip' scenario does not take 'cycles'"),
    ({"scenario": "bitflip", "target": "comb"}, "the 'bitflip' scenario does not take 'target'"),
    ({"scenario": "bitflip", "effects": ["stuck0"]}, "the 'bitflip' scenario models bit flips only"),
    (
        {"scenario": "laser", "glitch_schedule": [[0, "n1", "flip"]]},
        "the 'laser' scenario does not take 'glitch_schedule'",
    ),
]


class TestScenarioRules:
    """The scenario name and the registry's field rules are checked when the
    spec is parsed: no FSM lookup, no harden."""

    @pytest.mark.parametrize("campaign, message", BAD_CAMPAIGNS)
    def test_bad_campaign_fails_to_parse(self, campaign, message):
        document = {"fsm": {"name": "no_such_fsm"}, "campaign": campaign}
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentSpec.from_dict(document)

    def test_every_built_in_scenario_has_field_rules(self):
        assert set(SCENARIO_FIELDS) == set(SCENARIO_REGISTRY)

    def test_each_scenario_parses_with_every_field_it_takes(self):
        values = {
            "target": "comb",
            "effects": ("flip",),
            "cycles": 2,
            "fault_duration": "persistent",
            "glitch_schedule": ((0, "n1", "flip"),),
            "spot_radius": 2.0,
            "spot_trials": 5,
        }
        for scenario, takes in SCENARIO_FIELDS.items():
            spec = CampaignSpec(scenario=scenario, **{name: values[name] for name in takes})
            assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_registered_scenario_gets_only_the_name_check(self):
        register_scenario("spec_test_scenario", lambda spec, structure: {})
        try:
            spec = CampaignSpec(scenario="spec_test_scenario", cycles=3, spot_radius=1.0)
            assert spec.cycles == 3
        finally:
            del SCENARIO_REGISTRY["spec_test_scenario"]
        with pytest.raises(ValueError, match="unknown scenario 'spec_test_scenario'"):
            CampaignSpec(scenario="spec_test_scenario")


class TestTemporalSpecFields:
    """The ISSUE 7 temporal fields: round-trip, hash stability, validation."""

    def temporal_spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            fsm=FsmSpec(name="ibex_lsu"),
            campaign=CampaignSpec(
                scenario="temporal",
                target="diffusion",
                effects=("stuck0", "stuck1"),
                cycles=4,
                fault_duration="persistent",
                lane_width=256,
            ),
        )

    def test_temporal_round_trip(self):
        spec = self.temporal_spec()
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec
        assert again.content_hash() == spec.content_hash()

    def test_glitch_schedule_round_trips_from_json_lists(self):
        spec = ExperimentSpec(
            fsm=FsmSpec(name="traffic_light"),
            campaign=CampaignSpec(
                scenario="glitch",
                cycles=3,
                glitch_schedule=[[0, "mds0_74", "flip"], (2, "mds0_75", "stuck1")],
            ),
        )
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec
        assert again.campaign.glitch_schedule == ((0, "mds0_74", "flip"), (2, "mds0_75", "stuck1"))

    def test_default_temporal_fields_stay_out_of_the_wire_form(self):
        """Pre-temporal specs must keep their content hashes: the new fields
        are omitted from to_dict at their single-cycle defaults."""
        data = full_spec().to_dict()
        assert "cycles" not in data["campaign"]
        assert "fault_duration" not in data["campaign"]
        assert "glitch_schedule" not in data["campaign"]
        assert ExperimentSpec.from_dict(data) == full_spec()

    def test_committed_spec_hash_unchanged(self):
        spec = ExperimentSpec.load("examples/experiment.json")
        assert spec.content_hash() == (
            "8e0e9a0a55c3b8bc15f66c466c480d5860e2a57bfff43cb5f3c7de1e572f0f5c"
        )

    def test_committed_temporal_spec_matches_golden_hash(self):
        spec = ExperimentSpec.load("examples/temporal_experiment.json")
        golden = json.load(open("examples/temporal_experiment.golden.json"))
        assert spec.content_hash() == golden["spec_hash"]
        assert spec.campaign.cycles == 4
        assert spec.campaign.fault_duration == "persistent"

    def test_temporal_bounds_validated(self):
        with pytest.raises(ValueError, match="cycles"):
            CampaignSpec(cycles=0)
        with pytest.raises(ValueError, match="cycles"):
            CampaignSpec(cycles=True)
        with pytest.raises(ValueError, match="fault_duration"):
            CampaignSpec(fault_duration="forever")
        with pytest.raises(ValueError, match="outside"):
            CampaignSpec(cycles=2, glitch_schedule=[(3, "net", "flip")])
        with pytest.raises(ValueError, match="triples"):
            CampaignSpec(cycles=2, glitch_schedule=[(0, "net")])
        with pytest.raises(ValueError, match="effect"):
            CampaignSpec(cycles=2, glitch_schedule=[(0, "net", "melt")])
        with pytest.raises(ValueError, match="lane_width must be an integer"):
            CampaignSpec(lane_width=2.5)
        with pytest.raises(ValueError, match="lane_width must be an integer"):
            CampaignSpec(lane_width=True)


class TestLaserSpecFields:
    """The laser-spot fields: round-trip, hash stability, validation."""

    def laser_spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            fsm=FsmSpec(name="traffic_light"),
            campaign=CampaignSpec(
                scenario="laser",
                spot_radius=2.0,
                spot_trials=200,
                cycles=2,
                fault_duration="persistent",
                lane_width=256,
            ),
        )

    def test_laser_round_trip(self):
        spec = self.laser_spec()
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec
        assert again.content_hash() == spec.content_hash()

    def test_spot_fields_stay_out_of_the_wire_form_when_unset(self):
        """Pre-laser specs must keep their content hashes: the spot fields
        are omitted from to_dict when left at None."""
        data = full_spec().to_dict()
        assert "spot_radius" not in data["campaign"]
        assert "spot_trials" not in data["campaign"]
        assert ExperimentSpec.from_dict(data) == full_spec()

    def test_committed_pre_laser_hashes_unchanged(self):
        spec = ExperimentSpec.load("examples/experiment.json")
        assert spec.content_hash() == (
            "8e0e9a0a55c3b8bc15f66c466c480d5860e2a57bfff43cb5f3c7de1e572f0f5c"
        )
        temporal = ExperimentSpec.load("examples/temporal_experiment.json")
        golden = json.load(open("examples/temporal_experiment.golden.json"))
        assert temporal.content_hash() == golden["spec_hash"]

    def test_committed_laser_spec_matches_golden_hash(self):
        spec = ExperimentSpec.load("examples/laser_experiment.json")
        golden = json.load(open("examples/laser_experiment.golden.json"))
        assert spec.content_hash() == golden["spec_hash"]
        assert spec.campaign.spot_radius == 2.0
        assert spec.campaign.spot_trials == 200

    def test_spot_bounds_validated(self):
        with pytest.raises(ValueError, match="spot_radius"):
            CampaignSpec(spot_radius=0)
        with pytest.raises(ValueError, match="spot_radius"):
            CampaignSpec(spot_radius=True)
        with pytest.raises(ValueError, match="spot_trials"):
            CampaignSpec(spot_trials=-1)
        with pytest.raises(ValueError, match="spot_trials"):
            CampaignSpec(spot_trials=True)
        with pytest.raises(ValueError, match="spot_trials"):
            CampaignSpec(spot_trials=2.5)

    def test_spot_fields_rejected_outside_laser_mode(self):
        for scenario in ("exhaustive", "random", "effects", "regions", "temporal"):
            for field, value in (("spot_radius", 1.5), ("spot_trials", 5)):
                with pytest.raises(
                    ValueError, match=f"the '{scenario}' scenario does not take '{field}'"
                ):
                    CampaignSpec(
                        scenario=scenario,
                        cycles=2 if scenario == "temporal" else 1,
                        **{field: value},
                    )
